"""The one entry for values from outside the tape, and a node value's item()."""

import numpy as np
import pytest

from ecdkit.autodiff import Tape
from ecdkit.errors import NonFiniteError, ShapeError
from ecdkit.tensor import finite_array


def test_scalar_becomes_rank_one():
    values = finite_array(3.5)
    assert values.shape == (1,) and values.dtype == np.float64
    assert values.item() == 3.5


def test_non_finite_values_rejected():
    with pytest.raises(NonFiniteError, match="non-finite tensor values"):
        finite_array([1.0, float("nan")])
    with pytest.raises(NonFiniteError, match="non-finite tensor values"):
        finite_array([float("inf")])


def test_contiguous_float64_array_is_taken_uncopied():
    values = np.zeros((2, 3))
    assert finite_array(values) is values
    converted = finite_array(np.ones((3, 2), dtype=np.int64).T)
    assert converted.dtype == np.float64 and converted.flags.c_contiguous
    # as is a contiguous array of the dtype asked for, a model's float32
    single = np.zeros((2, 3), dtype=np.float32)
    assert finite_array(single, np.float32) is single
    assert finite_array(values, np.float32).dtype == np.float32


def test_item_requires_single_element():
    with pytest.raises(ShapeError):
        Tape().constant([1.0, 2.0]).value.item()
