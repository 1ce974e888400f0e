"""Tensor construction contracts."""

import pytest

from ecdkit.errors import NonFiniteError, ShapeError
from ecdkit.tensor import Tensor


def test_scalar_becomes_rank_one():
    t = Tensor(3.5)
    assert t.dims == (1,)
    assert t.item() == 3.5


def test_non_finite_values_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, float("nan")])
    with pytest.raises(NonFiniteError):
        Tensor([float("inf")])


def test_item_requires_single_element():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()

