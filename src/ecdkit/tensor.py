"""Float64 values at the edges of the autodiff tape.

Outside the tape every value is a contiguous float64 ndarray of rank >= 1:
parameters, gradients and predictions alike; a scalar is a rank-1 array of
extent 1. ``finite_array`` is the one entry for values from outside (the
tape's constants and a parameter store's created and restored weights).
``check_finite`` is the one finiteness check: the entry calls it, and so do
the tape's exits, the loss and the gradients of a backward sweep, the
weights an optimizer step writes, and the predictions and loss terms of an
inference pass, each naming what it found non-finite. Nothing scans inside
the tape.

``Tensor`` is the value of a tape node: an op's output array, taken by
``Tensor.wrap`` as it is, with no copy and no scan.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError


class Tensor:

    __slots__ = ("array",)

    @classmethod
    def wrap(cls, array: np.ndarray) -> "Tensor":
        """Take a contiguous float64 array of rank >= 1 as it is."""
        tensor = cls.__new__(cls)
        tensor.array = array
        return tensor

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() on tensor of dims {self.dims}")
        return float(self.array.reshape(-1)[0])


def finite_array(values) -> np.ndarray:
    """``values`` as a contiguous float64 array of rank >= 1, checked finite.

    A scalar becomes rank 1 (``np.ascontiguousarray`` never returns rank 0),
    and an array that already is one is returned as it is, uncopied."""
    return check_finite(np.ascontiguousarray(values, dtype=np.float64), "tensor values")


def check_finite(array: np.ndarray, what: str) -> np.ndarray:
    """Return ``array`` if every element is finite; else raise, naming ``what``."""
    if not np.isfinite(array).all():
        raise NonFiniteError(f"non-finite {what}")
    return array
