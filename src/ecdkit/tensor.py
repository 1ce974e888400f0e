"""Values at the edges of the autodiff tape.

Outside the tape every value is a contiguous float ndarray of rank >= 1; a
scalar is a rank-1 array of extent 1. Parameters and gradients have their
store's dtype (float32 for a model, float64 for a gradcheck), and what a
model reports, its predictions and loss terms, is float64. ``finite_array``
is the one entry for values from outside (the tape's constants and a
parameter store's created and restored weights), cast once to the dtype
the tape computes in.
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
        """Take a contiguous float array of rank >= 1 as it is."""
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


def finite_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array of rank >= 1, checked finite.

    A scalar becomes rank 1 (``np.ascontiguousarray`` never returns rank 0),
    and an array that already is one is returned as it is, uncopied. A
    finite value beyond the range of ``dtype`` casts to an infinity, which
    the check rejects; the cast itself does not warn."""
    with np.errstate(over="ignore"):
        array = np.ascontiguousarray(values, dtype=dtype)
    return check_finite(array, "tensor values")


def check_finite(array: np.ndarray, what: str) -> np.ndarray:
    """Return ``array`` if every element is finite; else raise, naming ``what``."""
    if not np.isfinite(array).all():
        raise NonFiniteError(f"non-finite {what}")
    return array
