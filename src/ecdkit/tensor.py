"""Dense float64 tensor.

A tensor is a row-major array of 64-bit floats with rank >= 1; scalars are
represented as rank-1 tensors of extent 1.

Finiteness is checked where values enter or leave the autodiff tape, never
inside it. The public constructor checks every element, so constants,
parameters and restored weights are finite; ``Tensor.wrap`` takes an op's
output as it is. On the way out, ``check_finite`` guards the loss and the
gradients of a backward sweep, the weights an optimizer step writes, and the
predictions and loss terms of an inference pass, each naming
what it found non-finite.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError


class Tensor:

    __slots__ = ("array",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.array = np.ascontiguousarray(check_finite(arr, "tensor values"))

    # -- constructors --------------------------------------------------------

    @classmethod
    def wrap(cls, array: np.ndarray) -> "Tensor":
        """Take a contiguous float64 array of rank >= 1 as it is: no copy and
        no finiteness scan. For op outputs, checked at the tape's edges."""
        tensor = cls.__new__(cls)
        tensor.array = array
        return tensor

    # -- views ----------------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() on tensor of dims {self.dims}")
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


def check_finite(array: np.ndarray, what: str) -> np.ndarray:
    """Return ``array`` if every element is finite; else raise, naming ``what``."""
    if not np.isfinite(array).all():
        raise NonFiniteError(f"non-finite {what}")
    return array
