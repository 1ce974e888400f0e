"""Reverse-mode automatic differentiation over dense tensors.

Every trainable computation in the toolkit is expressed as operations on a
``Tape``. An op computes its output array and a closure ``backward(g)``
that takes the gradient of the output and scatters its contributions into
the op's inputs with ``TapeNode.accumulate``, then hands both to
``Tape._record``. ``_record`` is the one place that wraps an output in a
``TapeNode`` and the one place that attaches a closure, and it attaches one
only on a gradient tape. ``Tape.backward`` replays the closures in reverse
id order, calling ``node._backward(node.grad)``, and returns one gradient
per named parameter. Node ids grow monotonically, so the tape is
topologically ordered by construction and a single reverse sweep suffices.

``backward`` consumes its tape. An interior node's gradient and closure are
dropped as soon as its closure has run, since every consumer of the node
has run before it; parameter leaves keep their gradients until the sweep
ends, and a packed parameter's stays in its store's gradient buffer until
the caller zeroes that for the next sweep. After the sweep the tape drops
its node list and its leaves, which ends the reference cycle between the
tape and its nodes (each node points back at its tape), and every node's
gradient and closure are cleared, so the arrays the closures captured are
freed by reference counting even while the caller still holds the root. A
``Tape(grad=False)`` records nothing from the start: it keeps no node list
and attaches no closures, so a forward pass on it holds only the values
the caller keeps. Neither kind of tape can be differentiated again.

Op outputs are wrapped with ``Tensor.wrap``, unscanned: finiteness is
checked at the tape's edges only. Constants and parameter values enter
through ``tensor.finite_array``, and ``backward`` raises ``NonFiniteError``
for a non-finite loss; the gradients are checked where a packed store
collects them (``ParameterStore.grad_norm``). A tape computes in one
dtype, its ``dtype``: constants are cast to it as they enter, parameters
have it from their store, and every op's output and gradients keep its
inputs' dtype. A model's store and tapes are float32; gradchecks build
float64 ones. The loss ops' per-row terms leave the tape as float64.

Forward values are never mutated by a backward pass; gradients live in a
separate per-node buffer. A parameter has one leaf per gradient tape. For
training, ``ParameterStore.pack`` moves every parameter into one flat
weight buffer and gives it a view of its slice of one flat gradient
buffer, which the caller zeroes before each sweep; a packed parameter's
leaf takes that view as its gradient buffer, so its contributions are
added into the store's buffer in place. Any other node's buffer is
allocated at its first contribution, which ``TapeNode.accumulate`` stores
as ``contribution + 0.0``, the bits of ``0.0 + contribution`` in a zeroed
view; every later one is added in place, in the order the sweep reaches
the consumers. An op that has just built a contribution for this one call
hands it over as ``owned``, and the first such one becomes the buffer,
made ``+ 0.0`` in place rather than copied. A constant takes no gradient:
``accumulate`` into one does nothing, and ``matmul`` does not compute the
product for a constant left operand. ``select`` and ``embedding_lookup``
add into the part of the parent's buffer they read (``accumulate_at``,
allocated as zeros on first use) instead of building a whole-input array
per call. ``rnn`` runs a whole recurrence as one op, so a batch records one
node however long its longest row is, and ``conv1d`` runs every filter bank
of a cnn as one op, writing their maps side by side. ``embedding_lookup``
sums the gradient rows of each id it looked up with one ``np.bincount`` over
the flat (distinct id x width + column) index, which adds each cell's rows
in order to 0.0 in float64, as ``np.add.at`` into float64 zeros does. Buffers
never hold -0.0, so the sums have the bits of adding every contribution to
a zero buffer. The loss ops also expose their per-row terms as
``node.rows``, with the node's value equal to ``terms.sum() / terms.size``,
so a caller can reduce the terms of many batches to the value one batch of
all their rows would have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    IndexOutOfRangeError,
    RegistryError,
    ShapeError,
)
from .tensor import Tensor, check_finite, finite_array

UNARY_KINDS = ("relu", "sigmoid", "tanh")
REDUCE_KINDS = ("sum", "mean", "max")

Backward = Callable[[np.ndarray], None]


@dataclass
class Parameter:
    """Named trainable array of its store's dtype. Names are dot-separated paths.

    In a packed store ``value`` and ``grad`` are views of the parameter's
    slice of the store's weight and gradient buffers; otherwise ``grad`` is
    None."""

    name: str
    value: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        if not self.name or any(not part for part in self.name.split(".")):
            raise ContractError(f"parameter name must be a dot-separated path, got {self.name!r}")


class ParameterStore:
    """Ordered collection of parameters with unique names.

    ``dtype`` is the one decision of what a model computes in: every value
    is cast to it as it is created or restored. A store is packed for
    training only (``pack``): then ``weights`` and ``grads`` are flat buffers
    of ``dtype`` holding every parameter in store order, and an optimizer
    updates all of them in one pass. A loaded model is never packed, and
    both are None.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}
        self.weights: np.ndarray | None = None
        self.grads: np.ndarray | None = None
        self._slices: list[slice] = []

    def add(self, param: Parameter) -> Parameter:
        if self.weights is not None:
            raise ContractError(f"cannot add parameter {param.name!r} to a packed store")
        if param.name in self._params:
            raise ContractError(f"duplicate parameter name {param.name!r}")
        self._params[param.name] = param
        return param

    def create(self, name: str, values) -> Parameter:
        return self.add(Parameter(name, finite_array(values, self.dtype)))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def pack(self) -> None:
        """Move every parameter's values into one flat weight buffer and give
        each parameter views of its slice of it and of a zeroed gradient
        buffer of the same layout. Packing a packed store does nothing."""
        if self.weights is not None:
            return
        stops = list(accumulate(p.value.size for p in self))
        self._slices = [slice(stop - p.value.size, stop) for p, stop in zip(self, stops)]
        self.weights = np.empty(stops[-1] if stops else 0, self.dtype)
        self.grads = np.zeros_like(self.weights)
        for param, part in zip(self, self._slices):
            shape = param.value.shape
            self.weights[part] = param.value.reshape(-1)
            param.value = self.weights[part].reshape(shape)
            param.grad = self.grads[part].reshape(shape)

    def check_finite(self, flat: np.ndarray, what: str) -> np.ndarray:
        """Return ``flat``, laid out like the weight buffer, if all of it is
        finite; else raise ``NonFiniteError`` naming the first parameter
        whose slice is not."""
        if not np.isfinite(flat).all():
            for param, part in zip(self, self._slices):
                check_finite(flat[part], f"{what} for parameter {param.name!r}")
        return flat

    def grad_norm(self) -> float:
        """The float64 2-norm of a packed store's gradient buffer, which is
        also its finiteness check. A float32 buffer's float64 sum of squares
        is finite exactly when every gradient is, so ``check_finite``'s scan,
        which names the first bad parameter, runs only when the sum is not.
        A float64 buffer's sum can overflow on finite values; there the scan
        decides, and when it finds nothing the norm is inf."""
        flat = self.grads.astype(np.float64, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            norm = math.sqrt(np.dot(flat, flat))
        if not math.isfinite(norm):
            self.check_finite(self.grads, "gradient")
        return norm

    def snapshot(self) -> np.ndarray:
        """Copy of a packed store's weight buffer, for checkpointing."""
        return self.weights.copy()

    def rollback(self, snapshot: np.ndarray) -> None:
        """Copy a ``snapshot`` of this packed store back into its weights."""
        self.weights[...] = snapshot

    def restore(self, weights: dict[str, np.ndarray]) -> None:
        """Take each array as the named parameter's values, uncopied; the
        caller hands them over and must not write them afterwards. For a
        store that is not packed: a model being loaded."""
        if self.weights is not None:
            raise ContractError("a packed store keeps its values in its weight buffer")
        for name, values in weights.items():
            self._params[name].value = finite_array(values, self.dtype)


class TapeNode:
    """One recorded operation: forward value plus backward bookkeeping."""

    __slots__ = ("id", "op_kind", "value", "grad", "param_name", "_backward", "tape", "rows")

    def __init__(self, tape: "Tape", node_id: int, op_kind: str, value: Tensor,
                 param_name: str | None = None):
        self.tape = tape
        self.id = node_id
        self.op_kind = op_kind
        self.value = value
        self.grad: np.ndarray | None = None
        self.param_name = param_name
        self._backward: Backward | None = None
        self.rows: np.ndarray | None = None

    def accumulate(self, contribution: np.ndarray, owned: bool = False) -> None:
        """Add one gradient contribution; a constant takes none. Without a
        buffer the first becomes ``contribution + 0.0``, the bits of
        ``zeros + contribution``: computed in place when the caller built
        the array for this call alone and hands it over (``owned``), else
        as a copy."""
        if self.op_kind == "const":
            return
        if self.grad is None:
            if owned:
                contribution += 0.0
                self.grad = contribution
            else:
                self.grad = contribution + 0.0
        else:
            self.grad += contribution

    def accumulate_at(self, index, contribution: np.ndarray) -> None:
        """Add a contribution to the part ``grad[index]`` of the gradient,
        allocating the buffer as zeros first; a constant takes none."""
        if self.op_kind == "const":
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.value.array)
        self.grad[index] += contribution

    def __repr__(self) -> str:
        return f"TapeNode(id={self.id}, op={self.op_kind}, dims={self.value.dims})"


class Tape:
    """Append-only record of operations for one forward pass.

    With ``grad=False`` the tape keeps no nodes and its ops attach no
    backward closures: an inference pass that cannot be differentiated.
    ``dtype`` is what its constants are cast to, the dtype of the parameter
    store whose leaves it records.
    """

    def __init__(self, grad: bool = True, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes: list[TapeNode] | None = [] if grad else None
        self._leaves: dict[str, TapeNode] = {}  # on a gradient tape, by parameter name
        self._next_id = 0

    @property
    def grad(self) -> bool:
        """Whether ops record backward closures: false once consumed."""
        return self.nodes is not None

    def _record(self, op_kind: str, value: np.ndarray, backward: Backward | None = None,
                param_name: str | None = None) -> TapeNode:
        """Wrap an op's output array in a new node and return it.

        ``value`` must be a contiguous float array of rank >= 1; it is
        wrapped as it is, without a copy or a finiteness scan. ``backward(g)``
        receives the gradient of ``value`` and adds the op's contributions to
        its inputs; it is attached, and the node kept, only on a gradient
        tape, so a ``grad=False`` tape drops the closure and what it captured.
        """
        node = TapeNode(self, self._next_id, op_kind, Tensor.wrap(value), param_name)
        self._next_id += 1
        if self.nodes is not None:
            node._backward = backward
            self.nodes.append(node)
        return node

    def constant(self, values) -> TapeNode:
        """Leaf holding a value with no gradient of interest."""
        return self._record("const", finite_array(values, self.dtype))

    def leaf(self, param: Parameter) -> TapeNode:
        """Leaf bound to a named parameter; backward reports its gradient.

        On a gradient tape a parameter has one leaf, whose gradient buffer is
        the parameter's ``grad`` view when its store is packed."""
        if self.nodes is None:
            return self._record("param", param.value, param_name=param.name)
        node = self._leaves.get(param.name)
        if node is None:
            node = self._leaves[param.name] = self._record("param", param.value,
                                                           param_name=param.name)
            node.grad = param.grad
        return node

    def backward(self, root: TapeNode) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar root; consumes the tape.

        Returns one gradient array per parameter leaf on the tape, in the
        order the leaves were recorded: a packed parameter's ``grad`` view,
        which the caller zeroes before the sweep, else a new array, zeros for
        a leaf that does not influence the root. Fan-out contributions
        accumulate. Forward values are left untouched. A non-finite root
        raises ``NonFiniteError``. Afterwards the tape holds no nodes and no
        node holds a gradient or a closure, so a second call raises.
        """
        if root.tape is not self:
            raise ContractError("root node belongs to a different tape")
        if self.nodes is None:
            raise ContractError("tape records no gradients: it was built with grad=False "
                                "or already consumed by backward")
        if root.value.array.size != 1:
            raise ContractError(f"backward root must be scalar, got dims {root.value.dims}")
        check_finite(root.value.array, "loss")
        nodes, self.nodes = self.nodes, None
        leaves, self._leaves = self._leaves, {}
        root.accumulate(np.ones_like(root.value.array), owned=True)
        for node in reversed(nodes[: root.id + 1]):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)
            # every consumer of an interior node has run: its gradient is spent
            node.grad = node._backward = None
        grads = {name: node.grad if node.grad is not None else np.zeros_like(node.value.array)
                 for name, node in leaves.items()}
        for node in nodes:
            node.grad = None
            node._backward = None
        return grads


# ---------------------------------------------------------------------------
# elementwise and structural operations
# ---------------------------------------------------------------------------

def matmul(a: TapeNode, b: TapeNode) -> TapeNode:
    """C = A @ B for rank-2 operands; differentiable w.r.t. both."""
    av, bv = a.value.array, b.value.array
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.value.dims} and {b.value.dims}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.value.dims} vs {b.value.dims}")

    def backward(g):
        if a.op_kind != "const":
            a.accumulate(g @ bv.T, owned=True)
        b.accumulate(av.T @ g, owned=True)

    return a.tape._record("matmul", av @ bv, backward)


def add(a: TapeNode, b: TapeNode) -> TapeNode:
    """Elementwise sum; also accepts a rank-1 bias broadcast over rows."""
    av, bv = a.value.array, b.value.array
    if av.shape == bv.shape:
        broadcast = False
    elif av.ndim >= 2 and bv.shape == (av.shape[-1],):
        broadcast = True
    else:
        raise ShapeError(f"add dims mismatch: {a.value.dims} vs {b.value.dims}")

    def backward(g):
        a.accumulate(g)
        if broadcast:
            b.accumulate(g.reshape(-1, bv.shape[0]).sum(axis=0), owned=True)
        else:
            b.accumulate(g)

    return a.tape._record("add", av + bv, backward)


def scale(a: TapeNode, factor: float) -> TapeNode:
    factor = float(factor)

    def backward(g):
        a.accumulate(g * factor, owned=True)

    return a.tape._record("scale", a.value.array * factor, backward)


def apply_unary(kind: str, x: TapeNode) -> TapeNode:
    """Elementwise map, one of relu / sigmoid / tanh."""
    if kind not in UNARY_KINDS:
        raise RegistryError(f"unknown unary op {kind!r}; available: {', '.join(UNARY_KINDS)}")
    xv = x.value.array
    if kind == "relu":
        out = np.maximum(xv, 0.0)
    elif kind == "sigmoid":
        out = _stable_sigmoid(xv)
    else:
        out = np.tanh(xv)

    def backward(g):
        if kind == "relu":
            x.accumulate(g * (xv > 0.0), owned=True)
        elif kind == "sigmoid":
            x.accumulate(g * out * (1.0 - out), owned=True)
        else:
            x.accumulate(g * (1.0 - out * out), owned=True)

    return x.tape._record(kind, out, backward)


def sigmoid(x: TapeNode) -> TapeNode:
    return apply_unary("sigmoid", x)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def reduce(kind: str, x: TapeNode, axis: int) -> TapeNode:
    """Fold one axis away with sum, mean, or max.

    The max gradient is routed to the first maximal element of each slice,
    which keeps tie-breaking deterministic.
    """
    if kind not in REDUCE_KINDS:
        raise RegistryError(f"unknown reduce kind {kind!r}; available: {', '.join(REDUCE_KINDS)}")
    xv = x.value.array
    if not (0 <= axis < xv.ndim):
        raise ShapeError(f"reduce axis {axis} out of range for dims {x.value.dims}")
    extent = xv.shape[axis]
    reduced_shape = xv.shape[:axis] + xv.shape[axis + 1 :]
    if kind == "sum":
        out = xv.sum(axis=axis)
    elif kind == "mean":
        out = xv.mean(axis=axis)
    else:
        out = xv.max(axis=axis)
        if x.tape.grad:
            argmax = np.argmax(xv, axis=axis)
    if out.ndim == 0:
        out = out.reshape(1)

    def backward(g):
        g = g.reshape(reduced_shape)
        if kind == "sum":
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis), owned=True)
        elif kind == "mean":
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis) / extent,
                         owned=True)
        else:
            gx = np.zeros_like(xv)
            np.put_along_axis(gx, np.expand_dims(argmax, axis),
                              np.expand_dims(g, axis), axis=axis)
            x.accumulate(gx, owned=True)

    return x.tape._record(f"reduce_{kind}", out, backward)


def concat(parts: Sequence[TapeNode], axis: int = 1) -> TapeNode:
    """Concatenate tensors along one axis; all other extents must agree."""
    if not parts:
        raise ContractError("concat needs at least one input")
    arrays = [p.value.array for p in parts]
    base = arrays[0].shape
    for arr in arrays[1:]:
        if arr.ndim != len(base) or any(
            arr.shape[d] != base[d] for d in range(arr.ndim) if d != axis
        ):
            raise ShapeError(
                f"concat dims mismatch along axis {axis}: "
                f"{[tuple(a.shape) for a in arrays]}"
            )
    widths = [a.shape[axis] for a in arrays]

    def backward(g):
        offset = 0
        for part, width in zip(parts, widths):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + width)
            part.accumulate(g[tuple(index)])
            offset += width

    return parts[0].tape._record("concat", np.concatenate(arrays, axis=axis), backward)


def reshape(x: TapeNode, dims: Sequence[int]) -> TapeNode:
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != x.value.array.size:
        raise ShapeError(f"cannot reshape {x.value.dims} into {dims}")

    def backward(g):
        x.accumulate(g.reshape(x.value.dims))

    return x.tape._record("reshape", x.value.array.reshape(dims), backward)


def select(x: TapeNode, axis: int, index: int) -> TapeNode:
    """Slice out one index along an axis, squeezing that axis away."""
    xv = x.value.array
    if not (0 <= axis < xv.ndim):
        raise ShapeError(f"select axis {axis} out of range for dims {x.value.dims}")
    if not (0 <= index < xv.shape[axis]):
        raise IndexOutOfRangeError(f"select index {index} out of range for axis extent {xv.shape[axis]}")
    out = np.take(xv, index, axis=axis)
    if out.ndim == 0:
        out = out.reshape(1)
    # a width-1 slice, so the gradient's part is a view even for rank-1 input
    slicer = (slice(None),) * axis + (slice(index, index + 1),)
    part = xv.shape[:axis] + (1,) + xv.shape[axis + 1 :]

    def backward(g):
        x.accumulate_at(slicer, g.reshape(part))

    return x.tape._record("select", out, backward)


def embedding_lookup(table: TapeNode, ids: Sequence[int]) -> TapeNode:
    """Gather rows of a [v x h] table; backward scatter-adds into the table."""
    tv = table.value.array
    if tv.ndim != 2:
        raise ShapeError(f"embedding table must be rank 2, got dims {table.value.dims}")
    idx = np.asarray(ids)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a flat sequence")
    idx = idx.astype(np.int64)
    vocab = tv.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = idx[(idx < 0) | (idx >= vocab)][0]
        raise IndexOutOfRangeError(f"embedding id {int(bad)} outside [0, {vocab})")

    def backward(g):
        # the distinct ids in order (a mask, not a sort), then one pass over
        # the flat (slot among them x width + column) index: each cell of a
        # looked-up row sums its rows in order from 0.0, the bits of
        # np.add.at into float64 zeros; no other row is touched
        v, h = tv.shape
        seen = np.zeros(v, bool)
        seen[idx] = True
        rows = np.flatnonzero(seen)
        flat = ((np.cumsum(seen) - 1)[idx, np.newaxis] * h + np.arange(h)).reshape(-1)
        table.accumulate_at(rows, np.bincount(flat, weights=g.reshape(-1),
                                              minlength=rows.size * h).reshape(rows.size, h))

    return table.tape._record("embedding_lookup", tv[idx], backward)


#: the fewest rows on which a column pass beats ``axis=1``, per ufunc
_COLUMN_PASS_ROWS = {np.maximum: 64, np.add: 300}


def _reduce_rows(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=1, keepdims=True)`` for ``np.add`` or
    ``np.maximum`` of a rank-2 array, with its bits.

    Below 8 columns numpy folds each row in order, a sum from 0.0 and a max
    from the first column, so one whole-column pass per column gives the
    same bits many times faster on many narrow rows of a few classes; on a
    few rows its per-column calls cost more than ``axis=1``. From 8 columns
    on numpy sums with unrolled partial sums, so wider rows keep ``axis=1``.
    """
    rows, c = x.shape
    if 0 < c < 8 and rows >= _COLUMN_PASS_ROWS[ufunc]:
        return _reduce_columns(ufunc, x)
    return ufunc.reduce(x, axis=1, keepdims=True)


def _reduce_columns(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``_reduce_rows`` one whole-column pass per column."""
    c = x.shape[1]
    out = x[:, :1] + 0.0 if ufunc is np.add else x[:, :1].copy()
    for k in range(1, c):
        ufunc(out, x[:, k : k + 1], out=out)
    return out


def softmax(x: TapeNode) -> TapeNode:
    """Row-wise softmax of a rank-2 tensor."""
    xv = x.value.array
    if xv.ndim != 2:
        raise ShapeError(f"softmax needs rank-2 input, got dims {x.value.dims}")
    e = np.exp(xv - _reduce_rows(np.maximum, xv))
    p = e / _reduce_rows(np.add, e)

    def backward(g):
        dot = _reduce_rows(np.add, g * p)
        x.accumulate(p * (g - dot), owned=True)

    return x.tape._record("softmax", p, backward)


# ---------------------------------------------------------------------------
# convolution and recurrence
# ---------------------------------------------------------------------------

def conv1d(x: TapeNode, banks: Sequence[tuple[TapeNode, TapeNode]],
           lengths: Sequence[int]) -> TapeNode:
    """Same-padded 1-d convolutions of each row of a packed batch by several
    filter banks, all in one product.

    ``x`` is [n x h]: the real tokens of every row back to back, row ``i``
    holding ``lengths[i]`` of them, so ``sum(lengths) == n``. Each bank is a
    ``(filters, bias)`` pair, filters [w x h x f] with odd width w and bias
    [f]. Each row is convolved on its own, with zeros past its two ends; the
    output is [n x F], the banks' maps side by side in the same packing (F
    the sum of their f). One buffer holds the rows with P = (widest w) // 2
    zero rows before, between and after them. Each token's window of 2P+1
    rows is gathered into a row of an [n x (2P+1)h] matrix and multiplied
    once by a [(2P+1)h x F] matrix that holds each bank's taps in the rows
    of their offsets and zeros elsewhere. Backward takes every filter
    gradient from one product of the windows with the output gradient, the
    biases' from its column sums, and x's from one product per offset on the
    output gradient scattered into the gap-padded layout.
    """
    if not banks:
        raise ContractError("conv1d needs at least one filter bank")
    xv = x.value.array
    if xv.ndim != 2:
        raise ShapeError(f"conv1d input must be rank 2 [n x h], got dims {x.value.dims}")
    n, h = xv.shape
    for filters, bias in banks:
        fv = filters.value.array
        if fv.ndim != 3 or fv.shape[1] != h:
            raise ShapeError(f"conv1d filters {filters.value.dims} are not [w x {h} x f] "
                             f"for input dims {x.value.dims}")
        if fv.shape[0] % 2 == 0:
            raise ConfigError(f"conv1d filter width must be odd, got {fv.shape[0]}")
        if bias.value.array.shape != (fv.shape[2],):
            raise ShapeError(f"conv1d bias dims {bias.value.dims} do not match "
                             f"filter count {fv.shape[2]}")
    counts = np.asarray(lengths, dtype=np.int64)
    if counts.ndim != 1 or (counts < 0).any() or counts.sum() != n:
        raise ShapeError(f"conv1d row lengths {counts.tolist()} do not pack {n} positions")
    pad = max(filters.value.array.shape[0] for filters, _ in banks) // 2
    window = 2 * pad + 1
    # ``real`` is each token's index among the rows and the gaps between
    # them; the buffer has one more gap first, so a token sits at real + P
    # and its window starts at real
    span = n + pad * max(counts.size - 1, 0)
    real = np.arange(n) + pad * np.repeat(np.arange(counts.size), counts)
    xp = np.zeros((span + 2 * pad, h), xv.dtype)
    xp[real + pad] = xv
    windows = np.take(xp, real[:, np.newaxis] + np.arange(window), axis=0).reshape(n, window * h)
    stops = list(accumulate(filters.value.array.shape[2] for filters, _ in banks))
    weight = np.zeros((window * h, stops[-1]), xv.dtype)
    blocks = []  # each bank's rows and columns of the weight matrix
    for (filters, _), stop in zip(banks, stops):
        w, _, f = filters.value.dims
        rows, cols = slice((pad - w // 2) * h, (pad + w // 2 + 1) * h), slice(stop - f, stop)
        weight[rows, cols] = filters.value.array.reshape(w * h, f)
        blocks.append((rows, cols))
    out = windows @ weight
    out += np.concatenate([bias.value.array for _, bias in banks])

    def backward(g):
        gw = windows.T @ g
        gb = g.sum(axis=0)
        for (filters, bias), (rows, cols) in zip(banks, blocks):
            filters.accumulate(gw[rows, cols].reshape(filters.value.dims), owned=True)
            bias.accumulate(gb[cols], owned=True)
        gfull = np.zeros((span, stops[-1]), g.dtype)
        gfull[real] = g
        gxp = np.zeros_like(xp)
        for k in range(window):
            gxp[k : k + span] += gfull @ weight[k * h : (k + 1) * h].T
        x.accumulate(gxp[real + pad], owned=True)

    return x.tape._record("conv1d", out, backward)


def rnn(x: TapeNode, w_in: TapeNode, w_rec: TapeNode, bias: TapeNode,
        lengths: Sequence[int]) -> TapeNode:
    """A vanilla tanh recurrence, h_t = tanh(x_t W + h_{t-1} U + b) from
    h_{-1} = 0, over every row of a packed batch, as one op.

    ``x`` is [n x e]: the real tokens of the rows back to back, longest row
    first, row ``i`` holding ``lengths[i]`` of them. The output is
    [max(longest, 1) x b x h], every row's state after each step; a row that
    has ended carries its last state forward, and a row with no tokens stays
    0. The tokens are taken time-major, so the rows running at step t are a
    prefix, and x W + b is one product before the step loop, each step adding
    h_{t-1} U in place. Backward is one reverse loop carrying the running
    rows' state gradients; W's, b's and x's are each one product after it.
    """
    xv, wv, uv, bv = x.value.array, w_in.value.array, w_rec.value.array, bias.value.array
    n, h = xv.shape[0], uv.shape[-1]
    if ((xv.ndim, wv.ndim, uv.ndim, bv.shape) != (2, 2, 2, (h,)) or xv.shape[1] != wv.shape[0]
            or wv.shape[1] != h or uv.shape[0] != h):
        raise ShapeError(f"rnn dims mismatch: x {x.value.dims}, w_in {w_in.value.dims}, "
                         f"w_rec {w_rec.value.dims}, bias {bias.value.dims}")
    counts = np.asarray(lengths, dtype=np.int64)
    if (counts.ndim != 1 or (counts < 0).any() or counts.sum() != n
            or (np.diff(counts) > 0).any()):
        raise ShapeError(f"rnn row lengths {counts.tolist()} are not non-increasing "
                         f"or do not pack {n} positions")
    b, longest = counts.size, int(counts.max(initial=0))
    running = np.searchsorted(-counts, -np.arange(longest + 1))  # rows longer than t
    starts = np.cumsum(running) - running  # step t's first token in time-major order
    # each token's step, sorted stably: the rows' t-th tokens in row order, by t
    time_major = np.argsort(np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts),
                            kind="stable")
    x_tm = xv[time_major]
    projected = x_tm @ wv + bv
    out = np.zeros((max(longest, 1), b, h), projected.dtype)
    for t in range(longest):
        r, later = running[t], running[t + 1]
        step, pre = out[t, :r], projected[starts[t] : starts[t] + r]
        if t:
            np.matmul(out[t - 1, :r], uv, out=step)
            pre = np.add(step, pre, out=step)
        np.tanh(pre, out=step)
        if later < r:  # rows whose last step is t carry their state forward
            out[t + 1 :, later:r] = step[later:]

    def backward(g):
        carry = np.empty((b, h), g.dtype)  # the gradient of each running row's state
        grad_pre = np.empty((n, h), g.dtype)  # of tanh's input, time-major
        gu = np.zeros((h, h), g.dtype)
        for t in range(longest - 1, -1, -1):
            r, later = running[t], running[t + 1]
            carry[:later] += g[t, :later]
            if later < r:  # rows whose last step is t, with their carried states
                carry[later:r] = g[t:, later:r].sum(axis=0)
            step = grad_pre[starts[t] : starts[t] + r]
            np.multiply(carry[:r], 1.0 - out[t, :r] * out[t, :r], out=step)
            if t:
                gu += out[t - 1, :r].T @ step
                np.matmul(step, uv.T, out=carry[:r])
        grad_tm = grad_pre @ wv.T
        grad_x = np.empty_like(grad_tm)
        grad_x[time_major] = grad_tm  # back from time-major into row order
        x.accumulate(grad_x, owned=True)
        w_in.accumulate(x_tm.T @ grad_pre, owned=True)
        w_rec.accumulate(gu, owned=True)
        bias.accumulate(grad_pre.sum(axis=0), owned=True)

    return x.tape._record("rnn", out, backward)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: TapeNode, target_ids: Sequence[int]) -> TapeNode:
    """Mean cross entropy of row-wise softmax against integer class ids."""
    lv = logits.value.array
    if lv.ndim != 2:
        raise ShapeError(f"cross entropy logits must be [b x c], got dims {logits.value.dims}")
    b, c = lv.shape
    ids = np.asarray(target_ids).astype(np.int64).reshape(-1)
    if ids.shape[0] != b:
        raise ShapeError(f"cross entropy targets length {ids.shape[0]} != batch {b}")
    if ids.size and (ids.min() < 0 or ids.max() >= c):
        bad = ids[(ids < 0) | (ids >= c)][0]
        raise IndexOutOfRangeError(f"target id {int(bad)} outside [0, {c})")
    if b == 0:
        # nothing to score, as for a tagger batch without tokens; a constant
        # zero keeps the graph well-defined
        node = logits.tape.constant([0.0])
        node.rows = np.zeros(0)
        return node
    top = _reduce_rows(np.maximum, lv)
    shifted = lv - top
    lse = np.log(_reduce_rows(np.add, np.exp(shifted))) + top
    terms = lse[:, 0] - lv[np.arange(b), ids]

    def backward(g):
        p = np.exp(shifted)
        p /= _reduce_rows(np.add, p)
        p[np.arange(b), ids] -= 1.0
        logits.accumulate(g[0] * p * (1.0 / b), owned=True)

    node = logits.tape._record("softmax_cross_entropy",
                               np.array([terms.sum() / b], lv.dtype), backward)
    node.rows = terms.astype(np.float64)
    return node


def sigmoid_bce(logits: TapeNode, targets) -> TapeNode:
    """Mean binary cross entropy from logits against {0,1} targets.

    Accepts [b x k] logits with matching targets; the mean runs over all
    elements, so the [b x 1] single-output case is the plain batch mean.
    """
    lv = logits.value.array
    tv = np.asarray(targets, dtype=lv.dtype).reshape(lv.shape)
    n = lv.size
    # stable formulation: max(z,0) - z*t + log(1 + exp(-|z|))
    per = np.maximum(lv, 0.0) - lv * tv + np.log1p(np.exp(-np.abs(lv)))

    def backward(g):
        logits.accumulate(g[0] * (_stable_sigmoid(lv) - tv) / n, owned=True)

    node = logits.tape._record("sigmoid_bce", np.array([per.sum() / n], lv.dtype), backward)
    node.rows = per.astype(np.float64)
    return node


def mse(prediction: TapeNode, targets) -> TapeNode:
    """Mean squared error against same-shaped targets."""
    pv = prediction.value.array
    tv = np.asarray(targets, dtype=pv.dtype)
    if tv.shape != pv.shape:
        tv = tv.reshape(pv.shape)
    n = pv.size
    diff = pv - tv
    terms = diff * diff

    def backward(g):
        prediction.accumulate(g[0] * 2.0 * diff / n, owned=True)

    node = prediction.tape._record("mse", np.array([terms.sum() / n], pv.dtype), backward)
    node.rows = terms.astype(np.float64)
    return node
