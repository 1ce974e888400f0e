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
ends. After the sweep the tape drops its node list, which ends the
reference cycle between the tape and its nodes (each node points back at
its tape), and every node's gradient and closure are cleared, so the arrays
the closures captured are freed by reference counting even while the caller
still holds the root. A ``Tape(grad=False)`` records nothing from the
start: it keeps no node list and attaches no closures, so a forward pass on
it holds only the values the caller keeps. Neither kind of tape can be
differentiated again.

Op outputs are wrapped with ``Tensor.wrap``, unscanned: finiteness is
checked at the tape's edges. ``Tensor(...)`` checks the constants and
parameters that enter it, and ``backward`` raises ``NonFiniteError`` for a
non-finite loss or a non-finite parameter gradient, naming the parameter.

Forward values are never mutated by a backward pass; gradients live in a
separate per-node buffer, allocated when the node receives its first
contribution. ``TapeNode.accumulate`` stores that first contribution as a
fresh array and adds every later one in place, in the order the sweep
reaches the consumers. ``select`` adds into its one slice of the parent's
buffer (allocated as zeros on first use) instead of building a whole-input
array per call, so an rnn's backward over s steps costs O(s) slices, not
O(s) whole inputs. ``rnn_step`` is one op for the whole cell update; its
closure adds its contributions in the order the sweep reaches them in the
composed ``tanh(add(add(matmul, matmul), bias))``, so both have the same
bits. ``embedding_lookup`` scatters its rows' gradients into
the table with one ``np.bincount`` over the flat (id x width + column)
index, which adds each cell's rows in order to 0.0, as ``np.add.at`` into
zeros does. Buffers never hold -0.0, so the sums have the bits of adding
every contribution to a zero buffer. The loss ops also expose their per-row
terms as ``node.rows = (terms, weights)``, with the node's value equal to
``terms.sum() / weights.sum()``, so a caller can reduce the terms of many
batches to the value one batch of all their rows would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    IndexOutOfRangeError,
    RegistryError,
    ShapeError,
)
from .tensor import Tensor, check_finite

UNARY_KINDS = ("relu", "sigmoid", "tanh")
REDUCE_KINDS = ("sum", "mean", "max")

Backward = Callable[[np.ndarray], None]


@dataclass
class Parameter:
    """Named trainable tensor. Names are dot-separated paths."""

    name: str
    tensor: Tensor

    def __post_init__(self):
        if not self.name or any(not part for part in self.name.split(".")):
            raise ContractError(f"parameter name must be a dot-separated path, got {self.name!r}")


class ParameterStore:
    """Ordered collection of parameters with unique names."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, param: Parameter) -> Parameter:
        if param.name in self._params:
            raise ContractError(f"duplicate parameter name {param.name!r}")
        self._params[param.name] = param
        return param

    def create(self, name: str, values) -> Parameter:
        return self.add(Parameter(name, Tensor(values)))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's values, for checkpointing."""
        return {name: p.tensor.array.copy() for name, p in self._params.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Take each array as the named parameter's values, uncopied; the
        caller hands them over and must not write them afterwards."""
        for name, values in snapshot.items():
            self._params[name].tensor = Tensor(values)


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
        self.rows: tuple[np.ndarray, np.ndarray] | None = None

    def accumulate(self, contribution: np.ndarray) -> None:
        """Add one gradient contribution. The first is stored as
        ``contribution + 0.0``, the bits of ``zeros + contribution``."""
        if self.grad is None:
            self.grad = contribution + 0.0
        else:
            self.grad += contribution

    def __repr__(self) -> str:
        return f"TapeNode(id={self.id}, op={self.op_kind}, dims={self.value.dims})"


class Tape:
    """Append-only record of operations for one forward pass.

    With ``grad=False`` the tape keeps no nodes and its ops attach no
    backward closures: an inference pass that cannot be differentiated.
    """

    def __init__(self, grad: bool = True):
        self.nodes: list[TapeNode] | None = [] if grad else None
        self._next_id = 0

    @property
    def grad(self) -> bool:
        """Whether ops record backward closures: false once consumed."""
        return self.nodes is not None

    def _record(self, op_kind: str, value: np.ndarray, backward: Backward | None = None,
                param_name: str | None = None) -> TapeNode:
        """Wrap an op's output array in a new node and return it.

        ``value`` must be a contiguous float64 array of rank >= 1; it is
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
        t = values if isinstance(values, Tensor) else Tensor(values)
        return self._record("const", t.array)

    def leaf(self, param: Parameter) -> TapeNode:
        """Leaf bound to a named parameter; backward reports its gradient."""
        return self._record("param", param.tensor.array, param_name=param.name)

    def backward(self, root: TapeNode) -> dict[str, Tensor]:
        """Reverse sweep from a scalar root; consumes the tape.

        Returns one gradient tensor per parameter leaf on the tape; leaves
        that do not influence the root get zeros. Fan-out contributions
        accumulate. Forward values are left untouched. A non-finite root or
        gradient raises ``NonFiniteError``. Afterwards the tape holds no nodes
        and no node holds a gradient or a closure, so a second call raises.
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
        root.accumulate(np.ones(root.value.dims, dtype=np.float64))
        for node in reversed(nodes[: root.id + 1]):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)
            # every consumer of an interior node has run: its gradient is spent
            node.grad = node._backward = None
        grads: dict[str, np.ndarray] = {}
        for node in nodes:
            name = node.param_name
            if name is None:
                continue
            g = node.grad if node.grad is not None else np.zeros(node.value.dims)
            grads[name] = grads[name] + g if name in grads else g
        for node in nodes:
            node.grad = None
            node._backward = None
        return {name: Tensor.wrap(check_finite(g, f"gradient for parameter {name!r}"))
                for name, g in grads.items()}


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
        a.accumulate(g @ bv.T)
        b.accumulate(av.T @ g)

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
            b.accumulate(g.reshape(-1, bv.shape[0]).sum(axis=0))
        else:
            b.accumulate(g)

    return a.tape._record("add", av + bv, backward)


def scale(a: TapeNode, factor: float) -> TapeNode:
    factor = float(factor)

    def backward(g):
        a.accumulate(g * factor)

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
            x.accumulate(g * (xv > 0.0))
        elif kind == "sigmoid":
            x.accumulate(g * out * (1.0 - out))
        else:
            x.accumulate(g * (1.0 - out * out))

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
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis))
        elif kind == "mean":
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis) / extent)
        else:
            gx = np.zeros_like(xv)
            np.put_along_axis(gx, np.expand_dims(argmax, axis),
                              np.expand_dims(g, axis), axis=axis)
            x.accumulate(gx)

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

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros(xv.shape)
        part = x.grad[slicer]
        part += g.reshape(part.shape)

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
        # one pass over the flat (id x width + column) index: each cell sums
        # its rows in order from 0.0, the bits of np.add.at into zeros
        v, h = tv.shape
        flat = (idx[:, np.newaxis] * h + np.arange(h)).reshape(-1)
        table.accumulate(np.bincount(flat, weights=g.reshape(-1),
                                     minlength=v * h).reshape(v, h))

    return table.tape._record("embedding_lookup", tv[idx], backward)


def softmax(x: TapeNode) -> TapeNode:
    """Row-wise softmax of a rank-2 tensor."""
    xv = x.value.array
    if xv.ndim != 2:
        raise ShapeError(f"softmax needs rank-2 input, got dims {x.value.dims}")
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        x.accumulate(p * (g - dot))

    return x.tape._record("softmax", p, backward)


# ---------------------------------------------------------------------------
# convolution and recurrence
# ---------------------------------------------------------------------------

def conv1d(x: TapeNode, filters: TapeNode, bias: TapeNode, lengths: Sequence[int]) -> TapeNode:
    """Same-padded 1-d convolution of each row of a packed batch.

    ``x`` is [n x h]: the real tokens of every row back to back, row ``i``
    holding ``lengths[i]`` of them, so ``sum(lengths) == n``. ``filters`` is
    [w x h x f] with odd width w; ``bias`` is [f]. Each row is convolved on
    its own, with zeros past its two ends, and the output is [n x f] in the
    same packing. One buffer holds the rows with ``w // 2`` zero rows before,
    between and after them, so each tap is one product on a contiguous slice
    of it, forward and backward; only the outputs at the gaps are dropped.
    """
    fv = filters.value.array
    bv = bias.value.array
    if fv.ndim != 3:
        raise ShapeError(f"conv1d filters must be rank 3 [w x h x f], got {filters.value.dims}")
    w, h, f = fv.shape
    if w % 2 == 0:
        raise ConfigError(f"conv1d filter width must be odd, got {w}")
    if bv.shape != (f,):
        raise ShapeError(f"conv1d bias dims {bias.value.dims} do not match filter count {f}")
    xv = x.value.array
    if xv.ndim != 2 or xv.shape[1] != h:
        raise ShapeError(f"conv1d input dims {x.value.dims} incompatible with filters {filters.value.dims}")
    n = xv.shape[0]
    counts = np.asarray(lengths, dtype=np.int64)
    if counts.ndim != 1 or (counts < 0).any() or counts.sum() != n:
        raise ShapeError(f"conv1d row lengths {counts.tolist()} do not pack {n} positions")
    pad = w // 2
    # the tap products cover the rows and the gaps between them; in that span
    # row i's tokens follow i gaps, and in the buffer one more, the first
    span = n + pad * max(counts.size - 1, 0)
    real = np.arange(n) + pad * np.repeat(np.arange(counts.size), counts)
    xp = np.zeros((span + 2 * pad, h))
    xp[real + pad] = xv
    full = xp[:span] @ fv[0]
    for k in range(1, w):
        full += xp[k : k + span] @ fv[k]
    out = full[real] + bv

    def backward(g):
        gfull = np.zeros((span, f))
        gfull[real] = g
        gxp = np.zeros_like(xp)
        gf = np.empty_like(fv)
        for k in range(w):
            gxp[k : k + span] += gfull @ fv[k].T
            gf[k] = xp[k : k + span].T @ gfull
        x.accumulate(gxp[real + pad])
        filters.accumulate(gf)
        bias.accumulate(g.sum(axis=0))

    return x.tape._record("conv1d", out, backward)


def rnn_step(x_t: TapeNode, h_prev: TapeNode, w_in: TapeNode, w_rec: TapeNode,
             bias: TapeNode, rows: np.ndarray | slice | None = None) -> TapeNode:
    """One vanilla recurrent cell update, h_t = tanh(x_t W + h_prev U + b), as one op.

    ``rows``, an index array or a slice, selects the rows whose sequence is
    still running; every other row carries ``h_prev`` forward unchanged and
    passes its gradient straight back to it. A slice selects views, with no
    copies. With ``rows=None`` every row steps. The backward pass adds
    its contributions in the order the sweep reaches them in
    ``tanh(add(add(matmul, matmul), bias))``, so both have the same bits.
    """
    xv, hv = x_t.value.array, h_prev.value.array
    wv, uv, bv = w_in.value.array, w_rec.value.array, bias.value.array
    if xv.ndim != 2 or hv.ndim != 2 or wv.ndim != 2 or uv.ndim != 2:
        raise ShapeError(f"rnn_step needs rank-2 operands, got {x_t.value.dims}, "
                         f"{h_prev.value.dims}, {w_in.value.dims} and {w_rec.value.dims}")
    n = uv.shape[1]
    if (xv.shape[0] != hv.shape[0] or xv.shape[1] != wv.shape[0] or wv.shape[1] != n
            or uv.shape[0] != n or hv.shape[1] != n or bv.shape != (n,)):
        raise ShapeError(f"rnn_step dims mismatch: x {x_t.value.dims}, h {h_prev.value.dims}, "
                         f"w_in {w_in.value.dims}, w_rec {w_rec.value.dims}, "
                         f"bias {bias.value.dims}")
    xa, ha = (xv, hv) if rows is None else (xv[rows], hv[rows])
    active = np.tanh((xa @ wv + ha @ uv) + bv)
    out = active if rows is None else _into_rows(hv.copy(), rows, active)

    def backward(g):
        ga = (g if rows is None else g[rows]) * (1.0 - active * active) + 0.0
        bias.accumulate(ga.sum(axis=0))
        gh = ga @ uv.T
        h_prev.accumulate(gh if rows is None else _into_rows(g.copy(), rows, gh))
        w_rec.accumulate(ha.T @ ga)
        gx = ga @ wv.T
        x_t.accumulate(gx if rows is None else _into_rows(np.zeros(xv.shape), rows, gx))
        w_in.accumulate(xa.T @ ga)

    return x_t.tape._record("rnn_step", out, backward)


def _into_rows(base: np.ndarray, rows: np.ndarray | slice, part: np.ndarray) -> np.ndarray:
    """``base``, a fresh array, with ``part`` written into its ``rows``."""
    base[rows] = part
    return base


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
        node.rows = (np.zeros(0), np.zeros(0))
        return node
    shifted = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + lv.max(axis=1)
    terms = lse - lv[np.arange(b), ids]

    def backward(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), ids] -= 1.0
        logits.accumulate(g[0] * p * (1.0 / b))

    node = logits.tape._record("softmax_cross_entropy", np.array([terms.sum() / b]), backward)
    node.rows = (terms, np.ones(b))
    return node


def sigmoid_bce(logits: TapeNode, targets) -> TapeNode:
    """Mean binary cross entropy from logits against {0,1} targets.

    Accepts [b x k] logits with matching targets; the mean runs over all
    elements, so the [b x 1] single-output case is the plain batch mean.
    """
    lv = logits.value.array
    tv = np.asarray(targets, dtype=np.float64).reshape(lv.shape)
    n = lv.size
    # stable formulation: max(z,0) - z*t + log(1 + exp(-|z|))
    per = np.maximum(lv, 0.0) - lv * tv + np.log1p(np.exp(-np.abs(lv)))

    def backward(g):
        logits.accumulate(g[0] * (_stable_sigmoid(lv) - tv) / n)

    node = logits.tape._record("sigmoid_bce", np.array([per.sum() / n]), backward)
    node.rows = (per, np.ones(per.shape))
    return node


def mse(prediction: TapeNode, targets) -> TapeNode:
    """Mean squared error against same-shaped targets."""
    pv = prediction.value.array
    tv = np.asarray(targets, dtype=np.float64)
    if tv.shape != pv.shape:
        tv = tv.reshape(pv.shape)
    n = pv.size
    diff = pv - tv
    terms = diff * diff

    def backward(g):
        prediction.accumulate(g[0] * 2.0 * diff / n)

    node = prediction.tape._record("mse", np.array([terms.sum() / n]), backward)
    node.rows = (terms, np.ones(terms.shape))
    return node
