"""Reverse-mode automatic differentiation over dense tensors.

Every trainable computation in the toolkit is expressed as operations on a
``Tape``. Each operation appends a ``TapeNode`` holding the forward value and
a closure that scatters gradient contributions back to the node's parents;
``Tape.backward`` replays those closures in reverse id order and returns one
gradient per named parameter. Node ids grow monotonically, so the tape is
topologically ordered by construction and a single reverse sweep suffices.

Forward values are never mutated by a backward pass; gradients live in a
separate per-node buffer that is lazily allocated.
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
from .tensor import Tensor

UNARY_KINDS = ("relu", "sigmoid", "tanh")
REDUCE_KINDS = ("sum", "mean", "max")


@dataclass
class Parameter:
    """Named trainable tensor. Names are dot-separated paths."""

    name: str
    tensor: Tensor
    trainable: bool = True

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

    def create(self, name: str, values, trainable: bool = True) -> Parameter:
        return self.add(Parameter(name, Tensor(values), trainable))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

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
        for name, values in snapshot.items():
            self._params[name].tensor = Tensor(values.copy())


class TapeNode:
    """One recorded operation: forward value plus backward bookkeeping."""

    __slots__ = ("id", "op_kind", "parent_ids", "value", "grad", "param_name", "_backward", "tape")

    def __init__(self, tape: "Tape", node_id: int, op_kind: str,
                 parent_ids: tuple[int, ...], value: Tensor,
                 backward: Callable[[], None] | None = None,
                 param_name: str | None = None):
        self.tape = tape
        self.id = node_id
        self.op_kind = op_kind
        self.parent_ids = parent_ids
        self.value = value
        self.grad: np.ndarray | None = None
        self.param_name = param_name
        self._backward = backward

    def accumulate(self, contribution: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros(self.value.dims, dtype=np.float64)
        self.grad += contribution

    # Operator sugar used throughout the model graph.
    def __matmul__(self, other: "TapeNode") -> "TapeNode":
        return matmul(self, other)

    def __add__(self, other: "TapeNode") -> "TapeNode":
        return add(self, other)

    def __mul__(self, scalar: float) -> "TapeNode":
        return scale(self, scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TapeNode(id={self.id}, op={self.op_kind}, dims={self.value.dims})"


class Tape:
    """Append-only record of operations for one forward pass."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _record(self, op_kind: str, parents: Sequence[TapeNode], value: Tensor,
                backward: Callable[[], None] | None, param_name: str | None = None) -> TapeNode:
        node = TapeNode(self, len(self.nodes), op_kind,
                        tuple(p.id for p in parents), value, backward, param_name)
        self.nodes.append(node)
        return node

    def constant(self, values) -> TapeNode:
        """Leaf holding a value with no gradient of interest."""
        t = values if isinstance(values, Tensor) else Tensor(values)
        return self._record("const", (), t, None)

    def leaf(self, param: Parameter) -> TapeNode:
        """Leaf bound to a named parameter; backward reports its gradient."""
        return self._record("param", (), param.tensor, None, param_name=param.name)

    def backward(self, root: TapeNode) -> dict[str, Tensor]:
        """Reverse sweep from a scalar root.

        Returns one gradient tensor per parameter leaf on the tape; leaves
        that do not influence the root get zeros. Fan-out contributions
        accumulate. Forward values are left untouched.
        """
        if root.tape is not self:
            raise ContractError("root node belongs to a different tape")
        if root.value.array.size != 1:
            raise ContractError(f"backward root must be scalar, got dims {root.value.dims}")
        root.accumulate(np.ones(root.value.dims, dtype=np.float64))
        for node in reversed(self.nodes[: root.id + 1]):
            if node.grad is None or node._backward is None:
                continue
            node._backward()
        grads: dict[str, Tensor] = {}
        for node in self.nodes:
            if node.param_name is None:
                continue
            g = node.grad if node.grad is not None else np.zeros(node.value.dims)
            if node.param_name in grads:
                grads[node.param_name] = Tensor(grads[node.param_name].array + g)
            else:
                grads[node.param_name] = Tensor(g.copy())
        for node in self.nodes:
            node.grad = None
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
    out = Tensor(av @ bv)
    node = a.tape._record("matmul", (a, b), out, None)

    def backward():
        g = node.grad
        a.accumulate(g @ bv.T)
        b.accumulate(av.T @ g)

    node._backward = backward
    return node


def add(a: TapeNode, b: TapeNode) -> TapeNode:
    """Elementwise sum; also accepts a rank-1 bias broadcast over rows."""
    av, bv = a.value.array, b.value.array
    if av.shape == bv.shape:
        broadcast = False
    elif av.ndim >= 2 and bv.shape == (av.shape[-1],):
        broadcast = True
    else:
        raise ShapeError(f"add dims mismatch: {a.value.dims} vs {b.value.dims}")
    out = Tensor(av + bv)
    node = a.tape._record("add", (a, b), out, None)

    def backward():
        g = node.grad
        a.accumulate(g)
        if broadcast:
            b.accumulate(g.reshape(-1, bv.shape[0]).sum(axis=0))
        else:
            b.accumulate(g)

    node._backward = backward
    return node


def scale(a: TapeNode, factor: float) -> TapeNode:
    factor = float(factor)
    out = Tensor(a.value.array * factor)
    node = a.tape._record("scale", (a,), out, None)

    def backward():
        a.accumulate(node.grad * factor)

    node._backward = backward
    return node


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
    node = x.tape._record(kind, (x,), Tensor(out), None)

    def backward():
        g = node.grad
        if kind == "relu":
            x.accumulate(g * (xv > 0.0))
        elif kind == "sigmoid":
            x.accumulate(g * out * (1.0 - out))
        else:
            x.accumulate(g * (1.0 - out * out))

    node._backward = backward
    return node


def relu(x: TapeNode) -> TapeNode:
    return apply_unary("relu", x)


def sigmoid(x: TapeNode) -> TapeNode:
    return apply_unary("sigmoid", x)


def tanh(x: TapeNode) -> TapeNode:
    return apply_unary("tanh", x)


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
        argmax = np.argmax(xv, axis=axis)
    if out.ndim == 0:
        out = out.reshape(1)
    node = x.tape._record(f"reduce_{kind}", (x,), Tensor(out), None)

    def backward():
        g = node.grad.reshape(reduced_shape)
        if kind == "sum":
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis))
        elif kind == "mean":
            x.accumulate(np.repeat(np.expand_dims(g, axis), extent, axis=axis) / extent)
        else:
            gx = np.zeros_like(xv)
            np.put_along_axis(gx, np.expand_dims(argmax, axis),
                              np.expand_dims(g, axis), axis=axis)
            x.accumulate(gx)

    node._backward = backward
    return node


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
    out = Tensor(np.concatenate(arrays, axis=axis))
    node = parts[0].tape._record("concat", tuple(parts), out, None)
    widths = [a.shape[axis] for a in arrays]

    def backward():
        g = node.grad
        offset = 0
        for part, width in zip(parts, widths):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + width)
            part.accumulate(g[tuple(index)])
            offset += width

    node._backward = backward
    return node


def reshape(x: TapeNode, dims: Sequence[int]) -> TapeNode:
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != x.value.array.size:
        raise ShapeError(f"cannot reshape {x.value.dims} into {dims}")
    node = x.tape._record("reshape", (x,), Tensor(x.value.array.reshape(dims)), None)

    def backward():
        x.accumulate(node.grad.reshape(x.value.dims))

    node._backward = backward
    return node


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
    node = x.tape._record("select", (x,), Tensor(out), None)

    def backward():
        gx = np.zeros_like(xv)
        slicer = [slice(None)] * xv.ndim
        slicer[axis] = index
        gx[tuple(slicer)] = node.grad.reshape(gx[tuple(slicer)].shape)
        x.accumulate(gx)

    node._backward = backward
    return node


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
    node = table.tape._record("embedding_lookup", (table,), Tensor(tv[idx]), None)

    def backward():
        gt = np.zeros_like(tv)
        np.add.at(gt, idx, node.grad)
        table.accumulate(gt)

    node._backward = backward
    return node


def softmax(x: TapeNode) -> TapeNode:
    """Row-wise softmax of a rank-2 tensor."""
    xv = x.value.array
    if xv.ndim != 2:
        raise ShapeError(f"softmax needs rank-2 input, got dims {x.value.dims}")
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    node = x.tape._record("softmax", (x,), Tensor(p), None)

    def backward():
        g = node.grad
        dot = (g * p).sum(axis=1, keepdims=True)
        x.accumulate(p * (g - dot))

    node._backward = backward
    return node


# ---------------------------------------------------------------------------
# convolution and recurrence
# ---------------------------------------------------------------------------

def conv1d(x: TapeNode, filters: TapeNode, bias: TapeNode) -> TapeNode:
    """Same-padded 1-d convolution over the time axis.

    ``x`` is [s x h] or batched [b x s x h]; ``filters`` is [w x h x f] with
    odd width w; ``bias`` is [f]. Output matches the input's time extent.
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
    squeeze = xv.ndim == 2
    x3 = xv[np.newaxis] if squeeze else xv
    if x3.ndim != 3 or x3.shape[2] != h:
        raise ShapeError(f"conv1d input dims {x.value.dims} incompatible with filters {filters.value.dims}")
    b, s, _ = x3.shape
    pad = w // 2
    xpad = np.zeros((b, s + 2 * pad, h))
    xpad[:, pad : pad + s, :] = x3
    out = np.broadcast_to(bv, (b, s, f)).copy()
    for k in range(w):
        window = xpad[:, k : k + s, :]
        out += (window.reshape(b * s, h) @ fv[k]).reshape(b, s, f)
    value = Tensor(out[0] if squeeze else out)
    node = x.tape._record("conv1d", (x, filters, bias), value, None)

    def backward():
        g = node.grad
        g3 = g[np.newaxis] if squeeze else g
        gxpad = np.zeros_like(xpad)
        gf = np.zeros_like(fv)
        for k in range(w):
            window = xpad[:, k : k + s, :]
            gxpad[:, k : k + s, :] += (g3.reshape(b * s, f) @ fv[k].T).reshape(b, s, h)
            gf[k] = window.reshape(b * s, h).T @ g3.reshape(b * s, f)
        gx = gxpad[:, pad : pad + s, :]
        x.accumulate(gx[0] if squeeze else gx)
        filters.accumulate(gf)
        bias.accumulate(g3.sum(axis=(0, 1)))

    node._backward = backward
    return node


def rnn_step(x_t: TapeNode, h_prev: TapeNode, w_in: TapeNode, w_rec: TapeNode,
             bias: TapeNode) -> TapeNode:
    """One vanilla recurrent cell update: h_t = tanh(x_t W + h_prev U + b)."""
    return tanh(add(add(matmul(x_t, w_in), matmul(h_prev, w_rec)), bias))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: TapeNode, target_ids: Sequence[int],
                          weights: np.ndarray | None = None) -> TapeNode:
    """Mean cross entropy of row-wise softmax against integer class ids.

    ``weights`` optionally masks / reweights rows; the result is the
    weight-normalized mean, which reduces to the batch mean when absent.
    """
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
    if weights is None:
        wts = np.ones(b)
    else:
        wts = np.asarray(weights, dtype=np.float64).reshape(-1)
        if wts.shape[0] != b:
            raise ShapeError("cross entropy weights length mismatch")
    total = wts.sum()
    if total <= 0:
        # nothing to score; a constant zero keeps the graph well-defined
        return logits.tape.constant([0.0])
    shifted = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + lv.max(axis=1)
    per_row = lse - lv[np.arange(b), ids]
    value = Tensor([float((per_row * wts).sum() / total)])
    node = logits.tape._record("softmax_cross_entropy", (logits,), value, None)

    def backward():
        g = node.grad[0]
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), ids] -= 1.0
        logits.accumulate(g * p * (wts / total)[:, np.newaxis])

    node._backward = backward
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
    value = Tensor([float(per.sum() / n)])
    node = logits.tape._record("sigmoid_bce", (logits,), value, None)

    def backward():
        g = node.grad[0]
        logits.accumulate(g * (_stable_sigmoid(lv) - tv) / n)

    node._backward = backward
    return node


def mse(prediction: TapeNode, targets) -> TapeNode:
    """Mean squared error against same-shaped targets."""
    pv = prediction.value.array
    tv = np.asarray(targets, dtype=np.float64)
    if tv.shape != pv.shape:
        tv = tv.reshape(pv.shape)
    n = pv.size
    diff = pv - tv
    value = Tensor([float((diff * diff).sum() / n)])
    node = prediction.tape._record("mse", (prediction,), value, None)

    def backward():
        prediction.accumulate(node.grad[0] * 2.0 * diff / n)

    node._backward = backward
    return node
