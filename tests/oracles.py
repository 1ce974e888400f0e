"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, no shared code with the package) so that agreement between the
two paths is meaningful evidence of correctness.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def conv1d_sliding_window(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded 1-d convolution, one output position at a time."""
    s, h = x.shape
    w, h2, f = filters.shape
    assert h == h2 and w % 2 == 1
    pad = w // 2
    out = np.zeros((s, f))
    for t in range(s):
        for j in range(f):
            acc = bias[j]
            for k in range(w):
                src = t + k - pad
                if 0 <= src < s:
                    for c in range(h):
                        acc += x[src, c] * filters[k, c, j]
            out[t, j] = acc
    return out


def rnn_step_scalar_loop(x, h_prev, w_in, w_rec, bias) -> np.ndarray:
    b, n_in = x.shape
    n = h_prev.shape[1]
    out = np.zeros((b, n))
    for row in range(b):
        for j in range(n):
            acc = bias[j]
            for i in range(n_in):
                acc += x[row, i] * w_in[i, j]
            for i in range(n):
                acc += h_prev[row, i] * w_rec[i, j]
            out[row, j] = math.tanh(acc)
    return out


def cross_entropy_logsumexp(logits: np.ndarray, ids) -> float:
    total = 0.0
    for row, target in zip(logits, ids):
        lse = math.log(sum(math.exp(v) for v in row))
        total += lse - row[int(target)]
    return total / len(ids)


def sequential_fold_sum(values) -> float:
    acc = 0.0
    for v in values:
        acc = acc + v
    return acc


def adam_recurrence(w0: float, grads: list[float], lr: float, beta1: float,
                    beta2: float, eps: float) -> float:
    """Direct transcription of the bias-corrected Adam update."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


def optimizer_formula(kind: str, w: np.ndarray, grads: list, lr: float, beta1: float,
                      beta2: float, eps: float):
    """Weights, first and second moments after one step per gradient.

    Whole-array expressions, one new array per operation: the reference the
    in-place update must match bit for bit.
    """
    m, v = np.zeros_like(w), np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        if kind == "sgd":
            w = w - lr * g
        else:
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w, m, v


def select_grad_dense(shape: tuple, picks: list, grads: list, first=None) -> np.ndarray:
    """Gradient reaching ``x`` from nodes ``select(x, axis, index)``, the dense way.

    ``picks[k]`` is node k's ``(axis, index)`` and ``grads[k]`` its gradient;
    a reverse sweep visits the nodes last to first. Each contribution is a
    whole zero array with one slice set, added to a zero buffer after
    ``first``, a contribution from a consumer the sweep visits earlier.
    """
    contributions = [] if first is None else [first]
    for (axis, index), g in reversed(list(zip(picks, grads))):
        gx = np.zeros(shape)
        slicer = [slice(None)] * len(shape)
        slicer[axis] = index
        gx[tuple(slicer)] = g.reshape(gx[tuple(slicer)].shape)
        contributions.append(gx)
    total = np.zeros(shape)
    for c in contributions:
        total += c
    return total


def embedding_grad_add_at(vocab: int, ids: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient reaching a [vocab x width] table from the rows ``table[ids]``:
    ``np.add.at`` of each gradient row into a zero table, in row order."""
    table = np.zeros((vocab, grad.shape[1]))
    np.add.at(table, np.asarray(ids, dtype=np.int64), grad)
    return table


def topological_orders_brute_force(n: int, edges: set[tuple[int, int]]):
    """All permutations of range(n) that respect every edge (u before v)."""
    import itertools

    valid = []
    for perm in itertools.permutations(range(n)):
        position = {node: i for i, node in enumerate(perm)}
        if all(position[u] < position[v] for u, v in edges):
            valid.append(perm)
    return valid


def finite_difference_grad(fn, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        bumped = values.copy()
        bumped.flat[i] += h
        up = fn(bumped)
        bumped.flat[i] -= 2 * h
        down = fn(bumped)
        grad.flat[i] = (up - down) / (2 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def lcg_uniform_loop(rng, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
    """``Lcg.uniform_array`` drawn one scalar ``uniform`` at a time."""
    out = np.empty(int(np.prod(shape)), dtype=np.float64)
    for i in range(out.size):
        out[i] = rng.uniform(lo, hi)
    return out.reshape(shape)


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64, the trailer digest of version-1 cache and weights files."""
    state = 0xCBF29CE484222325
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return state


def as_version_1(container: bytes) -> bytes:
    """A cache or weights file re-signed as version 1.

    Only the version field (bytes 4-5) and the FNV-1a trailer are rewritten.
    Version-1 weights had the current records; version-1 caches also had a
    dtype byte per record, which does not matter here because readers reject
    the version before parsing any record.
    """
    body = bytearray(container[:-8])
    body[4:6] = (1).to_bytes(2, "little")
    return bytes(body) + fnv1a_64(bytes(body)).to_bytes(8, "little")


def as_version_2(container: bytes) -> bytes:
    """A cache or weights file re-signed as its last BLAKE2b-64 version:
    weights version 2 (magic ``ECDW``) or cache version 3 (magic ``ECDC``).

    Those versions had the current records; only the version field (bytes
    4-5) and the trailer, BLAKE2b-64 of the body read little-endian, are
    rewritten.
    """
    body = bytearray(container[:-8])
    body[4:6] = {b"ECDW": 2, b"ECDC": 3}[bytes(body[:4])].to_bytes(2, "little")
    return bytes(body) + hashlib.blake2b(bytes(body), digest_size=8).digest()


# ---------------------------------------------------------------------------
# string-space scoring: the reference for ``features.compute_metric``
# ---------------------------------------------------------------------------

BINARY_TRUE = ("true", "1", "t", "yes")


def string_truths(cells: list[str], ftype: str, lowercase: bool = False,
                  max_len: int | None = None) -> list:
    """Target cells as the strings scoring once compared: a binary cell as
    ``true`` or ``false``, a category cell as itself, a set cell as its
    tokens, a sequence cell as its first ``max_len`` tokens. No cell may be
    missing."""
    truths = []
    for cell in cells:
        if ftype == "binary":
            truths.append("true" if cell.strip().lower() in BINARY_TRUE else "false")
            continue
        cell = cell.lower() if lowercase else cell
        if ftype == "category":
            truths.append(cell)
        elif ftype == "set":
            truths.append(cell.split())
        else:
            truths.append(cell.split()[:max_len])
    return truths


def string_predictions(preds: np.ndarray, ftype: str, id2token: list[str],
                       lengths=None) -> list:
    """Prediction arrays as strings, one entry at a time: a binary ``true``
    at >= 0.5, a category's most probable token (the lowest id on ties), a
    set's tokens at >= 0.5, and a tagger row's most probable tag at each of
    its first ``lengths[i]`` positions, trailing ``<PAD>`` tags dropped."""

    def best(row):
        top = 0
        for j in range(len(row)):
            if row[j] > row[top]:
                top = j
        return top

    rows = []
    for i, row in enumerate(preds):
        if ftype == "binary":
            rows.append("true" if row[0] >= 0.5 else "false")
        elif ftype == "category":
            rows.append(id2token[best(row)])
        elif ftype == "set":
            rows.append([id2token[j] for j in range(len(row)) if row[j] >= 0.5])
        else:
            tags = [id2token[best(row[t])] for t in range(lengths[i])]
            while tags and tags[-1] == "<PAD>":
                tags.pop()
            rows.append(tags)
    return rows


def set_multi_hot_rows(token_rows: list[list[str]], id2token: list[str]) -> np.ndarray:
    """A set column's multi-hot, one row and one token at a time: a token
    outside the vocabulary sets ``<UNK>``'s column, a repeated one sets its
    column once, and a row without tokens stays all zeros."""
    hot = np.zeros((len(token_rows), len(id2token)))
    for i, row in enumerate(token_rows):
        for tok in row:
            hot[i, id2token.index(tok) if tok in id2token else id2token.index("<UNK>")] = 1.0
    return hot


def string_metric(kind: str, truths: list, preds: list) -> float:
    """A metric over string truths and predictions; ``cross_entropy`` takes
    class ids and probability rows instead."""
    if kind == "accuracy":
        return sum(1.0 for t, p in zip(truths, preds) if t == p) / len(truths)
    if kind == "cross_entropy":
        total = 0.0
        for t, probs in zip(truths, preds):
            total += -math.log(max(float(probs[int(t)]), 1e-12))
        return total / len(truths)
    if kind == "token_accuracy":
        correct = total = 0
        for truth_row, pred_row in zip(truths, preds):
            total += len(truth_row)
            for i, tok in enumerate(truth_row):
                if i < len(pred_row) and pred_row[i] == tok:
                    correct += 1
        return correct / total if total else 0.0
    if kind == "jaccard":
        score = 0.0
        for truth_row, pred_row in zip(truths, preds):
            ts, ps = set(truth_row), set(pred_row)
            union = ts | ps
            score += (len(ts & ps) / len(union)) if union else 1.0
        return score / len(truths)
    raise ValueError(f"no string-space metric {kind!r}")
