"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, no shared code with the package) so that agreement between the
two paths is meaningful evidence of correctness.
"""

from __future__ import annotations

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
