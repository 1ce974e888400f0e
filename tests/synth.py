"""Synthetic dataset builders with known ground-truth structure."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def write_rows(path: Path, header: list[str], rows: list[list]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def linear_binary(path: Path, n: int = 500, seed: int = 0) -> Path:
    """Four numerical inputs; label = 1 iff a fixed linear score is positive.

    The decision margin is bounded away from zero, so the classes are
    strictly linearly separable.
    """
    rng = np.random.default_rng(seed)
    weights = np.array([1.5, -2.0, 0.7, 1.1])
    rows = []
    while len(rows) < n:
        x = rng.uniform(-1, 1, size=4)
        score = float(weights @ x)
        if abs(score) < 0.15:
            continue  # enforce a margin
        rows.append([repr(float(v)) for v in x] + ["true" if score > 0 else "false"])
    return write_rows(path, ["f0", "f1", "f2", "f3", "label"], rows)


def keyword_text(path: Path, n: int = 1000, seed: int = 0, keyword: str = "quartz") -> Path:
    """Text rows; class depends only on whether the keyword appears."""
    rng = np.random.default_rng(seed)
    filler = ["alpha", "brave", "cedar", "delta", "ember", "frost", "grove", "heron"]
    rows = []
    for i in range(n):
        length = int(rng.integers(4, 9))
        words = [filler[int(rng.integers(len(filler)))] for _ in range(length)]
        if i % 2 == 0:
            words[int(rng.integers(length))] = keyword
            label = "hit"
        else:
            label = "miss"
        rows.append([" ".join(words), label])
    return write_rows(path, ["text", "label"], rows)


TAG_RULE = {"red": "color", "green": "color", "blue": "color",
            "dog": "animal", "cat": "animal", "owl": "animal"}


def token_tagging(path: Path, n: int = 300, seed: int = 0,
                  lengths: tuple[int, int] = (3, 8)) -> Path:
    """Token sequences where each token's tag is a fixed function of it; a
    row's length is drawn from [lengths[0], lengths[1])."""
    rng = np.random.default_rng(seed)
    vocab = list(TAG_RULE)
    rows = []
    for _ in range(n):
        length = int(rng.integers(*lengths))
        tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(length)]
        tags = [TAG_RULE[t] for t in tokens]
        rows.append([" ".join(tokens), " ".join(tags)])
    return write_rows(path, ["tokens", "tags"], rows)


def quadrant_xor(path: Path, n: int = 600, seed: int = 0) -> Path:
    """Two numerical inputs; `quadrant` is linearly decodable from them but
    `same_sign` (the XOR of the coordinate signs) is not. `same_sign` is an
    exact function of `quadrant`, so a dependency edge carries the answer.
    """
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        x1, x2 = (float(v) for v in rng.uniform(-1, 1, size=2))
        if abs(x1) < 0.1 or abs(x2) < 0.1:
            continue  # margin around the axes
        quadrant = f"q{int(x1 < 0) * 2 + int(x2 < 0)}"
        same_sign = "true" if (x1 > 0) == (x2 > 0) else "false"
        rows.append([repr(x1), repr(x2), quadrant, same_sign])
    return write_rows(path, ["x1", "x2", "quadrant", "same_sign"], rows)


def logistic_regression_accuracy(xs: np.ndarray, ys: np.ndarray,
                                 steps: int = 400, lr: float = 0.5) -> float:
    """Hand-rolled logistic regression; returns its training accuracy.

    Used as an independent check that a dataset really is (close to)
    linearly separable before a model is expected to fit it.
    """
    w = np.zeros(xs.shape[1])
    b = 0.0
    for _ in range(steps):
        z = xs @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = xs.T @ (p - ys) / len(ys)
        grad_b = float(np.mean(p - ys))
        w -= lr * grad_w
        b -= lr * grad_b
    predictions = (xs @ w + b) > 0
    return float(np.mean(predictions == (ys > 0.5)))
