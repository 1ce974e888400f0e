"""Seeded 64-bit linear PRNG.

All randomness in the toolkit (weight initialization, dataset splits, batch
shuffles) flows through this generator so that a single seed makes an entire
run reproducible bit-for-bit across platforms. The generator is a 64-bit
linear congruential generator with Knuth's MMIX constants; sub-streams are
derived from the base seed with a splitmix64 finalizer so that, say, the
split shuffle and the weight initializer never share state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407


def mix_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit sub-seed from (seed, salt)."""
    z = (seed ^ (salt * 0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# Salts for the toolkit's named randomness streams.
SALT_INIT = 0x01
SALT_SPLIT = 0x02
SALT_EPOCH = 0x03


class Lcg:
    """64-bit linear congruential generator, MMIX constants."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # top 53 bits -> double in [0, 1)
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u / float(1 << 53))

    def uniform_array(self, shape: tuple[int, ...], lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Successive ``uniform`` draws in one numpy pass, bit-identical.

        Draw k (0-based) comes from state ``mult[k]*s + inc[k]`` (mod 2^64),
        s being the state before the call; the jump-ahead tables are built
        by doubling, and uint64 arrays wrap silently.
        """
        n = int(np.prod(shape))
        if n == 0:
            return np.empty(shape, dtype=np.float64)
        mult = np.full(n, _LCG_MULT, dtype=np.uint64)
        inc = np.full(n, _LCG_INC, dtype=np.uint64)
        done = 1
        while done < n:
            k = min(done, n - done)
            # draw done+j is j+1 steps on from draw done-1
            mult[done : done + k] = mult[:k] * mult[done - 1 : done]
            inc[done : done + k] = mult[:k] * inc[done - 1 : done] + inc[:k]
            done += k
        states = mult * np.array([self.state], dtype=np.uint64) + inc
        self.state = int(states[-1])
        u = (states >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return (lo + (hi - lo) * u).reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        return int(self.uniform() * n) % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def glorot_uniform(rng: Lcg, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    """Weight initializer: uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_array(shape, -limit, limit)
