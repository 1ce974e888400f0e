"""Seeded generator: the vectorised fill and the shuffle are the scalar draw
loops, bit for bit."""

import pytest

from ecdkit.rng import Lcg

from oracles import lcg_shuffle_loop, lcg_uniform_loop


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (3, 5, 2), (1000, 64)])
def test_uniform_array_matches_scalar_loop(seed, shape):
    lo, hi = -0.37, 1.25
    reference_rng, rng = Lcg(seed), Lcg(seed)
    expected = lcg_uniform_loop(reference_rng, shape, lo, hi)
    got = rng.uniform_array(shape, lo, hi)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert rng.state == reference_rng.state



@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3000])
def test_shuffle_matches_scalar_fisher_yates(seed, n):
    reference_rng, rng = Lcg(seed), Lcg(seed)
    expected, got = list(range(n)), list(range(n))
    lcg_shuffle_loop(reference_rng, expected)
    rng.shuffle(got)
    assert got == expected
    assert rng.state == reference_rng.state
