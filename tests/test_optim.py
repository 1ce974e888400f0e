"""Optimizer updates against direct transcriptions of their recurrences."""

import numpy as np
import pytest

from ecdkit.autodiff import ParameterStore
from ecdkit.errors import ContractError, NonFiniteError
from ecdkit.optim import OptimizerState, optimizer_step

from oracles import adam_recurrence, optimizer_formula


def optimizer_state(kind, learning_rate=1e-2):
    """A state with the training section's default betas and epsilon."""
    return OptimizerState(kind, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8)


def store_with(name="w", value=1.0):
    store = ParameterStore()
    store.create(name, [value])
    return store


class TestSgd:

    def test_single_step_formula(self):
        store = store_with(value=1.0)
        state = optimizer_state("sgd", learning_rate=0.1)
        optimizer_step(state, store, {"w": np.array([0.5])})
        assert abs(store["w"].value.item() - 0.95) < 1e-15

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = store_with(value=3.25)
        state = optimizer_state("sgd")
        optimizer_step(state, store, {"w": np.array([0.0])})
        assert store["w"].value.item() == 3.25

    def test_step_count_increments_by_one(self):
        store = store_with()
        state = optimizer_state("sgd")
        for expected in (1, 2, 3):
            optimizer_step(state, store, {"w": np.array([0.1])})
            assert state.step_count == expected


class TestAdam:

    def test_first_step_magnitude_close_to_learning_rate(self):
        store = store_with(value=1.0)
        state = optimizer_state("adam", learning_rate=1e-3)
        optimizer_step(state, store, {"w": np.array([0.7])})
        delta = 1.0 - store["w"].value.item()
        # first bias-corrected step is lr up to the epsilon correction
        assert abs(delta - 1e-3) < 1e-6

    def test_matches_recurrence_oracle_over_many_steps(self):
        grads = list(np.random.default_rng(3).normal(size=25))
        store = store_with(value=0.5)
        state = optimizer_state("adam", learning_rate=0.01)
        for g in grads:
            optimizer_step(state, store, {"w": np.array([g])})
        expected = adam_recurrence(0.5, grads, 0.01, state.beta1, state.beta2, state.epsilon)
        assert abs(store["w"].value.item() - expected) < 1e-12

    def test_moment_dims_match_parameter_dims(self):
        store = ParameterStore()
        store.create("m", np.zeros((3, 4)))
        state = optimizer_state("adam")
        optimizer_step(state, store, {"m": np.ones((3, 4))})
        assert state.first_moment["m"].shape == (3, 4)
        assert state.second_moment["m"].shape == (3, 4)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_in_place_update_is_bit_equal_to_the_formula(kind):
    r = np.random.default_rng(5)
    w0 = r.normal(size=(1000, 64))
    grads = [r.normal(size=(1000, 64)) * 10.0 ** r.integers(-6, 3) for _ in range(5)]
    store = ParameterStore()
    store.create("w", w0)
    state = optimizer_state(kind, learning_rate=0.03)
    for g in grads:
        optimizer_step(state, store, {"w": g})
    w, m, v = optimizer_formula(kind, w0, grads, 0.03, state.beta1, state.beta2,
                                state.epsilon)
    assert store["w"].value.tobytes() == w.tobytes()
    if kind == "adam":
        assert state.first_moment["w"].tobytes() == m.tobytes()
        assert state.second_moment["w"].tobytes() == v.tobytes()
    else:
        assert state.first_moment == {} and state.second_moment == {}


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_non_finite_update_raises_before_the_weights_change(kind):
    store = store_with(value=1.0)
    before = store["w"].value
    state = optimizer_state(kind, learning_rate=1e308)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        optimizer_step(state, store, {"w": np.array([10.0])})
    assert store["w"].value is before and before.tolist() == [1.0]


class TestContracts:

    def test_missing_gradient_for_trainable_parameter(self):
        store = store_with()
        with pytest.raises(ContractError, match="w"):
            optimizer_step(optimizer_state("sgd"), store, {})

    def test_gradient_shape_mismatch(self):
        store = store_with()
        with pytest.raises(ContractError):
            optimizer_step(optimizer_state("sgd"), store, {"w": np.zeros((2, 2))})


def test_determinism_identical_inputs_identical_outputs():
    def run():
        store = ParameterStore()
        store.create("w", np.linspace(-1, 1, 6).reshape(2, 3))
        state = optimizer_state("adam", learning_rate=0.05)
        grads = {"w": np.arange(6, dtype=float).reshape(2, 3)}
        for _ in range(10):
            optimizer_step(state, store, grads)
        return store["w"].value

    first, second = run(), run()
    np.testing.assert_array_equal(first, second)
