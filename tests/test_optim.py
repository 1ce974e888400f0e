"""Optimizer updates against direct transcriptions of their recurrences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit.autodiff import ParameterStore
from ecdkit.errors import ContractError, NonFiniteError
from ecdkit.optim import OptimizerState, optimizer_step

from oracles import adam_recurrence, optimizer_formula, per_parameter_step


def optimizer_state(kind, learning_rate=1e-2):
    """A state with the training section's default betas and epsilon."""
    return OptimizerState(kind, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8)


def packed(dtype=np.float64, **values):
    """A packed store holding one parameter per keyword: float64, to match
    the float64 oracles, unless ``dtype`` says otherwise."""
    store = ParameterStore(dtype)
    for name, value in values.items():
        store.create(name, value)
    store.pack()
    return store


def store_with(name="w", value=1.0):
    return packed(**{name: [value]})


def step(state, store, grads):
    """One optimizer step from ``grads``, written into the gradient buffer."""
    store.grads.fill(0.0)
    for name, g in grads.items():
        store[name].grad[...] = g
    optimizer_step(state, store)


class TestSgd:

    def test_single_step_formula(self):
        store = store_with(value=1.0)
        state = optimizer_state("sgd", learning_rate=0.1)
        step(state, store, {"w": np.array([0.5])})
        assert abs(store["w"].value.item() - 0.95) < 1e-15

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = store_with(value=3.25)
        state = optimizer_state("sgd")
        step(state, store, {"w": np.array([0.0])})
        assert store["w"].value.item() == 3.25

    def test_step_count_increments_by_one(self):
        store = store_with()
        state = optimizer_state("sgd")
        for expected in (1, 2, 3):
            step(state, store, {"w": np.array([0.1])})
            assert state.step_count == expected


class TestAdam:

    def test_first_step_magnitude_close_to_learning_rate(self):
        store = store_with(value=1.0)
        state = optimizer_state("adam", learning_rate=1e-3)
        step(state, store, {"w": np.array([0.7])})
        delta = 1.0 - store["w"].value.item()
        # first bias-corrected step is lr up to the epsilon correction
        assert abs(delta - 1e-3) < 1e-6

    def test_matches_recurrence_oracle_over_many_steps(self):
        grads = list(np.random.default_rng(3).normal(size=25))
        store = store_with(value=0.5)
        state = optimizer_state("adam", learning_rate=0.01)
        for g in grads:
            step(state, store, {"w": np.array([g])})
        expected = adam_recurrence(0.5, grads, 0.01, state.beta1, state.beta2, state.epsilon)
        assert abs(store["w"].value.item() - expected) < 1e-12

    def test_moment_dims_match_parameter_dims(self):
        # the moments are laid out like the weight buffer
        store = packed(m=np.zeros((3, 4)))
        state = optimizer_state("adam")
        step(state, store, {"m": np.ones((3, 4))})
        assert state.first_moment.shape == store.weights.shape == (12,)
        assert state.second_moment.shape == (12,)
        assert store["m"].value.shape == (3, 4)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_in_place_update_is_bit_equal_to_the_formula(kind):
    """In float64 and in float32, a model's dtype: the update computes in
    the store's dtype, with no upcast on the way."""
    for dtype in (np.float64, np.float32):
        r = np.random.default_rng(5)
        w0 = r.normal(size=(1000, 64)).astype(dtype)
        grads = [(r.normal(size=(1000, 64)) * 10.0 ** r.integers(-6, 3)).astype(dtype)
                 for _ in range(5)]
        store = packed(dtype, w=w0)
        state = optimizer_state(kind, learning_rate=0.03)
        for g in grads:
            step(state, store, {"w": g})
        w, m, v = optimizer_formula(kind, w0, grads, 0.03, state.beta1, state.beta2,
                                    state.epsilon)
        assert w.dtype == dtype and store["w"].value.tobytes() == w.tobytes()
        if kind == "adam":
            assert state.first_moment.tobytes() == m.tobytes()
            assert state.second_moment.tobytes() == v.tobytes()
        else:
            assert state.first_moment is None and state.second_moment is None


SHAPES = st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
                  min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["sgd", "adam"]), shapes=SHAPES, steps=st.integers(1, 6),
       scales=st.lists(st.integers(-6, 3), min_size=6, max_size=6),
       seed=st.integers(0, 2**16))
def test_packed_step_is_bit_equal_to_the_per_parameter_loop(kind, shapes, steps, scales, seed):
    r = np.random.default_rng(seed)
    weights = {f"p{i}": r.normal(size=shape) for i, shape in enumerate(shapes)}
    store = packed(**weights)
    state = optimizer_state(kind, learning_rate=0.03)
    first, second = {}, {}
    for t in range(1, steps + 1):
        grads = {name: r.normal(size=w.shape) * 10.0 ** scales[t - 1]
                 for name, w in weights.items()}
        step(state, store, grads)
        weights = per_parameter_step(kind, 0.03, state.beta1, state.beta2, state.epsilon, t,
                                     weights, grads, first, second)
    for name, w in weights.items():
        assert store[name].value.tobytes() == w.tobytes()
    if kind == "adam":  # the moment buffers hold each parameter's in store order
        assert state.first_moment.tobytes() == b"".join(m.tobytes() for m in first.values())
        assert state.second_moment.tobytes() == b"".join(v.tobytes() for v in second.values())


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_non_finite_update_raises_before_the_weights_change(kind):
    store = store_with(value=1.0)
    before = store["w"].value
    state = optimizer_state(kind, learning_rate=1e308)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        step(state, store, {"w": np.array([10.0])})
    assert store["w"].value is before and before.tolist() == [1.0]


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_non_finite_update_writes_no_weight_and_names_the_parameter(kind):
    store = packed(a=[1.0, 2.0], b=[[3.0], [4.0]], c=[5.0])
    before = store.weights.copy()
    state = optimizer_state(kind, learning_rate=1e300)
    # a's update is finite, b's second weight overflows and so does c's
    grads = {"a": np.array([1e-300, 0.0]), "b": np.array([[0.0], [1e300]]),
             "c": np.array([1e300])}
    with np.errstate(all="ignore"), \
            pytest.raises(NonFiniteError, match=r"^non-finite update for parameter 'b'$"):
        step(state, store, grads)
    assert store.weights.tobytes() == before.tobytes()


class TestContracts:

    def test_missing_gradient_for_trainable_parameter(self):
        # a store that is not packed has no gradient buffer
        store = ParameterStore()
        store.create("w", [1.0])
        with pytest.raises(ContractError, match="w"):
            optimizer_step(optimizer_state("sgd"), store)


def test_determinism_identical_inputs_identical_outputs():
    def run():
        store = packed(w=np.linspace(-1, 1, 6).reshape(2, 3))
        state = optimizer_state("adam", learning_rate=0.05)
        grads = {"w": np.arange(6, dtype=float).reshape(2, 3)}
        for _ in range(10):
            step(state, store, grads)
        return store["w"].value

    first, second = run(), run()
    np.testing.assert_array_equal(first, second)
