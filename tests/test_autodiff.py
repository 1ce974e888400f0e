"""Tape operations against brute-force oracles and finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecdkit import autodiff as ad
from ecdkit.errors import (
    ContractError,
    IndexOutOfRangeError,
    RegistryError,
    ShapeError,
)
from ecdkit.tensor import Tensor

from oracles import (
    conv1d_sliding_window,
    cross_entropy_logsumexp,
    finite_difference_grad,
    matmul_triple_loop,
    max_relative_error,
    rnn_step_scalar_loop,
    sequential_fold_sum,
)

rng = np.random.default_rng(7)


def leaf(tape, values, name="p"):
    return tape.leaf(ad.Parameter(name, Tensor(values)))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

class TestMatmul:

    def test_identity(self):
        tape = ad.Tape()
        out = ad.matmul(tape.constant(np.eye(2)), tape.constant([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.value.array, [[1.0, 2.0], [3.0, 4.0]])

    def test_zero_left_operand(self):
        tape = ad.Tape()
        out = ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(rng.normal(size=(3, 2))))
        np.testing.assert_array_equal(out.value.array, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        tape = ad.Tape()
        out = ad.matmul(tape.constant(a), tape.constant(b))
        np.testing.assert_allclose(out.value.array, matmul_triple_loop(a, b), atol=1e-12)

    def test_inner_extent_mismatch_names_both_dims(self):
        tape = ad.Tape()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 2))))

    def test_associativity_on_random_triples(self):
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 5))
            c = rng.normal(size=(5, 2))
            tape = ad.Tape()
            left = ad.matmul(ad.matmul(tape.constant(a), tape.constant(b)), tape.constant(c))
            right = ad.matmul(tape.constant(a), ad.matmul(tape.constant(b), tape.constant(c)))
            np.testing.assert_allclose(left.value.array, right.value.array, atol=1e-9)


class TestUnary:

    def test_relu_clamps(self):
        tape = ad.Tape()
        out = ad.apply_unary("relu", tape.constant([-1.0, 2.0]))
        np.testing.assert_array_equal(out.value.array, [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        tape = ad.Tape()
        assert ad.apply_unary("sigmoid", tape.constant([0.0])).value.item() == 0.5

    def test_tanh_at_zero(self):
        tape = ad.Tape()
        assert ad.apply_unary("tanh", tape.constant([0.0])).value.item() == 0.0

    def test_unknown_kind_lists_alternatives(self):
        tape = ad.Tape()
        with pytest.raises(RegistryError, match="relu, sigmoid, tanh"):
            ad.apply_unary("gelu", tape.constant([0.0]))


class TestReduce:

    def test_sum_matches_sequential_fold(self):
        tape = ad.Tape()
        out = ad.reduce("sum", tape.constant([1.0, 2.0, 3.0]), axis=0)
        assert out.value.dims == (1,)
        assert out.value.item() == sequential_fold_sum([1.0, 2.0, 3.0])

    def test_mean_of_constant_tensor_is_constant(self):
        tape = ad.Tape()
        out = ad.reduce("mean", tape.constant(np.full((3, 4), 2.5)), axis=0)
        np.testing.assert_array_equal(out.value.array, np.full(4, 2.5))

    def test_max_over_length_one_axis_squeezes(self):
        x = rng.normal(size=(3, 1, 2))
        tape = ad.Tape()
        out = ad.reduce("max", tape.constant(x), axis=1)
        np.testing.assert_array_equal(out.value.array, x[:, 0, :])

    def test_axis_out_of_range(self):
        tape = ad.Tape()
        with pytest.raises(ShapeError):
            ad.reduce("sum", tape.constant([1.0]), axis=1)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_sum_equals_mean_times_extent(self, values):
        tape = ad.Tape()
        node = tape.constant(values)
        total = ad.reduce("sum", node, axis=0).value.item()
        mean = ad.reduce("mean", node, axis=0).value.item()
        assert abs(total - mean * len(values)) < 1e-9


class TestEmbeddingLookup:

    def test_single_row_gather(self):
        table = rng.normal(size=(5, 3))
        tape = ad.Tape()
        out = ad.embedding_lookup(tape.constant(table), [0])
        np.testing.assert_array_equal(out.value.array, table[[0]])

    def test_repeated_id_accumulates_gradient(self):
        table = rng.normal(size=(4, 2))
        tape = ad.Tape()
        node = leaf(tape, table, "table")
        out = ad.reduce("sum", ad.reduce("sum", ad.embedding_lookup(node, [2, 2]), 1), 0)
        grads = tape.backward(out)
        expected = np.zeros((4, 2))
        expected[2] = 2.0
        np.testing.assert_array_equal(grads["table"].array, expected)

    def test_id_out_of_range_names_id(self):
        tape = ad.Tape()
        with pytest.raises(IndexOutOfRangeError, match="7"):
            ad.embedding_lookup(tape.constant(np.zeros((3, 2))), [0, 7])


class TestConv1d:

    def test_width_one_equals_per_position_matmul(self):
        x = rng.normal(size=(6, 3))
        filters = rng.normal(size=(1, 3, 4))
        bias = rng.normal(size=4)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(x), tape.constant(filters), tape.constant(bias))
        np.testing.assert_allclose(out.value.array, x @ filters[0] + bias, atol=1e-12)

    def test_zero_input_yields_bias_rows(self):
        bias = rng.normal(size=4)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(np.zeros((5, 2))),
                        tape.constant(np.zeros((3, 2, 4))), tape.constant(bias))
        np.testing.assert_allclose(out.value.array, np.tile(bias, (5, 1)), atol=1e-12)

    def test_matches_sliding_window_oracle(self):
        x = rng.normal(size=(9, 3))
        filters = rng.normal(size=(5, 3, 2))
        bias = rng.normal(size=2)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(x), tape.constant(filters), tape.constant(bias))
        np.testing.assert_allclose(out.value.array,
                                   conv1d_sliding_window(x, filters, bias), atol=1e-12)

    def test_batched_matches_per_example(self):
        x = rng.normal(size=(3, 7, 2))
        filters = rng.normal(size=(3, 2, 4))
        bias = rng.normal(size=4)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(x), tape.constant(filters), tape.constant(bias))
        for i in range(3):
            np.testing.assert_allclose(out.value.array[i],
                                       conv1d_sliding_window(x[i], filters, bias), atol=1e-12)

    def test_even_width_is_config_error(self):
        from ecdkit.errors import ConfigError
        tape = ad.Tape()
        with pytest.raises(ConfigError, match="odd"):
            ad.conv1d(tape.constant(np.zeros((5, 2))),
                      tape.constant(np.zeros((4, 2, 3))), tape.constant(np.zeros(3)))


class TestRnnStep:

    def _nodes(self, tape, x, h, w, u, b):
        return (tape.constant(x), tape.constant(h), tape.constant(w),
                tape.constant(u), tape.constant(b))

    def test_all_zero_weights(self):
        tape = ad.Tape()
        out = ad.rnn_step(*self._nodes(tape, np.ones((1, 3)), np.ones((1, 2)),
                                       np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2)))
        np.testing.assert_array_equal(out.value.array, np.zeros((1, 2)))

    def test_bias_only(self):
        tape = ad.Tape()
        out = ad.rnn_step(*self._nodes(tape, np.ones((1, 3)), np.ones((1, 2)),
                                       np.zeros((3, 2)), np.zeros((2, 2)), np.ones(2)))
        np.testing.assert_allclose(out.value.array, np.tanh(1.0) * np.ones((1, 2)), atol=1e-15)

    def test_matches_scalar_loop_oracle(self):
        x = rng.normal(size=(1, 4))
        h = rng.normal(size=(1, 3))
        w = rng.normal(size=(4, 3))
        u = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        tape = ad.Tape()
        out = ad.rnn_step(*self._nodes(tape, x, h, w, u, b))
        np.testing.assert_allclose(out.value.array,
                                   rnn_step_scalar_loop(x, h, w, u, b), atol=1e-12)


class TestLosses:

    def test_uniform_logits_cross_entropy_is_log_c(self):
        for c in (2, 5, 11):
            tape = ad.Tape()
            loss = ad.softmax_cross_entropy(tape.constant(np.zeros((4, c))), [0, 1, 0, c - 1])
            assert abs(loss.value.item() - np.log(c)) < 1e-12

    def test_mse_of_identical_is_zero(self):
        y = rng.normal(size=(6, 1))
        tape = ad.Tape()
        assert ad.mse(tape.constant(y), y).value.item() == 0.0

    def test_cross_entropy_matches_logsumexp_oracle(self):
        logits = rng.normal(size=(8, 5))
        ids = rng.integers(0, 5, size=8)
        tape = ad.Tape()
        loss = ad.softmax_cross_entropy(tape.constant(logits), ids)
        assert abs(loss.value.item() - cross_entropy_logsumexp(logits, ids)) < 1e-10

    def test_target_id_out_of_range(self):
        tape = ad.Tape()
        with pytest.raises(IndexOutOfRangeError):
            ad.softmax_cross_entropy(tape.constant(np.zeros((2, 3))), [0, 3])

    def test_bce_known_value(self):
        # logit 0 gives -log(0.5) regardless of the target
        tape = ad.Tape()
        loss = ad.sigmoid_bce(tape.constant(np.zeros((3, 1))), np.array([[0.0], [1.0], [1.0]]))
        assert abs(loss.value.item() - np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

class TestBackward:

    def test_constant_root_has_zero_parameter_gradients(self):
        tape = ad.Tape()
        leaf(tape, [[1.0, 2.0]], "w")
        root = tape.constant([5.0])
        grads = tape.backward(root)
        np.testing.assert_array_equal(grads["w"].array, np.zeros((1, 2)))

    def test_square_gradient_matches_finite_differences(self):
        x0 = 3.0

        def f(values):
            return float(values[0] * values[0])

        tape = ad.Tape()
        x = leaf(tape, [[x0]], "x")
        grads = tape.backward(ad.matmul(x, x))
        fd = finite_difference_grad(lambda v: v[0] ** 2, np.array([x0]))
        assert abs(grads["x"].array[0, 0] - 6.0) < 1e-9
        assert max_relative_error(grads["x"].array.reshape(-1), fd) < 1e-7

    def test_fanout_accumulates(self):
        tape = ad.Tape()
        g = leaf(tape, [4.0], "g")
        grads = tape.backward(ad.add(g, g))
        np.testing.assert_array_equal(grads["g"].array, [2.0])

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        node = tape.constant([1.0, 2.0])
        with pytest.raises(ContractError):
            tape.backward(node)

    def test_backward_does_not_mutate_forward_values(self):
        tape = ad.Tape()
        w = leaf(tape, rng.normal(size=(3, 3)), "w")
        out = ad.reduce("sum", ad.reduce("sum", ad.apply_unary("tanh", ad.matmul(w, w)), 1), 0)
        before = [node.value.array.copy() for node in tape.nodes]
        tape.backward(out)
        for node, snapshot in zip(tape.nodes, before):
            np.testing.assert_array_equal(node.value.array, snapshot)

    def test_unreachable_parameter_gets_zeros(self):
        tape = ad.Tape()
        used = leaf(tape, [2.0], "used")
        unused = leaf(tape, [[1.0, 1.0]], "unused")
        grads = tape.backward(ad.add(used, used))
        np.testing.assert_array_equal(grads["unused"].array, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# gradient checks: every differentiable operation vs finite differences
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def gradcheck(build, values: np.ndarray, probes: int = None) -> float:
    """Max relative error between tape gradients and central differences.

    ``build`` maps a parameter node to a scalar node on the same tape.
    """
    def scalar(raw: np.ndarray) -> float:
        tape = ad.Tape()
        node = tape.constant(raw.reshape(values.shape))
        return build(tape, node).value.item()

    tape = ad.Tape()
    node = leaf(tape, values, "p")
    grads = tape.backward(build(tape, node))
    fd = finite_difference_grad(scalar, values.reshape(-1).copy(), h=FD_STEP)
    return max_relative_error(grads["p"].array.reshape(-1), fd)


def summed(node):
    out = node
    while out.value.array.size > 1:
        out = ad.reduce("sum", out, axis=out.value.rank - 1)
    return out


def _op_cases(r: np.random.Generator) -> dict:
    """Each case closes over constants drawn once, so finite differences and
    the analytic pass see the same function."""
    m34, m42, m43, m33 = (r.normal(size=s) for s in ((3, 4), (4, 2), (4, 3), (3, 3)))
    b34, h13, x14 = r.normal(size=(3, 4)), r.normal(size=(1, 3)), r.normal(size=(1, 4))
    c33 = r.normal(size=(3, 3))
    cf32, cb2 = r.normal(size=(3, 3, 2)), r.normal(size=2)
    cx52, cf324, cb4 = r.normal(size=(5, 2)), r.normal(size=(3, 2, 4)), r.normal(size=4)
    rb3 = r.normal(size=3)
    bce_targets = (r.normal(size=(5, 2)) > 0).astype(float)
    mse_targets = r.normal(size=(5, 1))
    return {
        "matmul_left": ((3, 4), lambda t, x: summed(ad.matmul(x, t.constant(m42)))),
        "matmul_right": ((4, 2), lambda t, x: summed(ad.matmul(t.constant(m34), x))),
        "add": ((3, 4), lambda t, x: summed(ad.add(x, t.constant(b34)))),
        "add_bias_broadcast": ((4,), lambda t, x: summed(ad.add(t.constant(b34), x))),
        "scale": ((3, 2), lambda t, x: summed(ad.scale(x, 1.7))),
        "relu": ((3, 4), lambda t, x: summed(ad.apply_unary("relu", x))),
        "sigmoid": ((3, 4), lambda t, x: summed(ad.apply_unary("sigmoid", x))),
        "tanh": ((3, 4), lambda t, x: summed(ad.apply_unary("tanh", x))),
        "reduce_sum": ((3, 4), lambda t, x: summed(ad.reduce("sum", x, 0))),
        "reduce_mean": ((3, 4), lambda t, x: summed(ad.reduce("mean", x, 1))),
        "reduce_max": ((3, 4), lambda t, x: summed(ad.reduce("max", x, 1))),
        "softmax": ((3, 4), lambda t, x: summed(ad.matmul(ad.softmax(x), t.constant(m42)))),
        "concat": ((3, 2), lambda t, x: summed(ad.concat([x, t.constant(c33)], axis=1))),
        "reshape": ((3, 4), lambda t, x: summed(ad.reshape(x, (2, 6)))),
        "select": ((3, 4, 2), lambda t, x: summed(ad.select(x, axis=1, index=2))),
        "embedding": ((5, 3), lambda t, x: summed(ad.embedding_lookup(x, [0, 2, 2, 4]))),
        "conv1d_input": ((6, 3), lambda t, x: summed(ad.conv1d(
            x, t.constant(cf32), t.constant(cb2)))),
        "conv1d_filters": ((3, 2, 4), lambda t, x: summed(ad.conv1d(
            t.constant(cx52), x, t.constant(cb4)))),
        "conv1d_bias": ((4,), lambda t, x: summed(ad.conv1d(
            t.constant(cx52), t.constant(cf324), x))),
        "rnn_step_x": ((1, 4), lambda t, x: summed(ad.rnn_step(
            x, t.constant(h13), t.constant(m43), t.constant(m33), t.constant(rb3)))),
        "rnn_step_weights": ((4, 3), lambda t, x: summed(ad.rnn_step(
            t.constant(x14), t.constant(h13), x, t.constant(m33), t.constant(rb3)))),
        "cross_entropy": ((6, 4), lambda t, x: ad.softmax_cross_entropy(x, [0, 1, 2, 3, 0, 1])),
        "cross_entropy_masked": ((6, 4), lambda t, x: ad.softmax_cross_entropy(
            x, [0, 1, 2, 3, 0, 1], weights=np.array([1, 0, 1, 1, 0, 1.0]))),
        "sigmoid_bce": ((5, 2), lambda t, x: ad.sigmoid_bce(x, bce_targets)),
        "mse": ((5, 1), lambda t, x: ad.mse(x, mse_targets)),
    }


OP_CASE_NAMES = sorted(_op_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", OP_CASE_NAMES)
def test_gradient_matches_finite_differences(name):
    """Analytic gradients agree with central differences for every op."""
    worst = 0.0
    for trial in range(8):
        shape, build = _op_cases(np.random.default_rng(1000 + trial))[name]
        values = np.random.default_rng(100 + trial).normal(size=shape)
        if name == "reduce_max":
            # keep the maximum unique so the subgradient choice is well-defined
            values += np.arange(values.size).reshape(shape) * 0.01
        if name == "relu":
            values += 0.05 * np.sign(values)  # stay away from the kink
        worst = max(worst, gradcheck(build, values))
    assert worst < GRAD_TOL, f"{name}: max relative error {worst}"


def test_gradcheck_probe_count_is_at_least_100():
    """The parametrized sweep perturbs well over 100 scalar coordinates."""
    cases = _op_cases(np.random.default_rng(0))
    total = sum(int(np.prod(shape)) * 8 for shape, _ in cases.values())
    assert total >= 100


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TestParameterStore:

    def test_duplicate_name_rejected(self):
        store = ad.ParameterStore()
        store.create("a.b", [1.0])
        with pytest.raises(ContractError):
            store.create("a.b", [2.0])

    def test_empty_path_segment_rejected(self):
        with pytest.raises(ContractError):
            ad.Parameter("a..b", Tensor([1.0]))

    def test_snapshot_restore_round_trip(self):
        store = ad.ParameterStore()
        store.create("w", [[1.0, 2.0]])
        snap = store.snapshot()
        store["w"].tensor = Tensor([[9.0, 9.0]])
        store.restore(snap)
        np.testing.assert_array_equal(store["w"].tensor.array, [[1.0, 2.0]])
