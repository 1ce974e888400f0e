"""Tape operations against brute-force oracles and finite differences."""

import ast
import gc
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecdkit import autodiff as ad
from ecdkit.errors import (
    ContractError,
    IndexOutOfRangeError,
    NonFiniteError,
    RegistryError,
    ShapeError,
)
from ecdkit.tensor import Tensor

from oracles import (
    conv1d_sliding_window,
    cross_entropy_logsumexp,
    embedding_grad_add_at,
    finite_difference_grad,
    matmul_triple_loop,
    max_relative_error,
    rnn_step_scalar_loop,
    select_grad_dense,
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


def conv1d_per_row(x, filters, bias, lengths):
    """The sliding-window oracle applied to each packed row alone."""
    starts = np.cumsum(lengths) - np.asarray(lengths)
    return np.concatenate([conv1d_sliding_window(x[s : s + n], filters, bias)
                           for s, n in zip(starts, lengths)])


def linear_grad(fn, shape):
    """Gradient of a function linear in its argument, one basis vector at a time."""
    grad = np.empty(int(np.prod(shape)))
    for i in range(grad.size):
        basis = np.zeros(grad.size)
        basis[i] = 1.0
        grad[i] = fn(basis.reshape(shape))
    return grad.reshape(shape)


class TestConv1d:

    def test_width_one_equals_per_position_matmul(self):
        x = rng.normal(size=(6, 3))
        filters = rng.normal(size=(1, 3, 4))
        bias = rng.normal(size=4)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(x), tape.constant(filters), tape.constant(bias), [2, 0, 4])
        np.testing.assert_allclose(out.value.array, x @ filters[0] + bias, atol=1e-12)

    def test_zero_input_yields_bias_rows(self):
        bias = rng.normal(size=4)
        tape = ad.Tape()
        out = ad.conv1d(tape.constant(np.zeros((5, 2))),
                        tape.constant(np.zeros((3, 2, 4))), tape.constant(bias), [5])
        np.testing.assert_allclose(out.value.array, np.tile(bias, (5, 1)), atol=1e-12)

    @pytest.mark.parametrize("width", [1, 3, 5, 7])
    @pytest.mark.parametrize("lengths", [[3, 0, 1, 5], [0, 2], [4]])
    def test_each_row_is_convolved_alone(self, lengths, width):
        """Output and every gradient equal the oracle on each row alone; the
        widths past 3 have rows shorter than the filter."""
        n, h, f = sum(lengths), 2, 3
        x = rng.normal(size=(n, h))
        filters = rng.normal(size=(width, h, f))
        bias = rng.normal(size=f)
        g = rng.normal(size=(n, f))
        tape = ad.Tape()
        nodes = [leaf(tape, x, "x"), leaf(tape, filters, "f"), leaf(tape, bias, "b")]
        out = ad.conv1d(*nodes, lengths)
        np.testing.assert_allclose(out.value.array, conv1d_per_row(x, filters, bias, lengths),
                                   rtol=0, atol=1e-12)
        out._backward(g)  # the sweep's call, with the output's gradient given
        zeros_f, zeros_b = np.zeros(filters.shape), np.zeros(f)

        def score(*args):
            return float((g * conv1d_per_row(*args, lengths)).sum())

        expected = {
            "x": linear_grad(lambda e: score(e, filters, zeros_b), x.shape),
            "f": linear_grad(lambda e: score(x, e, zeros_b), filters.shape),
            "b": linear_grad(lambda e: score(np.zeros(x.shape), zeros_f, e), bias.shape),
        }
        for node in nodes:
            np.testing.assert_allclose(node.grad, expected[node.param_name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[2, 1], [3, 3], [5, -1], []])
    def test_lengths_that_do_not_pack_the_rows_raise(self, lengths):
        tape = ad.Tape()
        with pytest.raises(ShapeError, match="do not pack 4 positions"):
            ad.conv1d(tape.constant(np.zeros((4, 2))),
                      tape.constant(np.zeros((3, 2, 3))), tape.constant(np.zeros(3)), lengths)

    def test_even_width_is_config_error(self):
        from ecdkit.errors import ConfigError
        tape = ad.Tape()
        with pytest.raises(ConfigError, match="odd"):
            ad.conv1d(tape.constant(np.zeros((5, 2))),
                      tape.constant(np.zeros((4, 2, 3))), tape.constant(np.zeros(3)), [5])


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

    def test_equals_the_tape_ops_bit_for_bit(self):
        """Two steps sharing their weights: the value and all five gradients
        have the bits of tanh(add(add(matmul, matmul), bias))."""
        r = np.random.default_rng(3)
        values = {"x": r.normal(size=(4, 5)), "h": r.normal(size=(4, 3)),
                  "w_in": r.normal(size=(5, 3)), "w_rec": r.normal(size=(3, 3)),
                  "bias": r.normal(size=3)}

        def run(step):
            tape = ad.Tape()
            x, h, w, u, b = (leaf(tape, v, name) for name, v in values.items())
            out = step(x, step(x, h, w, u, b), w, u, b)
            root = ad.reduce("sum", ad.reduce("sum", ad.apply_unary("sigmoid", out), 1), 0)
            grads = tape.backward(root)
            return out.value.array.tobytes(), {n: g.array.tobytes() for n, g in grads.items()}

        fused = run(ad.rnn_step)
        composed = run(lambda x, h, w, u, b: ad.apply_unary(
            "tanh", ad.add(ad.add(ad.matmul(x, w), ad.matmul(h, u)), b)))
        assert fused[0] == composed[0]
        assert sorted(fused[1]) == sorted(values)
        assert fused[1] == composed[1]

    @pytest.mark.parametrize("rows", [np.array([0, 1]), slice(0, 2)], ids=["index", "slice"])
    def test_inactive_rows_carry_their_state_and_gradient(self, rows):
        r = np.random.default_rng(4)
        x, h = r.normal(size=(4, 2)), r.normal(size=(4, 3))
        w, u, b = r.normal(size=(2, 3)), r.normal(size=(3, 3)), r.normal(size=3)
        g = r.normal(size=(4, 3))
        tape = ad.Tape()
        nodes = [leaf(tape, v, name) for name, v in zip("xhwub", (x, h, w, u, b))]
        out = ad.rnn_step(*nodes, rows=rows)
        full = rnn_step_scalar_loop(x, h, w, u, b)
        np.testing.assert_allclose(out.value.array[:2], full[:2], atol=1e-12)
        np.testing.assert_array_equal(out.value.array[2:], h[2:])
        # the gradient of sum(g * out): inactive rows pass g straight back to h
        weighted = ad.matmul(ad.reshape(out, (1, 12)), tape.constant(g.reshape(12, 1)))
        grads = tape.backward(ad.reduce("sum", weighted, 1))
        np.testing.assert_array_equal(grads["h"].array[2:], g[2:])
        np.testing.assert_array_equal(grads["x"].array[2:], 0.0)

    @pytest.mark.parametrize("dims", [
        ((4, 2), (3, 3), (2, 3), (3, 3), (3,)),     # x and h disagree on the batch
        ((4, 5), (4, 3), (2, 3), (3, 3), (3,)),     # x width is not w_in's rows
        ((4, 2), (4, 3), (2, 4), (3, 3), (3,)),     # w_in and w_rec widths differ
        ((4, 2), (4, 3), (2, 3), (3, 4), (3,)),     # w_rec is not square
        ((4, 2), (4, 2), (2, 3), (3, 3), (3,)),     # h width is not the state width
        ((4, 2), (4, 3), (2, 3), (3, 3), (4,)),     # bias width
        ((4, 2, 1), (4, 3), (2, 3), (3, 3), (3,)),  # rank-3 input
    ])
    def test_mismatched_operands_raise_shape_error(self, dims):
        tape = ad.Tape()
        with pytest.raises(ShapeError, match="rnn_step"):
            ad.rnn_step(*(tape.constant(np.zeros(d)) for d in dims))


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
        nodes = list(tape.nodes)  # backward drops the tape's own list
        before = [node.value.array.copy() for node in nodes]
        tape.backward(out)
        for node, snapshot in zip(nodes, before):
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
        out = ad.reduce("sum", out, axis=out.value.array.ndim - 1)
    return out


def _op_cases(r: np.random.Generator) -> dict:
    """Each case closes over constants drawn once, so finite differences and
    the analytic pass see the same function."""
    m34, m42 = (r.normal(size=s) for s in ((3, 4), (4, 2)))
    b34 = r.normal(size=(3, 4))
    c33 = r.normal(size=(3, 3))
    cf32, cb2 = r.normal(size=(3, 3, 2)), r.normal(size=2)
    cx52, cf324, cb4 = r.normal(size=(5, 2)), r.normal(size=(3, 2, 4)), r.normal(size=4)
    # packed rows, one of them empty and one shorter than the filters
    x_rows, cx_rows = [4, 0, 2], [1, 0, 4]
    bce_targets = (r.normal(size=(5, 2)) > 0).astype(float)
    mse_targets = r.normal(size=(5, 1))
    rnn_operands = [r.normal(size=s) for s in ((4, 3), (4, 2), (3, 2), (2, 2), (2,))]
    rnn_readout = r.normal(size=(2, 3))

    def ragged_rnn(t, x, slot):
        """Two steps over four rows sharing every operand, ``x`` in ``slot``:
        rows 0 and 3 run both, row 1 the first only, row 2 neither (all PAD)."""
        ops = [t.constant(v) for v in rnn_operands]
        ops[slot] = x
        first = ad.rnn_step(*ops, rows=np.array([0, 1, 3]))
        second = ad.rnn_step(ops[0], first, *ops[2:], rows=np.array([0, 3]))
        return summed(ad.matmul(second, t.constant(rnn_readout)))

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
            x, t.constant(cf32), t.constant(cb2), x_rows))),
        "conv1d_filters": ((3, 2, 4), lambda t, x: summed(ad.conv1d(
            t.constant(cx52), x, t.constant(cb4), cx_rows))),
        "conv1d_bias": ((4,), lambda t, x: summed(ad.conv1d(
            t.constant(cx52), t.constant(cf324), x, cx_rows))),
        "rnn_step_x": ((4, 3), lambda t, x: ragged_rnn(t, x, 0)),
        "rnn_step_h": ((4, 2), lambda t, x: ragged_rnn(t, x, 1)),
        "rnn_step_weights": ((3, 2), lambda t, x: ragged_rnn(t, x, 2)),
        "rnn_step_w_rec": ((2, 2), lambda t, x: ragged_rnn(t, x, 3)),
        "rnn_step_bias": ((2,), lambda t, x: ragged_rnn(t, x, 4)),
        "cross_entropy": ((6, 4), lambda t, x: ad.softmax_cross_entropy(x, [0, 1, 2, 3, 0, 1])),
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


def recorded_kinds() -> set[str]:
    """Every op kind ``autodiff.py`` passes to ``Tape._record``, read from its
    source. A kind computed from a name, such as ``f"reduce_{kind}"``, takes
    each value of the ``*_KINDS`` tuple the same function checks that name
    against with ``not in``."""
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    kinds = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        domains = {node.left.id: getattr(ad, node.comparators[0].id)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                   and isinstance(node.ops[0], ast.NotIn)
                   and isinstance(node.comparators[0], ast.Name)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "_record"):
                continue
            expr = call.args[0]
            names = sorted({n.id for n in ast.walk(expr) if isinstance(n, ast.Name)})
            assert len(names) <= 1 and set(names) <= set(domains), \
                f"{func.name}: cannot resolve the op kind {ast.unparse(expr)}"
            code = compile(ast.Expression(expr), "<kind>", "eval")
            values = domains[names[0]] if names else [None]
            kinds.update(eval(code, {}, {names[0]: v} if names else {}) for v in values)
    return kinds


def test_every_recorded_op_kind_has_a_gradcheck_case():
    """An op kind no ``_op_cases`` builder records has no finite-difference check."""
    recorded = recorded_kinds()
    assert {"const", "param", "conv1d", "relu", "reduce_max", "rnn_step"} <= recorded
    covered = set()
    for name, (shape, build) in _op_cases(np.random.default_rng(0)).items():
        tape = ad.Tape()
        build(tape, leaf(tape, np.random.default_rng(1).normal(size=shape)))
        covered.update(node.op_kind for node in tape.nodes)
    assert recorded - {"const", "param"} - covered == set()


# ---------------------------------------------------------------------------
# gradient accumulation: the same bits as adding every contribution to zeros
# ---------------------------------------------------------------------------

GRAD_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def test_first_contribution_maps_negative_zero_to_positive_zero():
    node = ad.Tape().constant([1.0, 2.0, 3.0])
    contribution = np.array([-0.0, 0.0, -1.5])
    node.accumulate(contribution)
    assert _bits(node.grad) == _bits(np.zeros(3) + contribution)
    assert not np.signbit(node.grad[0])
    assert node.grad is not contribution
    node.accumulate(contribution)
    assert _bits(node.grad) == _bits(np.array([0.0, 0.0, -3.0]))


@given(data=st.data())
def test_select_gradient_is_bit_equal_to_the_dense_formula(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    picks = data.draw(st.lists(
        st.integers(0, len(shape) - 1).flatmap(
            lambda axis: st.tuples(st.just(axis), st.integers(0, shape[axis] - 1))),
        min_size=1, max_size=6))
    grads = []
    for axis, _ in picks:
        out_shape = shape[:axis] + shape[axis + 1 :] or (1,)
        cells = data.draw(st.lists(GRAD_VALUES, min_size=int(np.prod(out_shape)),
                                   max_size=int(np.prod(out_shape))))
        grads.append(np.array(cells).reshape(out_shape))
    first = None
    if data.draw(st.booleans()):
        cells = data.draw(st.lists(GRAD_VALUES, min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))))
        first = np.array(cells).reshape(shape)

    tape = ad.Tape()
    x = tape.constant(np.zeros(shape))
    nodes = [ad.select(x, axis=axis, index=index) for axis, index in picks]
    if first is not None:  # a consumer the sweep reaches before the selects
        x.accumulate(first)
    # the reverse sweep of Tape.backward, with each node's gradient given
    for node, g in reversed(list(zip(nodes, grads))):
        node._backward(g)
    assert _bits(x.grad) == _bits(select_grad_dense(shape, picks, grads, first))


@given(data=st.data())
@example(data=None)  # the tabular workload's 941 x 64 store table, 32 ids
def test_embedding_gradient_is_bit_equal_to_add_at(data):
    if data is None:
        draws = np.random.default_rng(3)
        vocab, width = 941, 64
        ids = draws.integers(vocab, size=32)
        grad = draws.normal(size=(32, width))
        grad[::5, ::3] = -0.0
    else:
        vocab = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(1, 4))
        # few ids, so repeats are common; empty lists included
        ids = np.array(data.draw(st.lists(st.integers(0, vocab - 1), max_size=8)), dtype=np.int64)
        cells = data.draw(st.lists(GRAD_VALUES, min_size=ids.size * width,
                                   max_size=ids.size * width))
        grad = np.array(cells, dtype=np.float64).reshape(ids.size, width)
    tape = ad.Tape()
    table = leaf(tape, np.zeros((vocab, width)))
    node = ad.embedding_lookup(table, ids)
    node._backward(grad)
    assert _bits(table.grad) == _bits(embedding_grad_add_at(vocab, ids, grad))


def test_backward_frees_each_interior_gradient_once_its_closure_has_run():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, -2.0, 3.0]])
    hidden = ad.apply_unary("tanh", x)
    scaled = ad.scale(hidden, 2.0)
    root = ad.reduce("sum", scaled, axis=1)
    seen = {}
    sweep_hidden = hidden._backward

    def spy(g):
        seen["scaled"], seen["root"] = scaled.grad, root.grad
        seen["hidden"] = g is hidden.grad
        sweep_hidden(g)

    hidden._backward = spy
    grads = tape.backward(root)
    # the consumers were swept before their parent, and their gradients dropped
    assert seen == {"scaled": None, "root": None, "hidden": True}
    assert hidden.grad is None and hidden._backward is None
    np.testing.assert_allclose(grads["p"].array, 2.0 * (1.0 - np.tanh([[1.0, -2.0, 3.0]]) ** 2))


# ---------------------------------------------------------------------------
# closure contract: ops hand ``backward(g)`` to ``Tape._record``, which alone
# attaches it
# ---------------------------------------------------------------------------

def test_only_tape_record_attaches_a_backward_closure():
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    attaching = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.ClassDef, ast.FunctionDef)):
            continue
        for stmt in scope.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Attribute) and t.attr == "_backward"
                        for t in node.targets) and not (
                        isinstance(node.value, ast.Constant) and node.value.value is None):
                    attaching.append(scope.name)
    # Tape._record is nested in class Tape, so both scopes see its one assignment
    assert sorted(attaching) == ["Tape", "_record"]


def test_every_op_closure_takes_its_gradient():
    r = np.random.default_rng(2)
    for name, (shape, build) in _op_cases(np.random.default_rng(0)).items():
        tape = ad.Tape()
        build(tape, leaf(tape, r.normal(size=shape)))
        ops = [node for node in tape.nodes if node.op_kind not in ("const", "param")]
        assert ops, name
        for node in ops:
            params = inspect.signature(node._backward).parameters
            assert len(params) == 1, (name, node.op_kind)
        assert all(node._backward is None for node in tape.nodes if node not in ops), name


# ---------------------------------------------------------------------------
# tape lifetime: backward consumes the tape; a grad=False tape records nothing
# ---------------------------------------------------------------------------

def _case(name):
    shape, build = _op_cases(np.random.default_rng(0))[name]
    return build, np.random.default_rng(1).normal(size=shape)


def _tape_after_pass(name, grad):
    """Weak reference to the tape of one op case, after backward if ``grad``."""
    build, values = _case(name)
    tape = ad.Tape(grad=grad)
    root = build(tape, leaf(tape, values))
    if grad:
        tape.backward(root)
    return weakref.ref(tape)


class TestTapeLifetime:

    def test_second_backward_raises(self):
        tape = ad.Tape()
        root = ad.reduce("sum", ad.apply_unary("tanh", leaf(tape, [[1.0, -2.0]])), 1)
        grads = tape.backward(root)
        assert tape.nodes is None and not tape.grad
        with pytest.raises(ContractError, match="consumed"):
            tape.backward(root)
        np.testing.assert_allclose(grads["p"].array, 1.0 - np.tanh([[1.0, -2.0]]) ** 2)

    @pytest.mark.parametrize("name", OP_CASE_NAMES)
    def test_no_grad_tape_gives_equal_values_and_records_nothing(self, name):
        build, values = _case(name)
        graded = ad.Tape()
        expected = build(graded, graded.constant(values)).value.array
        tape = ad.Tape(grad=False)
        root = build(tape, tape.constant(values))
        np.testing.assert_array_equal(root.value.array, expected)
        assert tape.nodes is None and root._backward is None
        with pytest.raises(ContractError, match="grad=False"):
            tape.backward(root)

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("name", OP_CASE_NAMES)
    def test_tape_is_freed_by_reference_counting(self, name, grad):
        gc.disable()
        try:
            assert _tape_after_pass(name, grad)() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["cross_entropy", "sigmoid_bce", "mse"])
    def test_loss_rows_reduce_to_the_value(self, name):
        build, values = _case(name)
        tape = ad.Tape(grad=False)
        node = build(tape, tape.constant(values))
        terms, weights = node.rows
        assert terms.shape[0] == weights.shape[0] == values.shape[0]
        assert node.value.item() == float(terms.sum() / weights.sum())

    def test_cross_entropy_over_no_rows_is_zero(self):
        tape = ad.Tape()
        node = ad.softmax_cross_entropy(tape.constant(np.ones((0, 2))), [])
        assert node.value.item() == 0.0
        assert node.rows[0].shape == node.rows[1].shape == (0,)


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

    def test_restore_takes_the_arrays_it_is_handed(self):
        # a loaded model's weights reach its parameters without a second copy
        store = ad.ParameterStore()
        store.create("w", [[1.0, 2.0]])
        values = np.array([[3.0, 4.0]])
        store.restore({"w": values})
        assert store["w"].tensor.array is values

    def test_restore_rejects_non_finite_values(self):
        store = ad.ParameterStore()
        store.create("w", [[1.0, 2.0]])
        with pytest.raises(NonFiniteError, match="non-finite tensor values"):
            store.restore({"w": np.array([[1.0, np.inf]])})
