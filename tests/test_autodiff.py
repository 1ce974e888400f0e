"""Tape operations against brute-force oracles and finite differences."""

import ast
import gc
import inspect
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdkit import autodiff as ad
from ecdkit.errors import (
    ConfigError,
    ContractError,
    IndexOutOfRangeError,
    NonFiniteError,
    RegistryError,
    ShapeError,
)
from ecdkit.tensor import finite_array

from oracles import (
    conv1d_sliding_window,
    cross_entropy_logsumexp,
    embedding_grad_add_at,
    finite_difference_grad,
    matmul_triple_loop,
    max_relative_error,
    rnn_scalar_loop,
    select_grad_dense,
    sequential_fold_sum,
)

rng = np.random.default_rng(7)


def leaf(tape, values, name="p"):
    return tape.leaf(ad.Parameter(name, finite_array(values, tape.dtype)))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

class TestMatmul:

    def test_identity(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.matmul(tape.constant(np.eye(2)), tape.constant([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.value.array, [[1.0, 2.0], [3.0, 4.0]])

    def test_zero_left_operand(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(rng.normal(size=(3, 2))))
        np.testing.assert_array_equal(out.value.array, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        tape = ad.Tape(dtype=np.float64)
        out = ad.matmul(tape.constant(a), tape.constant(b))
        np.testing.assert_allclose(out.value.array, matmul_triple_loop(a, b), atol=1e-12)

    def test_inner_extent_mismatch_names_both_dims(self):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 2))))

    def test_associativity_on_random_triples(self):
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 5))
            c = rng.normal(size=(5, 2))
            tape = ad.Tape(dtype=np.float64)
            left = ad.matmul(ad.matmul(tape.constant(a), tape.constant(b)), tape.constant(c))
            right = ad.matmul(tape.constant(a), ad.matmul(tape.constant(b), tape.constant(c)))
            np.testing.assert_allclose(left.value.array, right.value.array, atol=1e-9)


class TestUnary:

    def test_relu_clamps(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.apply_unary("relu", tape.constant([-1.0, 2.0]))
        np.testing.assert_array_equal(out.value.array, [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        tape = ad.Tape(dtype=np.float64)
        assert ad.apply_unary("sigmoid", tape.constant([0.0])).value.item() == 0.5

    def test_tanh_at_zero(self):
        tape = ad.Tape(dtype=np.float64)
        assert ad.apply_unary("tanh", tape.constant([0.0])).value.item() == 0.0

    def test_unknown_kind_lists_alternatives(self):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(RegistryError, match="relu, sigmoid, tanh"):
            ad.apply_unary("gelu", tape.constant([0.0]))


class TestReduce:

    def test_sum_matches_sequential_fold(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.reduce("sum", tape.constant([1.0, 2.0, 3.0]), axis=0)
        assert out.value.dims == (1,)
        assert out.value.item() == sequential_fold_sum([1.0, 2.0, 3.0])

    def test_mean_of_constant_tensor_is_constant(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.reduce("mean", tape.constant(np.full((3, 4), 2.5)), axis=0)
        np.testing.assert_array_equal(out.value.array, np.full(4, 2.5))

    def test_max_over_length_one_axis_squeezes(self):
        x = rng.normal(size=(3, 1, 2))
        tape = ad.Tape(dtype=np.float64)
        out = ad.reduce("max", tape.constant(x), axis=1)
        np.testing.assert_array_equal(out.value.array, x[:, 0, :])

    def test_axis_out_of_range(self):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(ShapeError):
            ad.reduce("sum", tape.constant([1.0]), axis=1)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_sum_equals_mean_times_extent(self, values):
        tape = ad.Tape(dtype=np.float64)
        node = tape.constant(values)
        total = ad.reduce("sum", node, axis=0).value.item()
        mean = ad.reduce("mean", node, axis=0).value.item()
        assert abs(total - mean * len(values)) < 1e-9


class TestEmbeddingLookup:

    def test_single_row_gather(self):
        table = rng.normal(size=(5, 3))
        tape = ad.Tape(dtype=np.float64)
        out = ad.embedding_lookup(tape.constant(table), [0])
        np.testing.assert_array_equal(out.value.array, table[[0]])

    def test_repeated_id_accumulates_gradient(self):
        table = rng.normal(size=(4, 2))
        tape = ad.Tape(dtype=np.float64)
        node = leaf(tape, table, "table")
        out = ad.reduce("sum", ad.reduce("sum", ad.embedding_lookup(node, [2, 2]), 1), 0)
        grads = tape.backward(out)
        expected = np.zeros((4, 2))
        expected[2] = 2.0
        np.testing.assert_array_equal(grads["table"], expected)

    def test_id_out_of_range_names_id(self):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(IndexOutOfRangeError, match="7"):
            ad.embedding_lookup(tape.constant(np.zeros((3, 2))), [0, 7])


def conv1d_per_row(x, banks, lengths):
    """The sliding-window oracle applied to each packed row alone and each
    ``(filters, bias)`` bank, the banks' maps side by side."""
    starts = np.cumsum(lengths) - np.asarray(lengths)
    width = sum(bias.size for _, bias in banks)
    return np.concatenate([np.zeros((0, width))] + [np.concatenate(
        [conv1d_sliding_window(x[s : s + n], filters, bias) for filters, bias in banks], axis=1)
        for s, n in zip(starts, lengths)])


def linear_grad(fn, shape):
    """Gradient of a function linear in its argument, one basis vector at a time."""
    grad = np.empty(int(np.prod(shape)))
    for i in range(grad.size):
        basis = np.zeros(grad.size)
        basis[i] = 1.0
        grad[i] = fn(basis.reshape(shape))
    return grad.reshape(shape)


def conv1d_constants(tape, x, banks, lengths):
    return ad.conv1d(tape.constant(x), [(tape.constant(f), tape.constant(b)) for f, b in banks],
                     lengths)


class TestConv1d:

    #: packed row lengths: an empty row, rows shorter than the wider filters,
    #: and two batches with no tokens at all
    ROWS = [[3, 0, 1, 5], [0, 2], [4], [0, 0], []]

    def test_width_one_equals_per_position_matmul(self):
        x = rng.normal(size=(6, 3))
        filters = rng.normal(size=(1, 3, 4))
        bias = rng.normal(size=4)
        out = conv1d_constants(ad.Tape(dtype=np.float64), x, [(filters, bias)], [2, 0, 4])
        np.testing.assert_allclose(out.value.array, x @ filters[0] + bias, atol=1e-12)

    def test_zero_input_yields_bias_rows(self):
        biases = [rng.normal(size=4), rng.normal(size=2)]
        out = conv1d_constants(ad.Tape(dtype=np.float64), np.zeros((5, 2)),
                               [(np.zeros((3, 2, 4)), biases[0]),
                                (np.zeros((5, 2, 2)), biases[1])], [5])
        np.testing.assert_allclose(out.value.array, np.tile(np.concatenate(biases), (5, 1)),
                                   atol=1e-12)

    @pytest.mark.parametrize("width", [1, 3, 5, 7])
    @pytest.mark.parametrize("lengths", ROWS)
    def test_each_row_is_convolved_alone(self, lengths, width):
        """One bank: output and every gradient equal the oracle on each row
        alone; the widths past 3 have rows shorter than the filter."""
        self.check_against_oracle(lengths, [width])

    @pytest.mark.parametrize("widths", [[3, 5, 7], [5, 1, 3], [3, 3]])
    @pytest.mark.parametrize("lengths", ROWS)
    def test_banks_are_convolved_alone_and_joined_side_by_side(self, lengths, widths):
        self.check_against_oracle(lengths, widths)

    @staticmethod
    def check_against_oracle(lengths, widths):
        """Output and every gradient, x's and each bank's filters' and
        bias's, equal the oracle on each row and each bank alone."""
        n, h = sum(lengths), 2
        sizes = [3, 2, 4][: len(widths)]
        x = rng.normal(size=(n, h))
        banks = [(rng.normal(size=(w, h, f)), rng.normal(size=f)) for w, f in zip(widths, sizes)]
        g = rng.normal(size=(n, sum(sizes)))
        tape = ad.Tape(dtype=np.float64)
        xnode = leaf(tape, x, "x")
        nodes = [(leaf(tape, f, f"f{i}"), leaf(tape, b, f"b{i}"))
                 for i, (f, b) in enumerate(banks)]
        out = ad.conv1d(xnode, nodes, lengths)
        assert out.value.dims == (n, sum(sizes))
        np.testing.assert_allclose(out.value.array, conv1d_per_row(x, banks, lengths),
                                   rtol=0, atol=1e-12)
        out._backward(g)  # the sweep's call, with the output's gradient given

        def score(x, banks):
            return float((g * conv1d_per_row(x, banks, lengths)).sum())

        def only(i, filters, bias):
            """Bank ``i`` with these operands, every other bank's zero."""
            return [(filters, bias) if j == i else (np.zeros(f.shape), np.zeros(b.shape))
                    for j, (f, b) in enumerate(banks)]

        expected = {"x": linear_grad(
            lambda e: score(e, [(f, np.zeros(b.shape)) for f, b in banks]), x.shape)}
        for i, (f, b) in enumerate(banks):
            expected[f"f{i}"] = linear_grad(
                lambda e, i=i: score(x, only(i, e, np.zeros(b.shape))), f.shape)
            expected[f"b{i}"] = linear_grad(
                lambda e, i=i: score(x, only(i, np.zeros(f.shape), e)), b.shape)
        for node in [xnode] + [part for pair in nodes for part in pair]:
            np.testing.assert_allclose(node.grad, expected[node.param_name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[2, 1], [3, 3], [5, -1], []])
    def test_lengths_that_do_not_pack_the_rows_raise(self, lengths):
        with pytest.raises(ShapeError, match="do not pack 4 positions"):
            conv1d_constants(ad.Tape(dtype=np.float64), np.zeros((4, 2)),
                             [(np.zeros((3, 2, 3)), np.zeros(3))], lengths)

    def test_even_width_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^conv1d filter width must be odd, got 4$"):
            conv1d_constants(ad.Tape(dtype=np.float64), np.zeros((5, 2)),
                             [(np.zeros((3, 2, 3)), np.zeros(3)),
                              (np.zeros((4, 2, 3)), np.zeros(3))], [5])

    @pytest.mark.parametrize("banks, error, message", [
        ([((3, 2, 3), (3,)), ((5, 2, 2), (3,))], ShapeError,
         r"^conv1d bias dims \(3,\) do not match filter count 2$"),
        ([((3, 2, 3), (3,)), ((5, 4, 3), (3,))], ShapeError,
         r"^conv1d filters \(5, 4, 3\) are not \[w x 2 x f\] for input dims \(5, 2\)$"),
        ([((3, 6), (6,))], ShapeError, r"^conv1d filters \(3, 6\) are not \[w x 2 x f\]"),
        ([], ContractError, r"^conv1d needs at least one filter bank$"),
    ], ids=["bias-mismatch", "other-h", "rank-2-filters", "no-banks"])
    def test_a_bank_that_does_not_fit_raises_one_line(self, banks, error, message):
        with pytest.raises(error, match=message) as raised:
            conv1d_constants(ad.Tape(dtype=np.float64), np.zeros((5, 2)),
                             [(np.zeros(f), np.zeros(b)) for f, b in banks], [5])
        assert "\n" not in str(raised.value)


class TestRnn:

    def _nodes(self, tape, x, w, u, b):
        return tuple(tape.constant(v) for v in (x, w, u, b))

    def test_all_zero_weights(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.rnn(*self._nodes(tape, np.ones((3, 3)), np.zeros((3, 2)),
                                  np.zeros((2, 2)), np.zeros(2)), [2, 1])
        np.testing.assert_array_equal(out.value.array, np.zeros((2, 2, 2)))

    def test_bias_only(self):
        tape = ad.Tape(dtype=np.float64)
        out = ad.rnn(*self._nodes(tape, np.ones((3, 3)), np.zeros((3, 2)),
                                  np.zeros((2, 2)), np.ones(2)), [2, 1, 0])
        expected = np.tanh(1.0) * np.ones((2, 3, 2))
        expected[:, 2] = 0.0  # the all-PAD row
        np.testing.assert_allclose(out.value.array, expected, atol=1e-15)

    def test_matches_scalar_loop_oracle(self):
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 3))
        u = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        tape = ad.Tape(dtype=np.float64)
        out = ad.rnn(*self._nodes(tape, x, w, u, b), [3, 2])
        first, second = rnn_scalar_loop([x[:3], x[3:]], w, u, b)
        np.testing.assert_allclose(out.value.array[:, 0], first, atol=1e-12)
        np.testing.assert_allclose(out.value.array[:2, 1], second, atol=1e-12)
        np.testing.assert_array_equal(out.value.array[2, 1], out.value.array[1, 1])

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(0, 40), max_size=5).map(
        lambda drawn: sorted(drawn, reverse=True)), seed=st.integers(0, 2**32 - 1))
    def test_each_rows_states_match_the_oracle(self, lengths, seed):
        """At each row's real steps the state is the oracle's, past them its
        last state (0 for a row with no tokens), within 1e-12."""
        r = np.random.default_rng(seed)
        x = r.normal(size=(sum(lengths), 3))
        w, u, b = r.normal(size=(3, 4)), r.normal(size=(4, 4)) * 0.5, r.normal(size=4)
        tape = ad.Tape(grad=False, dtype=np.float64)
        out = ad.rnn(*self._nodes(tape, x, w, u, b), lengths).value.array
        assert out.shape == (max(lengths, default=0) or 1, len(lengths), 4)
        ends = np.cumsum(lengths)
        rows = [x[end - count : end] for end, count in zip(ends, lengths)]
        for i, (count, states) in enumerate(zip(lengths, rnn_scalar_loop(rows, w, u, b))):
            np.testing.assert_allclose(out[:count, i], states, rtol=0, atol=1e-12)
            last = states[-1] if count else np.zeros(4)
            np.testing.assert_allclose(out[count:, i], np.broadcast_to(last, out[count:, i].shape),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [
        ((4, 5), (2, 3), (3, 3), (3,)),     # x width is not w_in's rows
        ((4, 2), (2, 4), (3, 3), (3,)),     # w_in and w_rec widths differ
        ((4, 2), (2, 3), (3, 4), (3,)),     # w_rec is not square
        ((4, 2), (2, 3), (3, 3), (4,)),     # bias width
        ((4, 2, 1), (2, 3), (3, 3), (3,)),  # rank-3 input
        ((4, 2), (2,), (3, 3), (3,)),       # rank-1 w_in
    ])
    def test_mismatched_operands_raise_shape_error(self, dims):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(ShapeError, match="rnn"):
            ad.rnn(*(tape.constant(np.zeros(d)) for d in dims), [4])

    @pytest.mark.parametrize("lengths", [[1, 3], [2, 3, 0], [5, -1], [3, 3], [[2, 2]]])
    def test_lengths_not_non_increasing_or_not_packing_raise(self, lengths):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(ShapeError, match="rnn row lengths"):
            ad.rnn(*self._nodes(tape, np.zeros((4, 2)), np.zeros((2, 3)),
                                np.zeros((3, 3)), np.zeros(3)), lengths)


class TestLosses:

    def test_uniform_logits_cross_entropy_is_log_c(self):
        for c in (2, 5, 11):
            tape = ad.Tape(dtype=np.float64)
            loss = ad.softmax_cross_entropy(tape.constant(np.zeros((4, c))), [0, 1, 0, c - 1])
            assert abs(loss.value.item() - np.log(c)) < 1e-12

    def test_mse_of_identical_is_zero(self):
        y = rng.normal(size=(6, 1))
        tape = ad.Tape(dtype=np.float64)
        assert ad.mse(tape.constant(y), y).value.item() == 0.0

    def test_cross_entropy_matches_logsumexp_oracle(self):
        logits = rng.normal(size=(8, 5))
        ids = rng.integers(0, 5, size=8)
        tape = ad.Tape(dtype=np.float64)
        loss = ad.softmax_cross_entropy(tape.constant(logits), ids)
        assert abs(loss.value.item() - cross_entropy_logsumexp(logits, ids)) < 1e-10

    def test_target_id_out_of_range(self):
        tape = ad.Tape(dtype=np.float64)
        with pytest.raises(IndexOutOfRangeError):
            ad.softmax_cross_entropy(tape.constant(np.zeros((2, 3))), [0, 3])

    def test_bce_known_value(self):
        # logit 0 gives -log(0.5) regardless of the target
        tape = ad.Tape(dtype=np.float64)
        loss = ad.sigmoid_bce(tape.constant(np.zeros((3, 1))), np.array([[0.0], [1.0], [1.0]]))
        assert abs(loss.value.item() - np.log(2.0)) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("columns", range(1, 13))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_row_reductions_have_the_bits_of_numpy_axis_1(columns, dtype, data):
    """The softmax and cross-entropy row maxima and sums, column by column
    below 8 columns, equal numpy's ``axis=1`` reductions bit for bit: signed
    zeros, magnitudes far apart and overflow included."""
    rows = data.draw(st.integers(0, 6), label="rows")
    cells = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(
        allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8)),
        min_size=rows * columns, max_size=rows * columns), label="cells")
    x = np.array(cells, dtype).reshape(rows, columns)
    wide = np.random.default_rng(columns).normal(size=(2000, columns)).astype(dtype)
    wide[::7, ::2] = -0.0
    for values in (x, wide):
        for ufunc in (np.add, np.maximum):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = ufunc.reduce(values, axis=1, keepdims=True)
                reductions = [ad._reduce_rows(ufunc, values)]
                if columns < 8:
                    reductions.append(ad._reduce_columns(ufunc, values))
            for got in reductions:
                assert got.dtype == dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ufunc", [np.maximum, np.add], ids=["max", "sum"])
@pytest.mark.parametrize("rows", [1, 16, 63, 64, 299, 300, 2000])
def test_row_reduction_paths_agree_at_every_row_count(rows, ufunc, dtype):
    """Either side of the row count at which ``_reduce_rows`` switches from
    ``axis=1`` to the column pass, both paths give the same bits."""
    for columns in range(1, 8):
        x = np.random.default_rng(rows * 8 + columns).normal(size=(rows, columns)).astype(dtype)
        x[::5, ::2] = -0.0
        expected = ufunc.reduce(x, axis=1, keepdims=True)
        for got in (ad._reduce_rows(ufunc, x), ad._reduce_columns(ufunc, x)):
            assert got.dtype == dtype and got.tobytes() == expected.tobytes(), columns


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

class TestBackward:

    def test_constant_root_has_zero_parameter_gradients(self):
        tape = ad.Tape(dtype=np.float64)
        leaf(tape, [[1.0, 2.0]], "w")
        root = tape.constant([5.0])
        grads = tape.backward(root)
        np.testing.assert_array_equal(grads["w"], np.zeros((1, 2)))

    def test_square_gradient_matches_finite_differences(self):
        x0 = 3.0

        def f(values):
            return float(values[0] * values[0])

        tape = ad.Tape(dtype=np.float64)
        x = leaf(tape, [[x0]], "x")
        grads = tape.backward(ad.matmul(x, x))
        fd = finite_difference_grad(lambda v: v[0] ** 2, np.array([x0]))
        assert abs(grads["x"][0, 0] - 6.0) < 1e-9
        assert max_relative_error(grads["x"].reshape(-1), fd) < 1e-7

    def test_fanout_accumulates(self):
        tape = ad.Tape(dtype=np.float64)
        g = leaf(tape, [4.0], "g")
        grads = tape.backward(ad.add(g, g))
        np.testing.assert_array_equal(grads["g"], [2.0])

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape(dtype=np.float64)
        node = tape.constant([1.0, 2.0])
        with pytest.raises(ContractError):
            tape.backward(node)

    def test_backward_does_not_mutate_forward_values(self):
        tape = ad.Tape(dtype=np.float64)
        w = leaf(tape, rng.normal(size=(3, 3)), "w")
        out = ad.reduce("sum", ad.reduce("sum", ad.apply_unary("tanh", ad.matmul(w, w)), 1), 0)
        nodes = list(tape.nodes)  # backward drops the tape's own list
        before = [node.value.array.copy() for node in nodes]
        tape.backward(out)
        for node, snapshot in zip(nodes, before):
            np.testing.assert_array_equal(node.value.array, snapshot)

    def test_a_parameter_has_one_leaf_per_tape(self):
        tape = ad.Tape(dtype=np.float64)
        param = ad.Parameter("w", finite_array([3.0]))
        first, second = tape.leaf(param), tape.leaf(param)
        assert first is second
        grads = tape.backward(ad.add(first, ad.scale(second, 2.0)))
        np.testing.assert_array_equal(grads["w"], [3.0])

    def test_constants_take_no_gradient(self):
        tape = ad.Tape(dtype=np.float64)
        batch = tape.constant(rng.normal(size=(3, 2)))
        out = ad.matmul(batch, leaf(tape, rng.normal(size=(2, 4)), "w"))
        out._backward(np.ones((3, 4)))
        assert batch.grad is None
        batch.accumulate(np.ones((3, 2)))
        assert batch.grad is None

    def test_packed_leaf_adds_into_the_stores_gradient_buffer(self):
        store = ad.ParameterStore(np.float64)
        store.create("a", [[1.0, -2.0]])
        store.create("b", [0.5, -0.5])
        store.pack()
        tape = ad.Tape(dtype=np.float64)
        a, b = tape.leaf(store["a"]), tape.leaf(store["b"])
        root = ad.reduce("sum", ad.add(ad.apply_unary("tanh", a), b), 1)
        grads = tape.backward(root)
        assert grads["a"] is store["a"].grad and grads["b"] is store["b"].grad
        expected = np.concatenate([1.0 - np.tanh([1.0, -2.0]) ** 2, [1.0, 1.0]])
        assert store.grads.tobytes() == (0.0 + expected).tobytes()

    def test_unreachable_parameter_gets_zeros(self):
        tape = ad.Tape(dtype=np.float64)
        used = leaf(tape, [2.0], "used")
        unused = leaf(tape, [[1.0, 1.0]], "unused")
        grads = tape.backward(ad.add(used, used))
        np.testing.assert_array_equal(grads["unused"], np.zeros((1, 2)))


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
        tape = ad.Tape(dtype=np.float64)
        node = tape.constant(raw.reshape(values.shape))
        return build(tape, node).value.item()

    tape = ad.Tape(dtype=np.float64)
    node = leaf(tape, values, "p")
    grads = tape.backward(build(tape, node))
    fd = finite_difference_grad(scalar, values.reshape(-1).copy(), h=FD_STEP)
    return max_relative_error(grads["p"].reshape(-1), fd)


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
    # three banks of widths 5, 1 and 3 over packed rows, one of them empty
    # and one shorter than the filters; each case differentiates one operand
    conv_operands = [r.normal(size=(5, 2)), r.normal(size=(5, 2, 3)), r.normal(size=3),
                     r.normal(size=(1, 2, 2)), r.normal(size=2),
                     r.normal(size=(3, 2, 4)), r.normal(size=4)]
    conv_rows = [1, 0, 4]
    bce_targets = (r.normal(size=(5, 2)) > 0).astype(float)
    mse_targets = r.normal(size=(5, 1))
    rnn_operands = [r.normal(size=s) for s in ((7, 3), (3, 2), (2, 2), (2,))]
    rnn_readout = r.normal(size=(24, 1))

    def banked_conv1d(t, x, slot):
        ops = [t.constant(v) for v in conv_operands]
        ops[slot] = x
        return summed(ad.conv1d(ops[0], [(ops[1], ops[2]), (ops[3], ops[4]), (ops[5], ops[6])],
                                conv_rows))

    def ragged_rnn(t, x, slot):
        """Rows of 3, 3, 1 and 0 tokens (a tie, a short row and an all-PAD
        row) sharing every operand, ``x`` in ``slot``; every step of the
        output is read, so the carried states' gradient is checked too."""
        ops = [t.constant(v) for v in rnn_operands]
        ops[slot] = x
        out = ad.rnn(*ops, [3, 3, 1, 0])
        return summed(ad.matmul(ad.reshape(out, (1, 24)), t.constant(rnn_readout)))

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
        "conv1d_input": ((5, 2), lambda t, x: banked_conv1d(t, x, 0)),
        "conv1d_filters": ((5, 2, 3), lambda t, x: banked_conv1d(t, x, 1)),  # the widest bank
        "conv1d_bias": ((3,), lambda t, x: banked_conv1d(t, x, 2)),
        "conv1d_filters_w1": ((1, 2, 2), lambda t, x: banked_conv1d(t, x, 3)),
        "conv1d_bias_w1": ((2,), lambda t, x: banked_conv1d(t, x, 4)),
        "conv1d_filters_w3": ((3, 2, 4), lambda t, x: banked_conv1d(t, x, 5)),
        "conv1d_bias_w3": ((4,), lambda t, x: banked_conv1d(t, x, 6)),
        "rnn_x": ((7, 3), lambda t, x: ragged_rnn(t, x, 0)),
        "rnn_w_in": ((3, 2), lambda t, x: ragged_rnn(t, x, 1)),
        "rnn_w_rec": ((2, 2), lambda t, x: ragged_rnn(t, x, 2)),
        "rnn_bias": ((2,), lambda t, x: ragged_rnn(t, x, 3)),
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


@pytest.mark.parametrize("name", OP_CASE_NAMES)
def test_float32_inputs_give_float32_values_and_gradients(name, monkeypatch):
    """On a float32 tape every op's output and every gradient buffer it adds
    to stay float32: nothing upcasts to float64 on the way."""
    grads_seen = []
    for method in ("accumulate", "accumulate_at"):
        def spy(node, *args, _sweep=getattr(ad.TapeNode, method), **kwargs):
            _sweep(node, *args, **kwargs)
            if node.grad is not None:
                grads_seen.append(node.grad.dtype)
        monkeypatch.setattr(ad.TapeNode, method, spy)
    shape, build = _op_cases(np.random.default_rng(0))[name]
    tape = ad.Tape()
    root = build(tape, leaf(tape, np.random.default_rng(1).normal(size=shape)))
    values = {node.value.array.dtype for node in tape.nodes}
    grads = tape.backward(root)
    float32 = np.dtype(np.float32)
    assert tape.dtype == float32 and values == {float32}
    assert grads_seen and set(grads_seen) == {float32} and grads["p"].dtype == float32


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
    assert {"const", "param", "conv1d", "relu", "reduce_max", "rnn"} <= recorded
    covered = set()
    for name, (shape, build) in _op_cases(np.random.default_rng(0)).items():
        tape = ad.Tape(dtype=np.float64)
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
    node = leaf(ad.Tape(dtype=np.float64), [1.0, 2.0, 3.0])
    contribution = np.array([-0.0, 0.0, -1.5])
    node.accumulate(contribution)
    assert _bits(node.grad) == _bits(np.zeros(3) + contribution)
    assert not np.signbit(node.grad[0])
    assert node.grad is not contribution
    node.accumulate(contribution)
    assert _bits(node.grad) == _bits(np.array([0.0, 0.0, -3.0]))


def test_an_owned_first_contribution_becomes_the_buffer_without_negative_zero():
    node = leaf(ad.Tape(dtype=np.float64), [1.0, 2.0, 3.0])
    contribution = np.array([-0.0, 0.0, -1.5])
    expected = _bits(np.zeros(3) + contribution)
    node.accumulate(contribution, owned=True)
    assert node.grad is contribution and _bits(node.grad) == expected
    assert not np.signbit(node.grad[0])


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

    tape = ad.Tape(dtype=np.float64)
    x = leaf(tape, np.zeros(shape))
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
    tape = ad.Tape(dtype=np.float64)
    table = leaf(tape, np.zeros((vocab, width)))
    node = ad.embedding_lookup(table, ids)
    node._backward(grad)
    assert _bits(table.grad) == _bits(embedding_grad_add_at(vocab, ids, grad))


def test_embedding_gradient_adds_into_the_looked_up_rows_only():
    store = ad.ParameterStore(np.float64)
    store.create("table", np.zeros((5, 2)))
    store.pack()
    before = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, 4.0], [-1.0, 1.0], [2.0, 2.0]])
    store.grads[...] = before.reshape(-1)
    tape = ad.Tape(dtype=np.float64)
    ids = np.array([3, 1, 3])
    grad = np.array([[1.0, 2.0], [-0.5, 0.25], [4.0, -8.0]])
    ad.embedding_lookup(tape.leaf(store["table"]), ids)._backward(grad)
    expected = before.copy()
    expected[[1, 3]] += embedding_grad_add_at(5, ids, grad)[[1, 3]]
    assert _bits(store["table"].grad) == _bits(expected)


def test_backward_frees_each_interior_gradient_once_its_closure_has_run():
    tape = ad.Tape(dtype=np.float64)
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
    np.testing.assert_allclose(grads["p"], 2.0 * (1.0 - np.tanh([[1.0, -2.0, 3.0]]) ** 2))


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
        tape = ad.Tape(dtype=np.float64)
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
    tape = ad.Tape(grad=grad, dtype=np.float64)
    root = build(tape, leaf(tape, values))
    if grad:
        tape.backward(root)
    return weakref.ref(tape)


class TestTapeLifetime:

    def test_second_backward_raises(self):
        tape = ad.Tape(dtype=np.float64)
        root = ad.reduce("sum", ad.apply_unary("tanh", leaf(tape, [[1.0, -2.0]])), 1)
        grads = tape.backward(root)
        assert tape.nodes is None and not tape.grad
        with pytest.raises(ContractError, match="consumed"):
            tape.backward(root)
        np.testing.assert_allclose(grads["p"], 1.0 - np.tanh([[1.0, -2.0]]) ** 2)

    @pytest.mark.parametrize("name", OP_CASE_NAMES)
    def test_no_grad_tape_gives_equal_values_and_records_nothing(self, name):
        build, values = _case(name)
        graded = ad.Tape(dtype=np.float64)
        expected = build(graded, graded.constant(values)).value.array
        tape = ad.Tape(grad=False, dtype=np.float64)
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
        tape = ad.Tape(grad=False, dtype=np.float64)
        node = build(tape, tape.constant(values))
        terms = node.rows
        assert terms.shape[0] == values.shape[0]
        assert node.value.item() == float(terms.sum() / terms.size)

    def test_cross_entropy_over_no_rows_is_zero(self):
        tape = ad.Tape(dtype=np.float64)
        node = ad.softmax_cross_entropy(tape.constant(np.ones((0, 2))), [])
        assert node.value.item() == 0.0
        assert node.rows.shape == (0,)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TestParameterStore:

    def test_duplicate_name_rejected(self):
        store = ad.ParameterStore(np.float64)
        store.create("a.b", [1.0])
        with pytest.raises(ContractError):
            store.create("a.b", [2.0])

    def test_empty_path_segment_rejected(self):
        with pytest.raises(ContractError):
            ad.Parameter("a..b", np.array([1.0]))

    def test_snapshot_restore_round_trip(self):
        store = ad.ParameterStore(np.float64)
        store.create("w", [[1.0, 2.0]])
        store.pack()
        snap = store.snapshot()
        store["w"].value[...] = 9.0
        store.rollback(snap)
        np.testing.assert_array_equal(store["w"].value, [[1.0, 2.0]])

    def test_pack_moves_every_value_into_one_buffer(self):
        store = ad.ParameterStore(np.float64)
        store.create("w", [[1.0, 2.0], [3.0, 4.0]])
        store.create("b", [5.0])
        store.pack()
        assert store.weights.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert store["w"].value.shape == (2, 2) and store["b"].grad.shape == (1,)
        assert not store.grads.any()
        store["b"].value[0] = 6.0
        assert store.weights[4] == 6.0
        store.pack()
        assert store["b"].value[0] == 6.0
        with pytest.raises(ContractError, match="packed"):
            store.create("c", [1.0])
        with pytest.raises(ContractError, match="weight buffer"):
            store.restore({"b": np.array([1.0])})

    def test_non_finite_buffer_names_the_first_parameter_that_holds_one(self):
        store = ad.ParameterStore(np.float64)
        for name in ("a", "b", "c"):
            store.create(name, [1.0, 2.0])
        store.pack()
        flat = np.array([1.0, 2.0, 3.0, np.nan, np.inf, 4.0])
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient for parameter 'b'$"):
            store.check_finite(flat, "gradient")
        assert store.check_finite(store.weights, "update") is store.weights

    def test_grad_norm_is_the_float64_norm_and_the_finiteness_check(self):
        store = ad.ParameterStore()
        for name in ("a", "b", "c"):
            store.create(name, [1.0, 2.0])
        store.pack()
        store.grads[...] = [3.0, -4.0, 1e30, 0.5, 3e38, -3e38]
        flat = store.grads.astype(np.float64)
        assert store.grad_norm() == math.sqrt(np.dot(flat, flat))
        store.grads[3] = np.nan
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient for parameter 'b'$"):
            store.grad_norm()

    def test_a_float64_norm_that_overflows_on_finite_gradients_is_no_error(self):
        store = ad.ParameterStore(np.float64)
        store.create("a", [1.0, 2.0])
        store.pack()
        store.grads[...] = 1e200
        assert store.grad_norm() == math.inf

    def test_restore_takes_the_arrays_it_is_handed(self):
        # a loaded model's weights reach its parameters without a second copy
        store = ad.ParameterStore(np.float64)
        store.create("w", [[1.0, 2.0]])
        values = np.array([[3.0, 4.0]])
        store.restore({"w": values})
        assert store["w"].value is values

    @pytest.mark.parametrize("store_values", [
        lambda store: store.create("big", [1.0, 1e39]),
        lambda store: store.restore({"w": np.array([[-1e300, 2.0]])}),
    ], ids=["create", "restore"])
    def test_finite_values_beyond_float32_raise_without_a_warning(self, store_values):
        store = ad.ParameterStore()
        store.create("w", [[1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite tensor values"):
                store_values(store)

    def test_restore_rejects_non_finite_values(self):
        store = ad.ParameterStore(np.float64)
        store.create("w", [[1.0, 2.0]])
        with pytest.raises(NonFiniteError, match="non-finite tensor values"):
            store.restore({"w": np.array([[1.0, np.inf]])})
