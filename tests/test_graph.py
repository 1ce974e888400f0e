"""Model assembly: encoders, combiner, dependency order, decoders, forward."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit import autodiff as ad
from ecdkit import features as ft
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.definition import DecoderSpec
from ecdkit.errors import ConfigError, ContractError, ShapeError
from ecdkit.graph import ConcatCombiner, ECDModel, build_dependency_order, combined_loss
from ecdkit.registry import build_default_registries
from ecdkit.rng import Lcg
from ecdkit.tensor import Tensor

from oracles import finite_difference_grad, max_relative_error, topological_orders_brute_force

REGS = build_default_registries()


def make_meta(**columns):
    """Metadata from small literal columns, keyed by feature name."""
    out = {}
    for name, (ftype, column) in columns.items():
        out[name] = ft.build_metadata(column, ftype, ft.PreprocParams())
    return out


def build(text: str, metadata: dict, seed: int = 11) -> ECDModel:
    definition = resolve_defaults(parse_model_definition(text), REGS)
    return ECDModel(definition, metadata, REGS, seed)


def zero_params(model: ECDModel, prefix: str) -> None:
    for param in model.store:
        if param.name.startswith(prefix):
            param.tensor = Tensor(np.zeros(param.tensor.dims))


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

class TestEncoders:

    def test_category_embed_shape(self):
        meta = make_meta(color=("category", ["red", "green", "blue"]),
                         y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: color\n    type: category\n    embedding_size: 16\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        tape = ad.Tape()
        out = model.encoders["color"].forward(tape, np.array([[1.0], [2.0], [0.0], [1.0]]))
        assert out.hidden.value.dims == (4, 16)

    def test_rnn_hidden_width_independent_of_length(self):
        meta = make_meta(words=("sequence", ["a b c d e", "a b"]),
                         y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: rnn\n"
            "    state_size: 6\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        for s in (2, 5):
            tape = ad.Tape()
            out = model.encoders["words"].forward(tape, np.ones((3, s)), states=True)
            assert out.hidden.value.dims == (3, 6)
            assert out.sequence.value.dims == (3 * s, 6)  # every position is a real token
            np.testing.assert_array_equal(out.lengths, [s, s, s])
            np.testing.assert_array_equal(out.sequence.value.array[s - 1 :: s],
                                          out.hidden.value.array)
            unread = model.encoders["words"].forward(ad.Tape(), np.ones((3, s)))
            assert unread.sequence is None
            np.testing.assert_array_equal(unread.hidden.value.array, out.hidden.value.array)

    def test_rnn_steps_to_the_longest_row_and_packs_each_rows_states(self):
        meta = make_meta(words=("sequence", ["a b c d e", "a b"]),
                         y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: rnn\n"
            "    state_size: 6\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        tape = ad.Tape()
        batch = np.array([[2.0, 3.0, 4.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0, 0.0]])
        out = model.encoders["words"].forward(tape, batch, states=True)
        assert [n.op_kind for n in tape.nodes].count("rnn_step") == 3
        states, hidden = out.sequence.value.array, out.hidden.value.array
        assert states.shape == (4, 6) and out.width == 5  # rows of 3 and 1 tokens
        np.testing.assert_array_equal(out.lengths, [3, 1])
        np.testing.assert_array_equal(hidden, states[[2, 3]])  # each row's last token
        alone = model.encoders["words"].forward(ad.Tape(), batch[1:, :1], states=True)
        np.testing.assert_allclose(alone.sequence.value.array, states[3:], rtol=0, atol=1e-12)
        empty = model.encoders["words"].forward(ad.Tape(), np.zeros((2, 4)), states=True)
        np.testing.assert_array_equal(empty.hidden.value.array, np.zeros((2, 6)))
        assert empty.sequence.value.dims == (0, 6)

    def test_rnn_recurrent_weights_start_as_the_identity(self):
        meta = make_meta(words=("sequence", ["a b c"]), y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: rnn\n"
            "    state_size: 6\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        np.testing.assert_array_equal(model.encoders["words"].w_rec.tensor.array, np.eye(6))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rnn_hidden_does_not_depend_on_padding_or_batch(self, data):
        """A row's final state alone, padded wider, and among rows of other
        lengths agree within 1e-12."""
        meta = make_meta(words=("sequence", ["a b c d e f g h"]),
                         y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: rnn\n"
            "    embedding_size: 4\n    state_size: 5\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        tokens = st.lists(st.integers(1, meta["words"].vocab_size - 1), max_size=7)
        row = data.draw(tokens, label="row")
        others = data.draw(st.lists(tokens, max_size=5), label="others")
        position = data.draw(st.integers(0, len(others)), label="position")
        rows = others[:position] + [row] + others[position:]
        width = max(1, *map(len, rows)) + data.draw(st.integers(0, 4), label="padding")

        def hidden(batch_rows, width):
            ids = np.zeros((len(batch_rows), width))
            for i, r in enumerate(batch_rows):
                ids[i, : len(r)] = r
            out = model.encoders["words"].forward(ad.Tape(grad=False), ids)
            return out.hidden.value.array

        alone = hidden([row], max(1, len(row)))
        np.testing.assert_allclose(hidden([row], width), alone, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hidden(rows, width)[position], alone[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("encoder", ["embed", "rnn", "cnn"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tags_and_cnn_pool_do_not_depend_on_padding_or_batch(self, encoder, data):
        """A row's tagger probabilities, and its pooled cnn hidden state, alone,
        padded wider, and among rows of other lengths agree within 1e-12."""
        meta = make_meta(words=("sequence", ["a b c d e f g h"]),
                         tags=("sequence", ["X Y Z"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n"
            f"    encoder: {encoder}\n    embedding_size: 4\n"
            + ("    num_filters: 3\n" if encoder == "cnn" else "")
            + "output_features:\n  - name: tags\n    type: sequence\n", meta)
        tokens = st.lists(st.integers(1, meta["words"].vocab_size - 1), max_size=7)
        row = data.draw(tokens, label="row")
        others = data.draw(st.lists(tokens, max_size=5), label="others")
        position = data.draw(st.integers(0, len(others)), label="position")
        rows = others[:position] + [row] + others[position:]
        width = max(1, *map(len, rows)) + data.draw(st.integers(0, 4), label="padding")

        def row_outputs(batch_rows, width, index):
            ids = np.zeros((len(batch_rows), width))
            for i, r in enumerate(batch_rows):
                ids[i, : len(r)] = r
            probs = model.forward({"words": ids}, grad=False).predictions["tags"].array
            hidden = model.encoders["words"].forward(ad.Tape(grad=False), ids).hidden
            return probs[index, : len(row)], hidden.value.array[index]

        alone = row_outputs([row], max(1, len(row)), 0)
        for other in (row_outputs([row], width, 0), row_outputs(rows, width, position)):
            np.testing.assert_allclose(other[0], alone[0], rtol=0, atol=1e-12)
            if encoder == "cnn":
                np.testing.assert_allclose(other[1], alone[1], rtol=0, atol=1e-12)

    def test_cnn_width_is_filters_times_branches(self):
        meta = make_meta(words=("sequence", ["a b c d e f g", "a b c"]),
                         y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: cnn\n"
            "    num_filters: 5\n    filter_widths: [3, 5, 7]\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        tape = ad.Tape()
        out = model.encoders["words"].forward(tape, np.ones((2, 7)), states=True)
        assert out.hidden.value.dims == (2, 15)  # 3 branches x 5 filters
        assert out.sequence.value.dims == (14, 15)
        np.testing.assert_array_equal(out.sequence.value.array.reshape(2, 7, 15).max(axis=1),
                                      out.hidden.value.array)
        assert model.encoders["words"].forward(ad.Tape(), np.ones((2, 7))).sequence is None

    @pytest.mark.parametrize("tagged", [False, True])
    def test_rnn_records_step_states_only_for_a_tagger(self, tagged):
        meta = make_meta(words=("sequence", ["a b c d", "c b a"]),
                         tags=("sequence", ["X Y X Y", "X X Y"]),
                         y=("category", ["p", "q"]))
        output = "  - name: tags\n    type: sequence\n" if tagged else ""
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n    encoder: rnn\n"
            "    state_size: 6\n"
            "output_features:\n  - name: y\n    type: category\n" + output, meta)
        result = model.forward({"words": np.array([[2.0, 3.0, 4.0, 5.0], [4.0, 3.0, 2.0, 0.0]])})
        kinds = [node.op_kind for node in result.tape.nodes]
        after = kinds[kinds.index("reshape") + 1 :]  # past the embedding's reshape
        # the steps are stacked by one concat, with no per-step reshape
        assert after.count("concat") == (1 if tagged else 0)
        assert "reshape" not in after
        assert after.count("select") == after.count("rnn_step") == 4

    def test_set_encoder_sums_member_embeddings(self):
        meta = make_meta(tags=("set", ["x y", "y z"]), y=("numerical", ["1", "2"]))
        model = build(
            "input_features:\n  - name: tags\n    type: set\n    embedding_size: 4\n"
            "output_features:\n  - name: y\n    type: numerical\n", meta)
        table = model.store["encoders.tags.embedding"].tensor.array
        hot = np.zeros((1, meta["tags"].vocab_size))
        hot[0, 1] = hot[0, 2] = 1.0
        tape = ad.Tape()
        out = model.encoders["tags"].forward(tape, hot)
        np.testing.assert_allclose(out.hidden.value.array, (table[1] + table[2])[None, :],
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# only the nodes some output reads
# ---------------------------------------------------------------------------

#: the tagger_cnn benchmark workload's definition
TAGGER_CNN = (
    "input_features:\n  - name: tokens\n    type: sequence\n    encoder: cnn\n"
    "    filter_widths: [3, 5, 7]\n"
    "output_features:\n  - name: tags\n    type: sequence\n    decoder: tagger\n"
)
TOKENS = np.array([[2.0, 3.0, 4.0, 0.0], [4.0, 3.0, 2.0, 5.0]])
TAGS = np.array([[2.0, 3.0, 2.0, 0.0], [3.0, 3.0, 2.0, 3.0]])


def tagger_meta(**extra):
    return make_meta(tokens=("sequence", ["a b c", "c b a d"]),
                     tags=("sequence", ["X Y X", "Y Y X Y"]), **extra)


def kinds(result) -> dict[str, int]:
    return dict(Counter(node.op_kind for node in result.tape.nodes))


class TestReadNodesOnly:

    def test_a_tagger_alone_builds_no_pools_no_combiner_and_no_mean(self):
        model = build(TAGGER_CNN, tagger_meta())
        result = model.forward({"tokens": TOKENS}, {"tags": TAGS})
        # no max pool, no pooled mean, no reshape of the packed states and no
        # scale by the unit loss weight
        assert len(result.tape.nodes) == 21
        assert kinds(result) == {"param": 9, "embedding_lookup": 1,
                                 "conv1d": 3, "relu": 3, "concat": 1, "matmul": 1,
                                 "add": 1, "softmax": 1, "softmax_cross_entropy": 1}
        assert result.predictions["tags"].dims == (2, 4, model.decoders["tags"].out_width)

    def test_other_inputs_and_the_combiner_get_zero_gradients(self):
        text = TAGGER_CNN.replace("output_features:", "  - name: x\n    type: numerical\n"
                                  "    fc_sizes: [2]\ncombiner:\n  fc_sizes: [8]\n"
                                  "output_features:")
        model = build(text, tagger_meta(x=("numerical", ["1", "2"])))
        result = model.forward({"tokens": TOKENS, "x": np.ones((2, 1))}, {"tags": TAGS})
        on_tape = {node.param_name for node in result.tape.nodes if node.op_kind == "param"}
        grads = model.backward(result)
        assert set(grads) == set(model.store.names())
        unread = set(grads) - on_tape
        assert unread == {"encoders.x.fc0.weight", "encoders.x.fc0.bias",
                          "combiner.fc0.weight", "combiner.fc0.bias"}
        for name in unread:
            assert not grads[name].array.any()
            assert grads[name].dims == model.store[name].tensor.dims

    @pytest.mark.parametrize("payload", [None, "last_hidden"])
    def test_the_tagger_pools_its_hidden_states_only_for_a_dependent(self, payload):
        dependent = ("    dependencies: [tags]\n    dependency_payload: last_hidden\n"
                     if payload else "")
        text = TAGGER_CNN + "  - name: y\n    type: category\n" + dependent
        model = build(text, tagger_meta(y=("category", ["p", "q"])))
        counts = kinds(model.forward({"tokens": TOKENS}))
        # two projections, and the mean over real positions is one more product
        assert counts["matmul"] == (3 if payload else 2)
        assert counts["reduce_max"] == 1  # the classifier reads the pooled cnn


# ---------------------------------------------------------------------------
# combiner
# ---------------------------------------------------------------------------

class TestConcatCombiner:

    def test_single_input_empty_fc_is_identity(self):
        store = ad.ParameterStore()
        combiner = ConcatCombiner(store, Lcg(0), 3, fc_sizes=[])
        tape = ad.Tape()
        x = tape.constant(np.arange(6.0).reshape(2, 3))
        out = combiner.forward(tape, [x])
        np.testing.assert_array_equal(out.value.array, x.value.array)

    def test_concatenation_matches_oracle(self):
        store = ad.ParameterStore()
        combiner = ConcatCombiner(store, Lcg(0), 5, fc_sizes=[])
        a = np.random.default_rng(0).normal(size=(4, 2))
        b = np.random.default_rng(1).normal(size=(4, 3))
        tape = ad.Tape()
        out = combiner.forward(tape, [tape.constant(a), tape.constant(b)])
        assert out.value.dims == (4, 5)
        np.testing.assert_array_equal(out.value.array, np.concatenate([a, b], axis=1))

    def test_fc_stack_sets_output_width(self):
        store = ad.ParameterStore()
        combiner = ConcatCombiner(store, Lcg(0), 5, fc_sizes=[8, 4])
        assert combiner.output_width == 4
        tape = ad.Tape()
        out = combiner.forward(tape, [tape.constant(np.ones((2, 5)))])
        assert out.value.dims == (2, 4)

    def test_batch_mismatch_is_shape_error(self):
        store = ad.ParameterStore()
        combiner = ConcatCombiner(store, Lcg(0), 4, fc_sizes=[])
        tape = ad.Tape()
        with pytest.raises(ShapeError):
            combiner.forward(tape, [tape.constant(np.ones((2, 2))),
                                    tape.constant(np.ones((3, 2)))])


# ---------------------------------------------------------------------------
# dependency order
# ---------------------------------------------------------------------------

def spec(name, deps=()):
    return DecoderSpec(name=name, type="numerical", dependencies=list(deps))


class TestDependencyOrder:

    def test_no_dependencies_keeps_declaration_order(self):
        assert build_dependency_order([spec("b"), spec("a"), spec("c")]) == ["b", "a", "c"]

    def test_simple_dependency_reorders(self):
        assert build_dependency_order([spec("b", ["a"]), spec("a")]) == ["a", "b"]

    def test_cycle_error_names_members(self):
        with pytest.raises(ConfigError) as err:
            build_dependency_order([spec("a", ["b"]), spec("b", ["a"])])
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_self_dependency_rejected(self):
        with pytest.raises(ConfigError, match="itself"):
            build_dependency_order([spec("a", ["a"])])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigError, match="ghost"):
            build_dependency_order([spec("a", ["ghost"])])

    def test_exhaustive_against_brute_force_on_three_nodes(self):
        names = ["n0", "n1", "n2"]
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for bits in range(2 ** len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            specs = [spec(names[v], [names[u] for u, w in edges if w == v]) for v in range(3)]
            valid = topological_orders_brute_force(3, edges)
            if not valid:
                with pytest.raises(ConfigError):
                    build_dependency_order(specs)
                continue
            order = build_dependency_order(specs)
            positions = {name: i for i, name in enumerate(order)}
            assert sorted(order) == sorted(names)
            assert all(positions[names[u]] < positions[names[v]] for u, v in edges)


# ---------------------------------------------------------------------------
# decoders and combined loss
# ---------------------------------------------------------------------------

TWO_OUTPUT = (
    "input_features:\n"
    "  - name: x\n"
    "    type: numerical\n"
    "output_features:\n"
    "  - name: label\n"
    "    type: category\n"
    "  - name: score\n"
    "    type: numerical\n"
    "    dependencies: [label]\n"
)


def two_output_meta():
    return make_meta(x=("numerical", ["1", "2", "3"]),
                     label=("category", ["red", "green", "red"]),
                     score=("numerical", ["0.5", "1.5", "2.5"]))


class TestDecoders:

    def test_zero_final_layer_gives_uniform_probabilities(self):
        model = build(TWO_OUTPUT, two_output_meta())
        zero_params(model, "decoders.label.proj")
        result = model.forward({"x": np.array([[0.3], [1.7]])})
        c = two_output_meta()["label"].vocab_size
        np.testing.assert_allclose(result.predictions["label"].array, np.full((2, c), 1.0 / c),
                                   atol=1e-12)

    def test_dependency_payload_width_accounting(self):
        meta = two_output_meta()
        with_dep = build(TWO_OUTPUT, meta)
        without_dep = build(TWO_OUTPUT.replace("    dependencies: [label]\n", ""), meta)
        c = meta["label"].vocab_size
        assert with_dep.decoders["score"].stack.input_width == \
            without_dep.decoders["score"].stack.input_width + c

    def test_numerical_zero_final_layer_predicts_zero(self):
        model = build(TWO_OUTPUT, two_output_meta())
        zero_params(model, "decoders.score.proj")
        result = model.forward({"x": np.array([[0.1], [2.0], [-3.0]])})
        np.testing.assert_array_equal(result.predictions["score"].array, np.zeros((3, 1)))

    def test_tagger_prediction_dims(self):
        meta = make_meta(words=("sequence", ["a b c", "c b a"]),
                         tags=("sequence", ["X Y X", "X X Y"]))
        model = build(
            "input_features:\n  - name: words\n    type: sequence\n"
            "output_features:\n  - name: tags\n    type: sequence\n", meta)
        ids = np.array([[2.0, 3.0, 4.0], [4.0, 3.0, 2.0]])
        result = model.forward({"words": ids})
        c = meta["tags"].vocab_size
        assert result.predictions["tags"].dims == (2, 3, c)

    def test_category_probability_rows_sum_to_one(self):
        model = build(TWO_OUTPUT, two_output_meta())
        result = model.forward({"x": np.random.default_rng(0).normal(size=(16, 1))})
        probs = result.predictions["label"].array
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(16), atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)


class TestCombinedLoss:

    def losses(self, tape, values):
        return {name: tape.constant([v]) for name, v in values.items()}

    def test_singleton_weight_one(self):
        tape = ad.Tape()
        node = combined_loss(self.losses(tape, {"a": 0.75}), {"a": 1.0})
        assert node.value.item() == 0.75

    def test_zero_weight_excludes_term(self):
        tape = ad.Tape()
        node = combined_loss(self.losses(tape, {"a": 0.6, "b": 99.0}), {"a": 1.0, "b": 0.0})
        assert node.value.item() == 0.6

    def test_weighted_sum_oracle(self):
        tape = ad.Tape()
        node = combined_loss(self.losses(tape, {"a": 0.5, "b": 2.0}), {"a": 2.0, "b": 3.0})
        assert node.value.item() == 7.0

    def test_key_mismatch_is_contract_error(self):
        tape = ad.Tape()
        with pytest.raises(ContractError):
            combined_loss(self.losses(tape, {"a": 1.0}), {"a": 1.0, "b": 1.0})

    def test_linear_in_each_loss(self):
        for k in (0.5, 2.0, 10.0):
            tape = ad.Tape()
            base = combined_loss(self.losses(tape, {"a": 0.3, "b": 0.7}),
                                 {"a": 1.5, "b": 2.5}).value.item()
            scaled = combined_loss(self.losses(tape, {"a": 0.3 * k, "b": 0.7}),
                                   {"a": 1.5, "b": 2.5}).value.item()
            assert abs((scaled - base) - 1.5 * 0.3 * (k - 1)) < 1e-12


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

class TestForward:

    def test_identical_batches_give_bit_identical_outputs(self):
        model = build(TWO_OUTPUT, two_output_meta())
        batch = {"x": np.linspace(-1, 1, 8).reshape(8, 1)}
        targets = {"label": np.ones((8, 1)), "score": np.zeros((8, 1))}
        first = model.forward(batch, targets)
        second = model.forward(batch, targets)
        np.testing.assert_array_equal(first.predictions["label"].array,
                                      second.predictions["label"].array)
        assert first.combined_loss == second.combined_loss

    def test_no_grad_forward_equals_the_taped_one(self):
        model = build(TWO_OUTPUT, two_output_meta())
        batch = {"x": np.linspace(-1, 1, 8).reshape(8, 1)}
        targets = {"label": np.ones((8, 1)), "score": np.zeros((8, 1))}
        taped = model.forward(batch, targets)
        bare = model.forward(batch, targets, grad=False)
        for name in model.decoder_order:
            np.testing.assert_array_equal(bare.predictions[name].array,
                                          taped.predictions[name].array)
            rows, taped_rows = bare.loss_rows[name], taped.loss_rows[name]
            assert rows[0].sum() / rows[1].sum() == taped_rows[0].sum() / taped_rows[1].sum()
            for got, want in zip(rows, taped_rows):
                np.testing.assert_array_equal(got, want)
        assert bare.combined is None and bare.tape.nodes is None
        with pytest.raises(ContractError, match="no loss"):
            model.backward(bare)

    def test_missing_input_feature_is_contract_error(self):
        model = build(TWO_OUTPUT, two_output_meta())
        with pytest.raises(ContractError, match="x"):
            model.forward({})

    def test_missing_target_is_contract_error(self):
        model = build(TWO_OUTPUT, two_output_meta())
        with pytest.raises(ContractError, match="score"):
            model.forward({"x": np.ones((2, 1))}, {"label": np.zeros((2, 1))})

    def test_dependency_route_is_differentiable_end_to_end(self):
        """Perturbing the origin decoder's weights moves the combined loss."""
        model = build(TWO_OUTPUT, two_output_meta())
        batch = {"x": np.array([[0.5], [1.0], [-0.5], [2.0]])}
        targets = {"label": np.array([[1.0], [2.0], [1.0], [2.0]]),
                   "score": np.array([[0.2], [0.4], [0.1], [0.9]])}
        param = model.store["decoders.label.proj.weight"]

        def loss_at(flat):
            param.tensor = Tensor(flat.reshape(param.tensor.dims))
            return model.forward(batch, targets).combined_loss

        original = param.tensor.array.copy()
        result = model.forward(batch, targets)
        grads = model.backward(result)
        analytic = grads["decoders.label.proj.weight"].array.reshape(-1)
        numeric = finite_difference_grad(loss_at, original.reshape(-1).copy())
        param.tensor = Tensor(original)
        assert float(np.max(np.abs(analytic))) > 0.0
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_encoder_interchangeability(self):
        """Swapping only the sequence encoder name still builds and trains."""
        meta = make_meta(words=("sequence", ["a b c", "b c d", "d a"]),
                         label=("category", ["x", "y", "x"]))
        for encoder in REGS.encoders.names("sequence"):
            text = ("input_features:\n  - name: words\n    type: sequence\n"
                    f"    encoder: {encoder}\n"
                    "output_features:\n  - name: label\n    type: category\n")
            model = build(text, meta)
            batch = {"words": np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 0.0]])}
            targets = {"label": np.array([[1.0], [2.0]])}
            result = model.forward(batch, targets)
            grads = model.backward(result)
            assert set(grads) == set(model.store.names())

    def test_build_is_deterministic_per_seed(self):
        first = build(TWO_OUTPUT, two_output_meta(), seed=5)
        second = build(TWO_OUTPUT, two_output_meta(), seed=5)
        other = build(TWO_OUTPUT, two_output_meta(), seed=6)
        for name in first.store.names():
            np.testing.assert_array_equal(first.store[name].tensor.array,
                                          second.store[name].tensor.array)
        assert any(not np.array_equal(first.store[n].tensor.array, other.store[n].tensor.array)
                   for n in first.store.names())
