"""Definition parsing, default resolution, validation, and registries."""

import copy
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit.artifacts import read_json, write_json
from ecdkit.config import (
    definition_from_dict,
    parse_model_definition,
    resolve_defaults,
    validate,
)
from ecdkit.decoders import DECODERS
from ecdkit.definition import TrainingParams
from ecdkit.encoders import ENCODERS
from ecdkit.errors import RegistryError, SchemaError
from ecdkit.features import OUTPUT_TYPES, SUPPORTED_TYPES, TYPE_PREPROC_DEFAULTS
from ecdkit.graph import ConcatCombiner
from ecdkit.registry import Registries, Registry, build_default_registries

MINIMAL = (
    "input_features:\n"
    "  - name: title\n"
    "    type: text\n"
    "output_features:\n"
    "  - name: label\n"
    "    type: category\n"
)

FULL = (
    "input_features:\n"
    "  - name: title\n"
    "    type: text\n"
    "    encoder: cnn\n"
    "    num_filters: 16\n"
    "    filter_widths: [3, 5]\n"
    "    preprocessing:\n"
    "      max_sequence_length: 20\n"
    "  - name: price\n"
    "    type: numerical\n"
    "combiner:\n"
    "  name: concat\n"
    "  fc_sizes: [8]\n"
    "output_features:\n"
    "  - name: label\n"
    "    type: category\n"
    "    loss_weight: 2.0\n"
    "  - name: score\n"
    "    type: numerical\n"
    "    dependencies: [label]\n"
    "preprocessing:\n"
    "  text:\n"
    "    lowercase: false\n"
    "training:\n"
    "  epochs: 5\n"
    "  batch_size: 16\n"
    "  optimizer: sgd\n"
    "  learning_rate: 0.05\n"
)


@pytest.fixture()
def registries():
    return build_default_registries()


@pytest.fixture()
def json_round_trip(tmp_path):
    """A definition written and read back as a model directory stores it."""
    def round_trip(definition):
        path = tmp_path / "model_definition.json"
        write_json(path, definition.to_dict())
        return definition_from_dict(read_json(path))
    return round_trip


class TestParse:

    def test_minimal_definition(self):
        d = parse_model_definition(MINIMAL)
        assert [f.name for f in d.input_features] == ["title"]
        assert [f.name for f in d.output_features] == ["label"]
        assert d.combiner.name is None
        assert d.training.epochs is None

    def test_feature_without_name_is_schema_error(self):
        with pytest.raises(SchemaError, match="name"):
            parse_model_definition("input_features:\n  - type: text\noutput_features:\n"
                                   "  - name: y\n    type: category\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="trainin"):
            parse_model_definition(MINIMAL + "trainin:\n  epochs: 1\n")

    def test_unknown_type_rejected_at_parse(self):
        with pytest.raises(SchemaError, match="image"):
            parse_model_definition("input_features:\n  - name: x\n    type: image\n"
                                   "output_features:\n  - name: y\n    type: category\n")

    def test_missing_feature_sections(self):
        with pytest.raises(SchemaError, match="output_features"):
            parse_model_definition("input_features:\n  - name: x\n    type: text\n")

    def test_unknown_preprocessing_key(self):
        bad = ("input_features:\n  - name: x\n    type: text\n    preprocessing:\n"
               "      max_len: 3\noutput_features:\n  - name: y\n    type: category\n")
        with pytest.raises(SchemaError, match="max_len"):
            parse_model_definition(bad)

    def test_unknown_training_key_names_key(self):
        with pytest.raises(SchemaError, match="learningrate"):
            parse_model_definition(MINIMAL + "training:\n  learningrate: 0.1\n")

    def test_extra_feature_keys_become_hyperparameters(self):
        d = parse_model_definition(FULL)
        assert d.input_features[0].params == {"num_filters": 16, "filter_widths": [3, 5]}

    def test_round_trip_full_config(self, json_round_trip):
        d = parse_model_definition(FULL)
        assert json_round_trip(d) == d

    def test_parse_serialize_parse_is_fixpoint(self, json_round_trip):
        for text in (MINIMAL, FULL):
            once = json_round_trip(parse_model_definition(text))
            assert json_round_trip(once).to_dict() == once.to_dict()


class TestResolveDefaults:

    def test_missing_combiner_defaults_to_concat(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        assert d.combiner.name == "concat"
        assert d.combiner.params == {"fc_sizes": [], "activation": "relu"}

    def test_type_default_encoder_and_decoder(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        assert d.input_features[0].encoder == "embed"
        assert d.output_features[0].decoder == "classifier"
        assert d.output_features[0].loss_weight == 1.0

    def test_encoder_default_hyperparameters_filled(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        assert d.input_features[0].params["embedding_size"] == 32

    def test_feature_level_preprocessing_overrides_type_level(self, registries):
        text = (
            "input_features:\n"
            "  - name: a\n"
            "    type: text\n"
            "    preprocessing:\n"
            "      max_sequence_length: 20\n"
            "  - name: b\n"
            "    type: text\n"
            "output_features:\n"
            "  - name: y\n"
            "    type: category\n"
            "preprocessing:\n"
            "  text:\n"
            "    max_sequence_length: 100\n"
        )
        d = resolve_defaults(parse_model_definition(text), registries)
        assert d.input_features[0].preprocessing["max_sequence_length"] == 20
        assert d.input_features[1].preprocessing["max_sequence_length"] == 100

    def test_training_defaults(self, registries):
        tr = resolve_defaults(parse_model_definition(MINIMAL), registries).training
        assert (tr.epochs, tr.batch_size, tr.optimizer) == (100, 128, "adam")
        assert tr.learning_rate == 1e-3
        assert tr.split == [0.7, 0.1, 0.2]
        assert (tr.validation_feature, tr.validation_metric) == ("label", "loss")

    def test_sgd_gets_its_own_default_learning_rate(self, registries):
        d = parse_model_definition(MINIMAL + "training:\n  optimizer: sgd\n")
        assert resolve_defaults(d, registries).training.learning_rate == 1e-2

    def test_idempotent(self, registries):
        once = resolve_defaults(parse_model_definition(FULL), registries)
        assert resolve_defaults(once, registries) == once

    def test_user_values_survive_verbatim(self, registries):
        d = resolve_defaults(parse_model_definition(FULL), registries)
        assert d.input_features[0].params["num_filters"] == 16
        assert d.input_features[0].params["filter_widths"] == [3, 5]
        assert d.input_features[0].preprocessing["max_sequence_length"] == 20
        assert d.input_features[0].preprocessing["lowercase"] is False
        assert d.combiner.params["fc_sizes"] == [8]
        assert d.output_features[0].loss_weight == 2.0
        assert d.training.learning_rate == 0.05

    def test_does_not_mutate_input(self, registries):
        d = parse_model_definition(MINIMAL)
        resolve_defaults(d, registries)
        assert d.combiner.name is None

    def test_split_column_suppresses_fraction_default(self, registries):
        d = parse_model_definition(MINIMAL + "training:\n  split_column: fold\n")
        tr = resolve_defaults(d, registries).training
        assert tr.split is None and tr.split_column == "fold"

    def test_resolved_definition_round_trips(self, registries, json_round_trip):
        resolved = resolve_defaults(parse_model_definition(FULL), registries)
        assert json_round_trip(resolved) == resolved


class TestValidate:

    def header(self):
        return ["title", "price", "label", "score"]

    def test_minimal_resolved_definition_has_no_diagnostics(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        assert validate(d, ["title", "label"], registries) == []

    def test_unknown_encoder_lists_registered_names(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.input_features[0].encoder = "rrn"
        diags = validate(d, ["title", "label"], registries)
        assert len(diags) == 1
        assert "cnn" in diags[0].message and "rnn" in diags[0].message and "embed" in diags[0].message

    def test_unknown_tokenizer_lists_available_tokenizers(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.input_features[0].preprocessing["tokenizer"] = "whitespace"
        diags = validate(d, ["title", "label"], registries)
        assert [(x.path, x.message) for x in diags] == [
            ("input_features.title.preprocessing",
             "unknown tokenizer 'whitespace'; available: character, space")]

    def test_missing_column_names_feature(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        diags = validate(d, ["label"], registries)
        assert any("title" in d_.message for d_ in diags)

    def test_unknown_dependency_names_both_features(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.output_features[0].dependencies = ["ghost"]
        diags = validate(d, ["title", "label"], registries)
        assert any("ghost" in d_.message and "output_features.label" in d_.path for d_ in diags)

    def test_unknown_hyperparameter_keyword(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.input_features[0].params["embeding_size"] = 8
        diags = validate(d, ["title", "label"], registries)
        assert any("embeding_size" in d_.message for d_ in diags)

    def test_cycle_is_reported_not_raised(self, registries):
        text = (
            "input_features:\n  - name: x\n    type: numerical\n"
            "output_features:\n"
            "  - name: a\n    type: numerical\n    dependencies: [b]\n"
            "  - name: b\n    type: numerical\n    dependencies: [a]\n"
        )
        d = resolve_defaults(parse_model_definition(text), registries)
        diags = validate(d, ["x", "a", "b"], registries)
        assert any("cycle" in d_.message for d_ in diags)

    def test_multiple_problems_all_reported(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.input_features[0].encoder = "nope"
        d.output_features[0].loss_weight = 0.0
        diags = validate(d, ["wrong_column"], registries)
        assert len(diags) >= 3

    def test_bad_split_fractions(self, registries):
        d = resolve_defaults(parse_model_definition(MINIMAL), registries)
        d.training.split = [0.5, 0.2, 0.2]
        diags = validate(d, ["title", "label"], registries)
        assert any("sum to 1" in d_.message for d_ in diags)

    def test_tagger_without_sequence_input(self, registries):
        text = (
            "input_features:\n  - name: x\n    type: numerical\n"
            "output_features:\n  - name: tags\n    type: sequence\n"
        )
        d = resolve_defaults(parse_model_definition(text), registries)
        diags = validate(d, ["x", "tags"], registries)
        assert any("sequence" in d_.message for d_ in diags)

    def test_even_filter_width_reported(self, registries):
        d = resolve_defaults(parse_model_definition(FULL.replace("[3, 5]", "[2, 4]")), registries)
        diags = validate(d, self.header(), registries)
        assert any("odd" in d_.message for d_ in diags)

    def test_duplicate_feature_names_reported(self, registries):
        text = ("input_features:\n  - name: same\n    type: numerical\n"
                "output_features:\n  - name: same\n    type: numerical\n")
        d = resolve_defaults(parse_model_definition(text), registries)
        diags = validate(d, ["same"], registries)
        assert any("duplicate" in d_.message for d_ in diags)

    def test_probabilities_payload_from_sequence_origin_reported(self, registries):
        text = (
            "input_features:\n  - name: words\n    type: sequence\n"
            "output_features:\n"
            "  - name: tags\n    type: sequence\n"
            "  - name: label\n    type: category\n"
            "    dependencies: [tags]\n"
            "    dependency_payload: probabilities\n"
        )
        d = resolve_defaults(parse_model_definition(text), registries)
        diags = validate(d, ["words", "tags", "label"], registries)
        assert any("last_hidden" in d_.message for d_ in diags)

    def test_tagger_cap_mismatch_reported(self, registries):
        text = (
            "input_features:\n  - name: words\n    type: sequence\n"
            "    preprocessing:\n      max_sequence_length: 10\n"
            "output_features:\n  - name: tags\n    type: sequence\n"
            "    preprocessing:\n      max_sequence_length: 20\n"
        )
        d = resolve_defaults(parse_model_definition(text), registries)
        diags = validate(d, ["words", "tags"], registries)
        assert any("must match" in d_.message for d_ in diags)


class TestRegistry:

    def test_register_then_resolve_builds(self, registries):
        class MyEncoder:
            DEFAULTS = {"width": 4}

        registries.encoders.register("myenc", MyEncoder, scope="text")
        d = parse_model_definition(MINIMAL.replace("type: text", "type: text\n    encoder: myenc"))
        resolved = resolve_defaults(d, registries)
        assert resolved.input_features[0].params == {"width": 4}
        assert validate(resolved, ["title", "label"], registries) == []
        resolved.input_features[0].params.update(widht=3, embedding_size=0)
        assert [str(d) for d in validate(resolved, ["title", "label"], registries)] == [
            "input_features.title.widht: keyword 'widht' is not accepted by MyEncoder; "
            "accepted: width",
            "input_features.title.embedding_size: keyword 'embedding_size' is not accepted by "
            "MyEncoder; accepted: width",
            "input_features.title.embedding_size: embedding_size must be a positive integer, "
            "got 0"]

    def test_default_is_the_first_name_registered_for_the_type(self):
        class MyEncoder:
            DEFAULTS = {"width": 4}

        registries = Registries()
        registries.encoders.register("myenc", MyEncoder, scope="text")
        resolved = resolve_defaults(parse_model_definition(MINIMAL), registries)
        assert (resolved.input_features[0].encoder, resolved.input_features[0].params) == \
            ("myenc", {"width": 4})
        assert (resolved.output_features[0].decoder, resolved.combiner.name) == (None, None)

    def test_duplicate_registration_is_error(self, registries):
        with pytest.raises(RegistryError, match="rnn"):
            registries.encoders.register("rnn", object, scope="text")

    def test_lookup_miss_lists_available(self):
        reg = Registry("encoder")
        reg.register("a", object, scope="text")
        with pytest.raises(RegistryError, match="available: a"):
            reg.lookup("b", scope="text")

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError):
            Registry("metric").register("", object)


# ---------------------------------------------------------------------------
# every diagnostic, word for word
# ---------------------------------------------------------------------------

X = {"name": "x", "type": "text"}
Y = {"name": "y", "type": "category"}


def doc(inputs=(X,), outputs=(Y,), **sections):
    """A parsed document: one text input, one category output and ``sections``."""
    return {"input_features": [dict(f) for f in inputs],
            "output_features": [dict(f) for f in outputs], **sections}


def bad_type(key, value, expected):
    return pytest.param(doc(training={key: value}),
                        f"training.{key}: expected {expected}, got {value!r}", id=f"type_{key}")


SCHEMA_ERRORS = [
    pytest.param([X], "model definition must be a mapping at the top level", id="not_a_mapping"),
    pytest.param(doc(trainin={}), "unknown key 'trainin' at top level; expected one of "
                 "input_features, combiner, output_features, preprocessing, training",
                 id="top_level_key"),
    pytest.param({"output_features": [Y]}, "missing required section 'input_features'",
                 id="no_inputs"),
    pytest.param({"input_features": [X]}, "missing required section 'output_features'",
                 id="no_outputs"),
    pytest.param(doc(inputs=()), "input_features must be a non-empty list of feature definitions",
                 id="empty_inputs"),
    pytest.param({"input_features": X, "output_features": [Y]},
                 "input_features must be a non-empty list of feature definitions",
                 id="inputs_not_a_list"),
    pytest.param({"input_features": ["x"], "output_features": [Y]},
                 "input_features[0]: each feature must be a mapping", id="feature_not_a_mapping"),
    pytest.param(doc(inputs=({"type": "text"},)),
                 "input_features[0]: feature requires a non-empty 'name'", id="no_name"),
    pytest.param(doc(inputs=({"name": "x"},)), "input_features[0] (x): feature requires a 'type'",
                 id="no_type"),
    pytest.param(doc(inputs=({"name": "x", "type": "image"},)),
                 "input_features[0] (x): unknown type 'image'; "
                 "supported: binary, numerical, category, set, sequence, text, vector",
                 id="unknown_type"),
    pytest.param(doc(outputs=({"name": "y", "type": "text"},)),
                 "output_features[0] (y): type 'text' cannot be an output feature",
                 id="output_type"),
    pytest.param(doc(inputs=(dict(X, preprocessing=[]),)),
                 "input_features[0].preprocessing: preprocessing must be a mapping",
                 id="feature_preprocessing_not_a_mapping"),
    pytest.param(doc(inputs=(dict(X, preprocessing={"max_len": 3}),)),
                 "input_features[0].preprocessing: unknown preprocessing key 'max_len' for type "
                 "'text'; allowed: lowercase, max_sequence_length, missing_strategy, tokenizer, "
                 "vocab_size", id="feature_preprocessing_key"),
    pytest.param(doc(outputs=(dict(Y, preprocessing={"tokenizer": "space"}),)),
                 "output_features[0].preprocessing: unknown preprocessing key 'tokenizer' for type "
                 "'category'; allowed: lowercase, missing_strategy, vocab_size",
                 id="output_preprocessing_key"),
    pytest.param(doc(outputs=(dict(Y, dependencies="x"),)),
                 "output_features[0] (y): dependencies must be a list of feature names",
                 id="dependencies"),
    pytest.param(doc(outputs=(dict(Y, dependency_payload="logits"),)),
                 "output_features[0] (y): dependency_payload must be one of "
                 "last_hidden, probabilities", id="dependency_payload"),
    pytest.param(doc(outputs=(dict(Y, loss_weight="2"),)),
                 "output_features[0] (y): loss_weight must be a number", id="loss_weight"),
    pytest.param(doc(outputs=(dict(Y, loss_weight=True),)),
                 "output_features[0] (y): loss_weight must be a number", id="loss_weight_bool"),
    pytest.param(doc(outputs=(dict(Y, loss_weight=1e400),)),
                 "output_features[0] (y): loss_weight: expected a finite number, got inf",
                 id="loss_weight_inf"),
    pytest.param(doc(outputs=(dict(Y, loss_weight=10**400),)),
                 "output_features[0] (y): loss_weight: expected a finite number, got inf",
                 id="loss_weight_huge_int"),
    pytest.param(doc(outputs=(dict(Y, decoder=1),)),
                 "output_features[0] (y): decoder must be a string", id="decoder"),
    pytest.param(doc(inputs=(dict(X, encoder=["rnn"]),)),
                 "input_features[0] (x): encoder must be a string", id="encoder"),
    pytest.param(doc(combiner=[]), "combiner section must be a mapping", id="combiner"),
    pytest.param(doc(combiner={"name": 1}), "combiner.name must be a string", id="combiner_name"),
    pytest.param(doc(preprocessing=[]), "preprocessing section must be a mapping",
                 id="preprocessing"),
    pytest.param(doc(preprocessing={"image": {}}), "preprocessing: unknown feature type 'image'",
                 id="preprocessing_type"),
    pytest.param(doc(preprocessing={"numerical": {"vocab_size": 3}}),
                 "preprocessing.numerical: unknown preprocessing key 'vocab_size' for type "
                 "'numerical'; allowed: missing_strategy, normalization",
                 id="preprocessing_key"),
    pytest.param(doc(training=[]), "training section must be a mapping", id="training"),
    pytest.param(doc(training={"learningrate": 0.1}),
                 "training: unknown key 'learningrate'; expected one of epochs, batch_size, "
                 "optimizer, learning_rate, beta1, beta2, epsilon, decay, patience, seed, split, "
                 "split_column, validation_feature, validation_metric", id="training_key"),
    bad_type("epochs", 1.5, "int"),
    bad_type("batch_size", True, "int"),
    bad_type("optimizer", 1, "str"),
    bad_type("learning_rate", "0.1", "a number"),
    bad_type("beta1", None, "a number"),
    bad_type("beta2", [0.9], "a number"),
    bad_type("epsilon", False, "a number"),
    bad_type("decay", {"a": 1}, "a number"),
    bad_type("patience", "5", "int"),
    bad_type("seed", 4.0, "int"),
    bad_type("split", 0.5, "list"),
    bad_type("split_column", 3, "str"),
    bad_type("validation_feature", ["y"], "str"),
    bad_type("validation_metric", True, "str"),
    pytest.param(doc(training={"split": [0.7, "0.1", 0.2]}),
                 "training.split: fractions must be numbers", id="split_fractions"),
    pytest.param(doc(training={"epsilon": float("inf")}),
                 "training.epsilon: expected a finite number, got inf", id="epsilon_inf"),
    pytest.param(doc(training={"learning_rate": 10**400}),
                 "training.learning_rate: expected a finite number, got inf",
                 id="learning_rate_huge_int"),
    pytest.param(doc(training={"split": [0.7, float("nan"), 0.2]}),
                 "training.split: expected a finite number, got nan", id="split_nan"),
]


@pytest.mark.parametrize("document,message", SCHEMA_ERRORS)
def test_each_schema_error_word_for_word(document, message):
    with pytest.raises(SchemaError) as err:
        definition_from_dict(document)
    assert str(err.value) == message


TEXT_CNN = MINIMAL.replace("type: text", "type: text\n    encoder: cnn")
TAGGER = ("input_features:\n  - name: words\n    type: sequence\n"
          "output_features:\n  - name: tags\n    type: sequence\n")
TWO_OUTPUTS = MINIMAL + "  - name: score\n    type: numerical\n"


def check(damage, expected, text=MINIMAL, header=("title", "label")):
    """A resolved definition, damaged in place, and its diagnostics in order."""
    return pytest.param(text, damage, list(header), expected)


def pre(where, **values):
    """Damage ``where``'s resolved preprocessing: set each value, or drop it if None."""
    def damage(d):
        spec = (d.input_features + d.output_features)[where]
        for key, value in values.items():
            if value is None:
                del spec.preprocessing[key]
            else:
                spec.preprocessing[key] = value
    return damage


VALIDATE_DIAGNOSTICS = {
    "clean": check(lambda d: None, []),
    "duplicate_name": check(lambda d: setattr(d.output_features[0], "name", "title"), [
        "output_features.title: duplicate feature name",
        "training.validation_feature: 'label' is not an output feature"]),
    "column": check(lambda d: None, [
        "input_features.title: column 'title' not found in dataset header",
        "output_features.label: column 'label' not found in dataset header"], header=["other"]),
    "unknown_encoder": check(lambda d: setattr(d.input_features[0], "encoder", "rrn"), [
        "input_features.title: unknown encoder 'rrn' for type 'text'; "
        "registered: cnn, embed, rnn"]),
    "keyword_missing": check(lambda d: d.input_features[0].params.pop("embedding_size"), [
        "input_features.title.embedding_size: missing value"]),
    "keyword_not_accepted": check(lambda d: d.input_features[0].params.update(embeding_size=8), [
        "input_features.title.embeding_size: keyword 'embeding_size' is not accepted by "
        "SequenceEmbedEncoder; accepted: embedding_size"]),
    "embedding_size": check(lambda d: d.input_features[0].params.update(embedding_size=0), [
        "input_features.title.embedding_size: embedding_size must be a positive integer, got 0"]),
    "state_size": check(lambda d: d.input_features[0].params.update(state_size=2.5), [
        "input_features.title.state_size: keyword 'state_size' is not accepted by "
        "SequenceEmbedEncoder; accepted: embedding_size",
        "input_features.title.state_size: state_size must be a positive integer, got 2.5"]),
    "num_filters": check(lambda d: d.input_features[0].params.update(num_filters=True), [
        "input_features.title.num_filters: num_filters must be a positive integer, got True"],
        text=TEXT_CNN),
    "fc_sizes": check(lambda d: d.combiner.params.update(fc_sizes=[8, -1]), [
        "combiner.fc_sizes: fc_sizes must be a list of positive integers, got [8, -1]"]),
    "filter_widths": check(lambda d: d.input_features[0].params.update(filter_widths=[3, 4]), [
        "input_features.title.filter_widths: filter widths must be odd positive integers, "
        "got [3, 4]"], text=TEXT_CNN),
    "filter_widths_empty": check(lambda d: d.input_features[0].params.update(filter_widths=[]), [
        "input_features.title.filter_widths: filter widths must be odd positive integers, "
        "got []"], text=TEXT_CNN),
    "activation": check(lambda d: d.output_features[0].params.update(activation="gelu"), [
        "output_features.label.activation: unknown activation 'gelu'; "
        "available: relu, sigmoid, tanh"]),
    "preprocessing_missing": check(pre(0, lowercase=None, tokenizer=None), [
        "input_features.title.preprocessing.tokenizer: missing value",
        "input_features.title.preprocessing.lowercase: missing value"]),
    "missing_strategy": check(pre(1, missing_strategy="drop"), [
        "output_features.label.preprocessing: unknown missing_strategy 'drop'; "
        "available: fill_const, fill_mean, drop_row"]),
    "fill_mean": check(pre(0, missing_strategy="fill_mean"), [
        "input_features.title.preprocessing: missing_strategy fill_mean is only valid for "
        "numerical features"]),
    "fill_mean_first": check(pre(1, missing_strategy="fill_mean", vocab_size=0), [
        "output_features.label.preprocessing: missing_strategy fill_mean is only valid for "
        "numerical features",
        "output_features.label.preprocessing: vocab_size must be a positive integer"]),
    "normalization": check(pre(2, normalization="l2"), [
        "output_features.score.preprocessing: unknown normalization 'l2'; "
        "available: zscore, minmax, none"], text=TWO_OUTPUTS, header=("title", "label", "score")),
    "tokenizer": check(pre(0, tokenizer="whitespace"), [
        "input_features.title.preprocessing: unknown tokenizer 'whitespace'; "
        "available: character, space"]),
    "max_sequence_length": check(pre(0, max_sequence_length=0), [
        "input_features.title.preprocessing: max_sequence_length must be a positive integer"]),
    "vocab_size": check(pre(0, vocab_size="many"), [
        "input_features.title.preprocessing: vocab_size must be a positive integer"]),
    "lowercase": check(pre(0, lowercase=5), [
        "input_features.title.preprocessing: lowercase must be true or false"]),
    "unknown_decoder": check(lambda d: setattr(d.output_features[0], "decoder", "regressor"), [
        "output_features.label: unknown decoder 'regressor' for type 'category'; "
        "registered: classifier"]),
    # a model saved with the old loss key is refused as it is stored
    "loss": check(lambda d: None, [
        "output_features.label.loss: keyword 'loss' is not accepted by "
        "CategoryClassifierDecoder; accepted: activation, fc_sizes"],
        text=MINIMAL + "    loss: softmax_cross_entropy\n"),
    "loss_weight": check(lambda d: setattr(d.output_features[0], "loss_weight", 0.0), [
        "output_features.label: loss_weight must be positive, got 0.0"]),
    "self_dependency": check(lambda d: d.output_features[0].dependencies.append("label"), [
        "output_features.label: feature depends on itself"]),
    "unknown_dependency": check(lambda d: d.output_features[0].dependencies.append("ghost"), [
        "output_features.label: dependency 'ghost' is not a declared output feature"]),
    # an output named like a cycle gets each dependency diagnostic once
    "unknown_dependency_of_cycle": check(
        lambda d: (setattr(d.output_features[0], "name", "cycle"),
                   setattr(d.training, "validation_feature", "cycle"),
                   d.output_features[0].dependencies.append("nope")), [
            "output_features.cycle: dependency 'nope' is not a declared output feature"],
        header=("title", "cycle")),
    "self_dependency_of_bicycle": check(
        lambda d: (setattr(d.output_features[0], "name", "bicycle"),
                   setattr(d.training, "validation_feature", "bicycle"),
                   d.output_features[0].dependencies.append("bicycle")), [
            "output_features.bicycle: feature depends on itself"],
        header=("title", "bicycle")),
    "cycle": check(lambda d: (d.output_features[0].dependencies.append("score"),
                              d.output_features[1].dependencies.append("label")), [
        "output_features: output dependencies form a cycle: label -> score -> label"],
        text=TWO_OUTPUTS, header=("title", "label", "score")),
    "probabilities_from_tagger": check(
        lambda d: (d.output_features[1].dependencies.append("tags"),
                   setattr(d.output_features[1], "dependency_payload", "probabilities")), [
            "output_features.y: dependency 'tags': sequence origins only provide "
            "last_hidden payloads"],
        text=TAGGER + "  - name: y\n    type: category\n", header=("words", "tags", "y")),
    "tagger_without_sequence_input": check(lambda d: None, [
        "output_features.tags: sequence tagging requires a sequence or text input feature"],
        text=TAGGER.replace("type: sequence", "type: numerical", 1), header=("words", "tags")),
    "tagger_two_sequence_inputs": check(
        lambda d: d.input_features.append(copy.deepcopy(d.input_features[0])), [
            "input_features.words: duplicate feature name",
            "output_features.tags: sequence tagging over multiple sequence inputs is not "
            "supported; declare exactly one sequence or text input"],
        text=TAGGER, header=("words", "tags")),
    "tagger_cap": check(pre(1, max_sequence_length=20), [
        "output_features.tags: tagger max_sequence_length 20 must match input feature "
        "'words' (256)"], text=TAGGER, header=("words", "tags")),
    "unknown_combiner": check(lambda d: setattr(d.combiner, "name", "sum"), [
        "combiner: unknown combiner 'sum'; registered: concat"]),
    "combiner_keyword": check(lambda d: d.combiner.params.update(dropout=0.5), [
        "combiner.dropout: keyword 'dropout' is not accepted by ConcatCombiner; "
        "accepted: activation, fc_sizes"]),
    "training_missing": check(lambda d: (setattr(d.training, "seed", None),
                                         setattr(d.training, "split", None)), [
        "training.seed: missing value", "training.split: missing value"]),
    "epochs": check(lambda d: setattr(d.training, "epochs", -1), [
        "training.epochs: epochs must be >= 0"]),
    "batch_size": check(lambda d: setattr(d.training, "batch_size", 0), [
        "training.batch_size: batch_size must be >= 1"]),
    "optimizer": check(lambda d: setattr(d.training, "optimizer", "rmsprop"), [
        "training.optimizer: unknown optimizer 'rmsprop'; available: sgd, adam"]),
    "learning_rate": check(lambda d: setattr(d.training, "learning_rate", -1.0), [
        "training.learning_rate: learning_rate must be positive"]),
    "beta1": check(lambda d: setattr(d.training, "beta1", 1.0), [
        "training.beta1: beta1 must lie in [0, 1)"]),
    "beta2": check(lambda d: setattr(d.training, "beta2", -0.5), [
        "training.beta2: beta2 must lie in [0, 1)"]),
    "epsilon": check(lambda d: setattr(d.training, "epsilon", 0.0), [
        "training.epsilon: epsilon must be positive"]),
    "decay": check(lambda d: setattr(d.training, "decay", 1.5), [
        "training.decay: decay must lie in (0, 1]"]),
    "patience": check(lambda d: setattr(d.training, "patience", -1), [
        "training.patience: patience must be >= 0 (0 disables early stopping)"]),
    "split_and_split_column": check(lambda d: setattr(d.training, "split_column", "title"), [
        "training.split: provide either split fractions or split_column, not both"]),
    "split_length": check(lambda d: setattr(d.training, "split", [0.5, 0.5]), [
        "training.split: split needs exactly three fractions (train, validation, test)"]),
    "split_positive": check(lambda d: setattr(d.training, "split", [0.8, 0.2, 0.0]), [
        "training.split: split fractions must be positive"]),
    "split_sum": check(lambda d: setattr(d.training, "split", [0.5, 0.25, 0.125]), [
        "training.split: split fractions must sum to 1, got 0.875"]),
    "split_column": check(lambda d: (setattr(d.training, "split", None),
                                     setattr(d.training, "split_column", "fold")), [
        "training.split_column: split column 'fold' not found in dataset header"]),
    "validation_feature": check(lambda d: setattr(d.training, "validation_feature", "title"), [
        "training.validation_feature: 'title' is not an output feature"]),
    "validation_metric": check(lambda d: setattr(d.training, "validation_metric", "mse"), [
        "training.validation_metric: metric 'mse' is not valid for type 'category'"]),
}


@pytest.mark.parametrize("text,damage,header,expected", VALIDATE_DIAGNOSTICS.values(),
                         ids=VALIDATE_DIAGNOSTICS.keys())
def test_each_validate_diagnostic_word_for_word(registries, text, damage, header, expected):
    definition = resolve_defaults(parse_model_definition(text), registries)
    damage(definition)
    assert [str(d) for d in validate(definition, header, registries)] == expected


# ---------------------------------------------------------------------------
# any value at any declared key: a SchemaError, or a definition validate reads
# ---------------------------------------------------------------------------

#: YAML values: negative, zero, fractional, positive, bool, string, lists, null, and
#: two numbers beyond a float: one that reads as inf, and a 400-digit integer
POOL = ("-1", "0", "0.5", "3", "true", "maybe", "[]", "[3, 0.5]", "[3, 5]", "null", "1e400",
        "9" * 400)
INPUTS = [(f"in_{t}", t) for t in SUPPORTED_TYPES]
OUTPUTS = [(f"out_{t}", t) for t in OUTPUT_TYPES]


def keywords(table, ftype):
    return sorted({key for cls in table[ftype].values() for key in cls.DEFAULTS})


#: (section, owner, key): every training key, every feature's own keys, every
#: preprocessing key of each type, and every keyword of a built-in component
SLOTS = ([("training", None, f.name) for f in fields(TrainingParams)]
         + [("combiner", None, key) for key in ConcatCombiner.DEFAULTS]
         + [(kind, name, key) for name, ftype in INPUTS
            for kind, keys in (("feature", ("encoder",)),
                               ("keyword", keywords(ENCODERS, ftype)),
                               ("preprocessing", TYPE_PREPROC_DEFAULTS[ftype])) for key in keys]
         + [(kind, name, key) for name, ftype in OUTPUTS
            for kind, keys in (("feature", ("decoder", "loss_weight", "dependencies",
                                            "dependency_payload")),
                               ("keyword", keywords(DECODERS, ftype)),
                               ("preprocessing", TYPE_PREPROC_DEFAULTS[ftype])) for key in keys])


def definition_yaml(values: dict, encoders: dict) -> str:
    """A definition with a feature of every type and ``values`` at their slots."""
    def block(section, owner, indent):
        return "".join(f"{indent}{key}: {value}\n"
                       for (kind, name, key), value in values.items()
                       if (kind, name) == (section, owner))

    def feature(name, ftype, encoder=None):
        pre = block("preprocessing", name, "      ")
        # an encoder at its slot replaces the one drawn for the type
        if ("feature", name, "encoder") in values:
            encoder = None
        return (f"  - name: {name}\n    type: {ftype}\n"
                + (f"    encoder: {encoder}\n" if encoder else "")
                + block("feature", name, "    ") + block("keyword", name, "    ")
                + (f"    preprocessing:\n{pre}" if pre else ""))

    return ("input_features:\n"
            + "".join(feature(name, ftype, encoders.get(ftype)) for name, ftype in INPUTS)
            + "combiner:\n  name: concat\n" + block("combiner", None, "  ")
            + "output_features:\n" + "".join(feature(name, ftype) for name, ftype in OUTPUTS)
            + "training:\n" + block("training", None, "  "))


REGISTRIES = build_default_registries()


def check_any(values: dict, encoders: dict) -> None:
    """Parsing raises SchemaError, or validate reads the resolved definition
    without raising, and both states survive a JSON round trip unchanged."""
    try:
        parsed = parse_model_definition(definition_yaml(values, encoders))
    except SchemaError:
        return
    resolved = resolve_defaults(parsed, REGISTRIES)
    validate(resolved, [name for name, _ in INPUTS + OUTPUTS], REGISTRIES)
    for definition in (parsed, resolved):
        assert definition_from_dict(json.loads(json.dumps(definition.to_dict()))) == definition


def test_each_value_at_each_declared_key():
    for slot in SLOTS:
        for value in POOL:
            check_any({slot: value}, {"sequence": "rnn", "text": "cnn"})


@settings(max_examples=100, deadline=None)
@given(values=st.dictionaries(st.sampled_from(SLOTS), st.sampled_from(POOL), max_size=4),
       sequence=st.sampled_from(sorted(ENCODERS["sequence"])),
       text=st.sampled_from(sorted(ENCODERS["text"])))
def test_any_declared_values_are_a_schema_error_or_validate_without_raising(values, sequence,
                                                                            text):
    check_any(values, {"sequence": sequence, "text": text})
