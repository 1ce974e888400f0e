"""Definition parsing, default resolution, validation, and registries."""

import pytest

from ecdkit.artifacts import read_json, write_json
from ecdkit.config import (
    definition_from_dict,
    parse_model_definition,
    resolve_defaults,
    validate,
)
from ecdkit.errors import RegistryError, SchemaError
from ecdkit.registry import Registry, build_default_registries, register_component

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
        assert d.output_features[0].loss == "softmax_cross_entropy"
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
        d.output_features[0].loss = "mse"
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
            ACCEPTED = frozenset({"width"})

        register_component(registries.encoders, "myenc", MyEncoder, scope="text")
        d = parse_model_definition(MINIMAL.replace("type: text", "type: text\n    encoder: myenc"))
        resolved = resolve_defaults(d, registries)
        assert resolved.input_features[0].params == {"width": 4}
        assert validate(resolved, ["title", "label"], registries) == []

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
