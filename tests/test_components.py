"""Built-in encoders and decoders: pinned parameters and outputs, and the per-type tables.

The pins hold the SHA-256 of a freshly built model's parameter names and
weight bytes, and of one forward and backward pass over a fixed batch, for
definitions that together use every built-in encoder and decoder. A change
to how a component creates its parameters (their order, names or shapes) or
computes its outputs moves them. One more pin holds the arrays that
``preprocess_features`` makes of the fixed columns, and of none of their rows.
"""

import hashlib

import numpy as np
import pytest

from ecdkit import features as ft
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.data import Dataset
from ecdkit.decoders import DECODERS, DEFAULT_LOSSES, DEFAULT_PAYLOADS
from ecdkit.encoders import ENCODERS
from ecdkit.graph import ECDModel
from ecdkit.pipelines import collect_metadata, preprocess_features
from ecdkit.registry import build_default_registries

REGS = build_default_registries()

COLUMNS = {
    "num": ("numerical", ["0.5", "-1.25", "3", "2.5", "0", "1"]),
    "flag": ("binary", ["true", "false", "true", "true", "false", "false"]),
    "vec": ("vector", ["0.1 0.2 0.3", "1 0 -1", "0.5 0.5 0.5", "2 1 0", "0 0 0", "-1 2 1"]),
    "color": ("category", ["red", "green", "blue", "red", "green", "red"]),
    "members": ("set", ["a b", "b", "c a", "", "a b c", "c"]),
    "words": ("sequence", ["x y z", "y x", "z z y x", "x", "y z", "x x y"]),
    "prose": ("text", ["the cat sat", "a dog ran far", "the dog", "cat", "a cat ran", "dog sat"]),
    "more": ("sequence", ["p q", "q p p", "p", "q q q q", "p q p", "q"]),
    "label": ("category", ["hi", "lo", "hi", "mid", "lo", "hi"]),
    "ok": ("binary", ["false", "true", "true", "false", "true", "false"]),
    "score": ("numerical", ["1.5", "0.25", "-2", "0.75", "3", "1"]),
    "picks": ("set", ["u v", "v", "", "u w", "w", "u v w"]),
    "tags": ("sequence", ["A B A", "B A", "A A B B", "B", "A B", "B B A"]),
}
INPUTS = ("num", "flag", "vec", "color", "members", "words", "prose", "more")
OUTPUTS = ("label", "ok", "score", "picks", "tags")

SEQUENCE_ENCODERS = {
    "embed": "    encoder: embed\n    embedding_size: 6\n",
    "rnn": "    encoder: rnn\n    embedding_size: 4\n    state_size: 5\n",
    "cnn": ("    encoder: cnn\n    embedding_size: 3\n    num_filters: 2\n"
            "    filter_widths: [1, 3]\n"),
}


def definition_text(tagged: str) -> str:
    """Every built-in component; the tagger reads ``words``, encoded by ``tagged``."""
    others = [name for name in SEQUENCE_ENCODERS if name != tagged]
    return (
        "input_features:\n"
        "  - name: num\n    type: numerical\n    fc_sizes: [3]\n"
        "  - name: flag\n    type: binary\n"
        "  - name: vec\n    type: vector\n    encoder: dense\n    fc_sizes: [4]\n"
        "  - name: color\n    type: category\n    encoder: embed\n    embedding_size: 5\n"
        "  - name: members\n    type: set\n    encoder: embed_sum\n    embedding_size: 4\n"
        "  - name: words\n    type: sequence\n" + SEQUENCE_ENCODERS[tagged]
        + "  - name: prose\n    type: text\n" + SEQUENCE_ENCODERS[others[0]]
        + "  - name: more\n    type: sequence\n" + SEQUENCE_ENCODERS[others[1]]
        + "combiner:\n  fc_sizes: [8]\n"
        "output_features:\n"
        "  - name: label\n    type: category\n    decoder: classifier\n    fc_sizes: [4]\n"
        "  - name: ok\n    type: binary\n    decoder: regressor\n    dependencies: [label]\n"
        "  - name: score\n    type: numerical\n    decoder: regressor\n"
        "    dependencies: [ok]\n    dependency_payload: last_hidden\n"
        "  - name: picks\n    type: set\n    decoder: classifier\n"
        "  - name: tags\n    type: sequence\n    decoder: tagger\n    fc_sizes: [3]\n"
    )


def build(tagged: str):
    definition = resolve_defaults(parse_model_definition(definition_text(tagged)), REGS)
    params = ft.PreprocParams()
    metadata = {name: ft.build_metadata(column, ftype, params)
                for name, (ftype, column) in COLUMNS.items()}
    arrays = {name: ft.preprocess_column(column, range(2, 2 + len(column)), ftype,
                                         metadata[name], params)
              for name, (ftype, column) in COLUMNS.items()}
    return ECDModel(definition, metadata, REGS, seed=7), arrays


def parameter_digest(model: ECDModel) -> str:
    h = hashlib.sha256()
    for param in model.store:
        h.update(param.name.encode() + b"\0" + param.tensor.array.tobytes())
    return h.hexdigest()


def pass_digest(model: ECDModel, arrays: dict) -> str:
    result = model.forward({n: arrays[n] for n in INPUTS}, {n: arrays[n] for n in OUTPUTS})
    h = hashlib.sha256()
    for name in model.decoder_order:
        h.update(name.encode() + b"\0" + result.predictions[name].array.tobytes())
        terms, weights = result.loss_rows[name]
        h.update(np.float64(terms.sum() / weights.sum()).tobytes())
    h.update(np.float64(result.combined_loss).tobytes())
    for name, grad in sorted(model.backward(result).items()):
        h.update(name.encode() + b"\0" + grad.array.tobytes())
    return h.hexdigest()


def arrays_digest(blocks: list[dict]) -> str:
    h = hashlib.sha256()
    for arrays in blocks:
        for name, array in sorted(arrays.items()):
            h.update(f"{name}\0{array.dtype.str}\0{array.shape}\0".encode() + array.tobytes())
    return h.hexdigest()


PINNED_ARRAYS = "6213df89fcf8721b049e7b91b22d00c8b0ac76d208bddb4ac13826be63ccd46a"
PINNED = {
    "embed": ("af1c4878b1d1487b8bed1b58be83dbde9daf1fd140b0d1af31fd7cade8144603",
              "0a4e71db8cf27398b22d816f64b59d06023dda6d4fd0724a94fc6abe47deecbf"),
    "rnn": ("161cd76ca69400e21e2b021a3d96085d32f77f172d88afd2aa75b41eb03813de",
            "ed438fda5a039abbd030ce34c1b90b3e517a8476cb28908cc21988ba43ee22e7"),
    "cnn": ("e3c4066b5e5cd7d56b05d3167fa6bf7ad5f238f8b6b1ae2f698a16fef8c96194",
            "bc39a691fc5ff1b62d56a287d589f96bea538ab33fe90b91fca7f40b4f3504c8"),
}


class TestPinnedComponents:

    @pytest.mark.parametrize("tagged", sorted(PINNED))
    def test_parameters_and_pass_are_pinned(self, tagged):
        model, arrays = build(tagged)
        assert (parameter_digest(model), pass_digest(model, arrays)) == PINNED[tagged]

    def test_preprocessed_arrays_are_pinned(self):
        definition = resolve_defaults(parse_model_definition(definition_text("embed")), REGS)
        specs = [*definition.input_features, *definition.output_features]
        rows = [dict(zip(COLUMNS, cells))
                for cells in zip(*(column for _, column in COLUMNS.values()))]
        dataset = Dataset("components", list(COLUMNS), rows, list(range(2, 2 + len(rows))))
        metadata = collect_metadata(dataset, definition)
        blocks = [preprocess_features(split, specs, metadata)
                  for split in (dataset, dataset.subset([]))]
        assert all(array.dtype == np.float64 and array.flags.c_contiguous
                   for arrays in blocks for array in arrays.values())
        assert arrays_digest(blocks) == PINNED_ARRAYS

    def test_definitions_use_every_builtin_component(self):
        used_encoders, used_decoders = set(), set()
        for tagged in PINNED:
            model, _ = build(tagged)
            used_encoders.update(type(enc) for enc in model.encoders.values())
            used_decoders.update(type(dec) for dec in model.decoders.values())
        assert used_encoders == {cls for table in ENCODERS.values() for cls in table.values()}
        assert used_decoders == {cls for table in DECODERS.values() for cls in table.values()}


class TestTypeTables:

    def test_output_type_tables_agree(self):
        types = set(ft.OUTPUT_TYPES)
        assert len(types) == len(ft.OUTPUT_TYPES)
        for table in (DECODERS, DEFAULT_LOSSES, ft.TYPE_METRICS, DEFAULT_PAYLOADS):
            assert set(table) == types

    def test_input_type_tables_agree(self):
        types = set(ft.SUPPORTED_TYPES)
        assert len(types) == len(ft.SUPPORTED_TYPES)
        for table in (ENCODERS, ft.TYPE_PREPROC_DEFAULTS):
            assert set(table) == types

    def test_defaults_are_the_first_registered_names(self):
        inputs = "".join(f"  - name: f_{t}\n    type: {t}\n" for t in ft.SUPPORTED_TYPES)
        outputs = "".join(f"  - name: o_{t}\n    type: {t}\n" for t in ft.OUTPUT_TYPES)
        definition = resolve_defaults(parse_model_definition(
            f"input_features:\n{inputs}output_features:\n{outputs}"), REGS)
        for spec in definition.input_features:
            assert spec.encoder == next(iter(ENCODERS[spec.type]))
        for spec in definition.output_features:
            assert spec.decoder == next(iter(DECODERS[spec.type]))
            assert spec.loss == DEFAULT_LOSSES[spec.type]
