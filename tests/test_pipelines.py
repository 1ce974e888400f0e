"""End-to-end pipeline behavior: caching, determinism, artifacts, prediction."""

import copy
import csv
import hashlib
import json
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecdkit import autodiff as ad
from ecdkit import features as ft
from ecdkit import pipelines
from ecdkit.artifacts import read_weights, write_weights
from ecdkit.autodiff import ParameterStore
from ecdkit.cache import FORMAT_VERSION, cache_path_for
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.data import SPLIT_NAMES, Dataset, load_dataset, split_dataset
from ecdkit.errors import ArtifactError, DataError, TrainingRuntimeError
from ecdkit.graph import ECDModel
from ecdkit.pipelines import (
    ValidationFailed,
    _forward_chunks,
    collect_metadata,
    evaluate_split,
    experiment,
    inference_block_rows,
    load_model,
    predict,
    preprocess_dataset,
    preprocess_features,
    save_model,
    train,
)
from ecdkit.registry import build_default_registries
from ecdkit.rng import Lcg

import synth
import oracles
from oracles import (
    as_cache_version_4,
    as_cache_version_5,
    as_version_1,
    as_version_2,
    string_metric,
)

BINARY_CONFIG = (
    "input_features:\n"
    "  - name: f0\n    type: numerical\n"
    "  - name: f1\n    type: numerical\n"
    "  - name: f2\n    type: numerical\n"
    "  - name: f3\n    type: numerical\n"
    "output_features:\n"
    "  - name: label\n    type: binary\n"
    "training:\n"
    "  epochs: 6\n"
    "  batch_size: 32\n"
    "  learning_rate: 0.02\n"
)

# on ``binary_csv`` with seed 3 this stops after five epochs, the third the best
EARLY_STOP_CONFIG = (BINARY_CONFIG.replace("learning_rate: 0.02", "learning_rate: 3.0")
                     + "  patience: 2\n")

TEXT_CONFIG = (
    "input_features:\n"
    "  - name: text\n    type: text\n"
    "output_features:\n"
    "  - name: label\n    type: category\n"
    "training:\n"
    "  epochs: 3\n"
    "  batch_size: 32\n"
)


def resolved(text):
    regs = build_default_registries()
    return resolve_defaults(parse_model_definition(text), regs)


@pytest.fixture()
def binary_csv(tmp_path):
    return synth.linear_binary(tmp_path / "data.csv", n=160, seed=1)


@pytest.fixture()
def text_csv(tmp_path):
    return synth.keyword_text(tmp_path / "text.csv", n=120, seed=2)


class TestCollectMetadata:

    def test_vocabulary_excludes_tokens_outside_training_split(self, tmp_path):
        rows = [["common word", "a", "train"],
                ["common again", "b", "train"],
                ["valonly token", "a", "validation"],
                ["testonly token", "b", "test"]]
        path = synth.write_rows(tmp_path / "d.csv", ["text", "label", "fold"], rows)
        definition = resolved(TEXT_CONFIG + "  split_column: fold\n")
        splits = split_dataset(load_dataset(path), None, "fold", seed=0)
        metadata = collect_metadata(splits["train"], definition)
        vocab = metadata["text"].token2id
        assert "common" in vocab and "word" in vocab
        assert "valonly" not in vocab and "testonly" not in vocab

    def test_two_runs_produce_byte_identical_metadata(self, tmp_path, binary_csv):
        from ecdkit.artifacts import write_metadata
        definition = resolved(BINARY_CONFIG)
        splits = split_dataset(load_dataset(binary_csv), [0.7, 0.1, 0.2], None, seed=7)
        files = []
        for run in range(2):
            meta = collect_metadata(splits["train"], definition)
            out = tmp_path / f"meta{run}.json"
            write_metadata(out, meta)
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_category_output_vocabulary_matches_counting_oracle(self, tmp_path):
        from collections import Counter
        rows = [["a b", "x"], ["b c", "y"], ["c", "x"], ["a", "x"]]
        path = synth.write_rows(tmp_path / "d.csv", ["text", "label"], rows)
        definition = resolved(TEXT_CONFIG)
        ds = load_dataset(path)
        metadata = collect_metadata(ds, definition)
        counts = Counter(ds.column("label"))
        expected = ["<UNK>"] + [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert metadata["label"].id2token == expected


class TestPreprocessDataset:

    def run_once(self, csv_path, definition, use_cache=True):
        from ecdkit.cache import compute_fingerprint, dataset_bytes
        ds = load_dataset(csv_path)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=3)
        metadata = collect_metadata(splits["train"], definition)
        cache_file = fingerprint = None
        if use_cache:
            cache_file = cache_path_for(csv_path)
            fingerprint = compute_fingerprint(dataset_bytes(csv_path), definition, 3)
        return preprocess_dataset(splits, metadata, definition, cache_file, fingerprint)

    def test_second_invocation_loads_identical_tensors(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        cold = self.run_once(text_csv, definition)
        assert cache_path_for(text_csv).exists()
        warm = self.run_once(text_csv, definition)
        for split in cold:
            for name in cold[split]:
                np.testing.assert_array_equal(cold[split][name], warm[split][name])

    def test_changed_max_sequence_length_recomputes(self, text_csv):
        base = resolved(TEXT_CONFIG)
        self.run_once(text_csv, base)
        changed = resolved(TEXT_CONFIG + "preprocessing:\n  text:\n    max_sequence_length: 3\n"
                           .replace("preprocessing", "preprocessing"))
        tensors = self.run_once(text_csv, changed)
        assert tensors["train"]["text"].shape[1] == 3

    def test_corrupt_cache_warns_and_recomputes(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        cold = self.run_once(text_csv, definition)
        cache_file = cache_path_for(text_csv)
        cache_file.write_bytes(cache_file.read_bytes()[:40])
        with pytest.warns(UserWarning, match="discarding"):
            warm = self.run_once(text_csv, definition)
        np.testing.assert_array_equal(cold["train"]["text"], warm["train"]["text"])

    def old_cache_warns_and_recomputes(self, csv_path, resign, version, config=TEXT_CONFIG):
        """The rebuilt tensors, after a cache re-signed by ``resign`` as
        ``version`` was discarded with a warning."""
        definition = resolved(config)
        cold = self.run_once(csv_path, definition)
        cache_file = cache_path_for(csv_path)
        cache_file.write_bytes(resign(cache_file.read_bytes()))
        with pytest.warns(UserWarning,
                          match=f"discarding.*format version {version}, expected {FORMAT_VERSION}"):
            warm = self.run_once(csv_path, definition)
        for split in cold:
            for name in cold[split]:
                np.testing.assert_array_equal(cold[split][name], warm[split][name])
        assert cache_file.read_bytes()[4:6] == FORMAT_VERSION.to_bytes(2, "little")
        return warm

    def test_version_1_cache_warns_and_recomputes(self, text_csv):
        self.old_cache_warns_and_recomputes(text_csv, as_version_1, 1)

    def test_version_3_cache_warns_and_recomputes(self, text_csv):
        # the BLAKE2b-64 cache of format version 3 is rebuilt, not trusted
        self.old_cache_warns_and_recomputes(text_csv, as_version_2, 3)

    def test_version_4_cache_warns_and_recomputes(self, binary_csv):
        # version 4 held numerical arrays normalized: read as raw, they would be wrong
        warm = self.old_cache_warns_and_recomputes(binary_csv, as_cache_version_4, 4,
                                                   BINARY_CONFIG)
        splits = split_dataset(load_dataset(binary_csv), [0.7, 0.1, 0.2], None, seed=3)
        for split, arrays in warm.items():
            for name in ("f0", "f1", "f2", "f3"):
                raw = [float(cell) for cell in splits[split].column(name)]
                assert arrays[name].shape == (len(raw), 1)
                assert arrays[name][:, 0].tolist() == raw

    def test_version_5_cache_warns_and_recomputes(self, text_csv):
        # version 5 had no metadata, so a hit could not build the model from it
        self.old_cache_warns_and_recomputes(text_csv, as_cache_version_5, 5)

    def test_full_path_matches_direct_preprocess_column(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        ds = load_dataset(text_csv)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=3)
        metadata = collect_metadata(splits["train"], definition)
        tensors = preprocess_dataset(splits, metadata, definition, None, None)
        spec = definition.input_features[0]
        row0 = splits["train"].column("text")[0]
        direct = ft.preprocess_column([row0], splits["train"].lines[:1], "text", metadata["text"],
                                      ft.PreprocParams(**spec.preprocessing))
        np.testing.assert_array_equal(tensors["train"]["text"][0], direct[0])


class TestTrain:

    def test_zero_epochs_yields_initialized_artifact(self, tmp_path, binary_csv):
        definition = resolved(BINARY_CONFIG.replace("epochs: 6", "epochs: 0"))
        model_dir, stats = train(definition, binary_csv, tmp_path / "run", seed=5)
        assert stats.epochs == [] and stats.best_epoch is None
        model, _, _ = load_model(model_dir)
        assert len(model.store) > 0

    def test_determinism_identical_runs(self, tmp_path, binary_csv):
        results = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            definition = resolved(BINARY_CONFIG)
            model_dir, stats = train(definition, binary_csv, out, seed=9)
            weights = (model_dir / "weights.bin").read_bytes()
            results.append((weights, stats.epochs, stats.best_epoch))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_validation_failure_carries_all_diagnostics(self, tmp_path, binary_csv):
        text = BINARY_CONFIG.replace("name: f0", "name: missing_col")
        definition = parse_model_definition(text.replace("type: binary",
                                                         "type: binary\n    decoder: nope"))
        with pytest.raises(ValidationFailed) as err:
            train(definition, binary_csv, tmp_path / "run")
        assert len(err.value.diagnostics) >= 2

    def test_non_finite_loss_aborts_with_epoch_and_batch(self, tmp_path, binary_csv):
        text = BINARY_CONFIG.replace("learning_rate: 0.02", "learning_rate: 1e18") \
                            .replace("type: binary", "type: binary\n    loss_weight: 1e30")
        # a float32 loss and gradient stay finite at this weight; lr times them does not
        definition = parse_model_definition(text)
        with pytest.raises(TrainingRuntimeError,
                           match=r"^non-finite update for parameter '[\w.]+' at epoch 0, batch 0$"):
            train(definition, binary_csv, tmp_path / "run", seed=1)

    def test_trained_parameters_are_views_of_the_arena(self, tmp_path, binary_csv):
        run = pipelines._run_training(resolved(BINARY_CONFIG), binary_csv, tmp_path / "run",
                                      3, True, None, None)
        store = run.model.store
        assert store.weights.size == sum(param.value.size for param in store)
        for param in store:
            assert np.shares_memory(param.value, store.weights)
            assert np.shares_memory(param.grad, store.grads)

    def test_tiny_learning_rate_stops_after_patience(self, tmp_path, binary_csv):
        text = BINARY_CONFIG.replace("learning_rate: 0.02", "learning_rate: 1e-15")
        definition = resolved(text + "  patience: 3\n  epochs: 40\n"
                              if "epochs" not in text else text)
        definition.training.patience = 3
        definition.training.epochs = 40
        _, stats = train(definition, binary_csv, tmp_path / "run", seed=2)
        assert len(stats.epochs) == 1 + 3
        assert stats.best_epoch == 0

    def test_best_checkpoint_is_extremal_over_recorded_epochs(self, tmp_path, binary_csv):
        definition = resolved(BINARY_CONFIG)
        _, stats = train(definition, binary_csv, tmp_path / "run", seed=4)
        losses = [e["validation_metrics"]["label"]["loss"] for e in stats.epochs]
        assert losses[stats.best_epoch] == min(losses)

    def test_progress_log_one_line_per_epoch(self, tmp_path, binary_csv):
        lines = []
        definition = resolved(BINARY_CONFIG)
        train(definition, binary_csv, tmp_path / "run", seed=4, log=lines.append)
        epoch_lines = [l for l in lines if l.startswith("epoch ")]
        assert len(epoch_lines) == len(load_json(tmp_path / "run" / "training_stats.json")["epochs"])


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestSaveLoad:

    def trained(self, tmp_path, binary_csv, seed=3):
        definition = resolved(BINARY_CONFIG)
        model_dir, _ = train(definition, binary_csv, tmp_path / "run", seed=seed)
        return model_dir

    def test_round_trip_forward_bit_identical(self, tmp_path, binary_csv):
        model_dir = self.trained(tmp_path, binary_csv)
        model, definition, metadata = load_model(model_dir)
        batch = {f"f{i}": np.linspace(-1, 1, 5).reshape(5, 1) for i in range(4)}
        before = model.forward(batch).predictions["label"]
        second_dir = save_model(model, tmp_path / "copy")
        reloaded, _, _ = load_model(second_dir)
        after = reloaded.forward(batch).predictions["label"]
        np.testing.assert_array_equal(before, after)

    def test_deleting_any_artifact_file_fails_loudly(self, tmp_path, binary_csv):
        for victim in ("metadata.json", "model_definition.json", "weights.bin"):
            model_dir = self.trained(tmp_path / victim.replace(".", "_"), binary_csv)
            (model_dir / victim).unlink()
            with pytest.raises(ArtifactError, match=victim):
                load_model(model_dir)

    def test_load_draws_no_weights(self, tmp_path, binary_csv, monkeypatch):
        model_dir = self.trained(tmp_path, binary_csv)
        draws = []
        uniform_array = Lcg.uniform_array
        monkeypatch.setattr(Lcg, "uniform_array",
                            lambda rng, *args: draws.append(args) or uniform_array(rng, *args))
        model, _, _ = load_model(model_dir)
        assert draws == []
        stored = read_weights(model_dir / "weights.bin")
        assert model.store.names() == list(stored)
        for param in model.store:
            assert param.value.tobytes() == stored[param.name].tobytes()

    def test_loaded_store_has_no_gradient_or_moment_buffer(self, tmp_path, binary_csv):
        model, _, _ = load_model(self.trained(tmp_path, binary_csv))
        assert model.store.weights is None and model.store.grads is None
        assert all(param.grad is None for param in model.store)

    def test_weights_that_do_not_fit_are_named(self, tmp_path, binary_csv):
        model_dir = self.trained(tmp_path, binary_csv)
        model, _, _ = load_model(model_dir)
        first = model.store.names()[0]
        dims = model.store[first].value.shape
        renamed = ParameterStore()
        for param in model.store:
            renamed.create("extra.w" if param.name == first else param.name, param.value)
        write_weights(model_dir / "weights.bin", renamed)
        with pytest.raises(ArtifactError) as err:
            load_model(model_dir)
        assert str(err.value) == ("weights do not match the model definition; "
                                  f"missing: {[first]}, unexpected: ['extra.w']")
        reshaped = ParameterStore()
        for param in model.store:
            reshaped.create(param.name, np.zeros(7) if param.name == first else param.value)
        write_weights(model_dir / "weights.bin", reshaped)
        with pytest.raises(ArtifactError) as err:
            load_model(model_dir)
        assert str(err.value) == f"weights for {first!r} have dims (7,), expected {dims}"

    def test_artifact_is_relocatable(self, tmp_path, binary_csv):
        import shutil
        model_dir = self.trained(tmp_path, binary_csv)
        moved = tmp_path / "elsewhere" / "model"
        moved.parent.mkdir()
        shutil.move(str(model_dir), str(moved))
        model, _, _ = load_model(moved)
        assert len(model.store) > 0


class TestPredict:

    def test_row_count_and_determinism(self, tmp_path, binary_csv):
        definition = resolved(BINARY_CONFIG)
        model_dir, _ = train(definition, binary_csv, tmp_path / "run", seed=3)
        out_a = tmp_path / "pred_a"
        out_b = tmp_path / "pred_b"
        path_a, metrics_a = predict(model_dir, binary_csv, out_a)
        path_b, _ = predict(model_dir, binary_csv, out_b)
        rows = path_a.read_text().strip().splitlines()
        assert len(rows) - 1 == len(load_dataset(binary_csv))
        assert path_a.read_bytes() == path_b.read_bytes()
        assert metrics_a is not None

    def test_missing_targets_means_no_metrics(self, tmp_path, binary_csv):
        definition = resolved(BINARY_CONFIG)
        model_dir, _ = train(definition, binary_csv, tmp_path / "run", seed=3)
        ds = load_dataset(binary_csv)
        inputs_only = tmp_path / "inputs.csv"
        synth.write_rows(inputs_only, ["f0", "f1", "f2", "f3"],
                         zip(*(ds.column(name) for name in ["f0", "f1", "f2", "f3"])))
        predictions_path, metrics_path = predict(model_dir, inputs_only, tmp_path / "pred")
        assert predictions_path.exists()
        assert metrics_path is None

    def test_category_predictions_stay_in_vocabulary(self, tmp_path, text_csv):
        definition = resolved(TEXT_CONFIG)
        model_dir, _ = train(definition, text_csv, tmp_path / "run", seed=3)
        predictions_path, _ = predict(model_dir, text_csv, tmp_path / "pred")
        import csv as csv_mod
        with open(predictions_path, newline="") as handle:
            rows = list(csv_mod.DictReader(handle))
        _, _, metadata = load_model(model_dir)
        vocab = set(metadata["label"].id2token)
        for row in rows:
            assert row["label"] in vocab
            assert row["label"] != "<PAD>"

    def test_probability_columns_are_valid_distributions(self, tmp_path, text_csv):
        definition = resolved(TEXT_CONFIG)
        model_dir, _ = train(definition, text_csv, tmp_path / "run", seed=3)
        predictions_path, _ = predict(model_dir, text_csv, tmp_path / "pred")
        import csv as csv_mod
        with open(predictions_path, newline="") as handle:
            rows = list(csv_mod.DictReader(handle))
        prob_cols = [c for c in rows[0] if c.startswith("label_probability_")]
        assert prob_cols
        for row in rows:
            values = [float(row[c]) for c in prob_cols]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert abs(sum(values) - 1.0) < 1e-6

    def test_probability_cells_are_the_float32_predictions(self, tmp_path, text_csv,
                                                          monkeypatch):
        definition = resolved(TEXT_CONFIG)
        model_dir, _ = train(definition, text_csv, tmp_path / "run", seed=3)
        passes = []
        monkeypatch.setattr(pipelines, "_forward_chunks", lambda *args, real=_forward_chunks,
                            **kwargs: passes.append(real(*args, **kwargs)) or passes[-1])
        predictions_path, _ = predict(model_dir, text_csv, tmp_path / "pred")
        _, _, metadata = load_model(model_dir)
        header, columns = read_columns(predictions_path)
        cells = np.array([[float(cell) for cell in columns[header.index(
            f"label_probability_{token}")]] for token in metadata["label"].id2token])
        [outputs] = passes
        assert cells.astype(np.float32).tobytes() == \
            outputs["label"].predictions.T.astype(np.float32).tobytes()

    def test_unknown_model_dir_is_artifact_error(self, tmp_path, binary_csv):
        with pytest.raises(ArtifactError):
            predict(tmp_path / "missing", binary_csv, tmp_path / "pred")

    def test_clean_columns_parse_without_the_per_cell_path(self, tmp_path, binary_csv,
                                                           monkeypatch):
        calls = []
        for name in ("parse_float", "parse_binary"):
            real = getattr(ft, name)
            monkeypatch.setattr(ft, name, lambda raw, real=real, name=name: (
                calls.append(name), real(raw))[1])
        definition = resolved(BINARY_CONFIG)
        experiment(definition, binary_csv, tmp_path / "cold", seed=3)
        calls.clear()
        model_dir, _, _ = experiment(definition, binary_csv, tmp_path / "warm", seed=3)
        predict(model_dir, binary_csv, tmp_path / "pred")
        assert calls == []
        # a bad cell runs the per-cell path, which names its line
        rows = [line.split(",") for line in binary_csv.read_text().splitlines()]
        rows[7][1], rows[9][4] = "1e400", "maybe"
        dirty = synth.write_rows(tmp_path / "dirty.csv", rows[0], rows[1:])
        with pytest.raises(DataError, match=r"^feature 'f1' row 8: non-finite numerical "
                                            r"value '1e400'$"):
            predict(model_dir, dirty, tmp_path / "pred")
        assert "parse_float" in calls
        rows[7][1] = "0.5"
        dirty = synth.write_rows(tmp_path / "dirty.csv", rows[0], rows[1:])
        with pytest.raises(DataError, match=r"^feature 'label' row 10: unrecognized binary "
                                            r"value 'maybe'"):
            predict(model_dir, dirty, tmp_path / "pred")
        assert "parse_binary" in calls


def predictions_csv_cases():
    """(definition, metadata, outputs) for ``_write_predictions_csv``: one to
    three outputs of any type, with cells and vocabulary tokens that need
    quoting, rows without tags, numerical values of every float64 kind and
    probabilities of every float32 kind."""
    text = st.text(st.sampled_from(["a", "Z", ",", '"', "\r", "\n", " ", "é", "\x00", "\t"])
                   | st.characters(codec="utf-8"), max_size=5)
    floats = st.sampled_from([1e-06, 5e-324, 1e16, -0.0, 0.5, 1.0]) \
        | st.floats(allow_nan=False, allow_infinity=False)
    # float32 values: -0.0, the smallest subnormal, a subnormal, the smallest
    # normal, the largest, and numbers of 9 significant digits
    float32s = st.sampled_from([float(np.float32(v)) for v in (
        1e-06, 1e-45, 3e-39, 1.1754944e-38, 3.4028235e38, -0.0, 0.5, 1.0, 0.8173269)]) \
        | st.floats(width=32, allow_nan=False, allow_infinity=False)

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 6))
        kinds = draw(st.lists(st.sampled_from(ft.OUTPUT_TYPES), min_size=1, max_size=3))
        specs, metadata, outputs = [], {}, {}
        for i, kind in enumerate(kinds):
            name = draw(text.filter(bool)) + f"{i}"
            tokens = draw(st.lists(text.filter(lambda t: t and t not in (ft.PAD, ft.UNK)),
                                   min_size=1, max_size=4, unique=True))
            lengths = None
            if kind == "binary":
                meta, shape = ft.BinaryMetadata(), (n, 1)
            elif kind == "numerical":
                meta, shape = ft.NumericalMetadata("numerical", 0.0, 1.0, "none", 0.0, 1.0), (n, 1)
            elif kind == "sequence":
                meta = ft.VocabMetadata("sequence", [ft.PAD, ft.UNK] + tokens)
                lengths = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
            else:
                meta = ft.VocabMetadata(kind, [ft.UNK] + tokens)
                shape = (n, meta.vocab_size)
            if kind == "sequence":
                predictions = np.array(draw(st.lists(st.integers(0, meta.vocab_size - 1),
                                                     min_size=int(lengths.sum()),
                                                     max_size=int(lengths.sum()))))
            elif kind == "numerical":
                predictions = draw(arrays(np.float64, shape, elements=floats))
            else:
                predictions = draw(arrays(np.float32, shape, elements=float32s))
            specs.append(SimpleNamespace(name=name, type=kind))
            metadata[name] = meta
            outputs[name] = pipelines._OutputRows(predictions, None, lengths, None)
        return SimpleNamespace(output_features=specs), metadata, outputs

    return build()


def csv_writer_rows(definition, metadata, outputs):
    """The header and rows ``predictions.csv`` holds, as the values
    ``csv.writer`` was given: strings, a probability as the string ``'%.9g'``
    of its float32, and a numerical value as a float it writes as its repr."""
    header, columns = [], []
    for spec in definition.output_features:
        meta, out = metadata[spec.name], outputs[spec.name]
        cells = ft.postprocess_prediction(out.predictions, spec.type, meta, out.lengths)
        header.append(spec.name)
        columns.append([" ".join(c) for c in cells] if spec.type in ("set", "sequence")
                       else cells)
        if spec.type == "binary":
            header.append(f"{spec.name}_probability")
        elif spec.type in ("category", "set"):
            header += [f"{spec.name}_probability_{token}" for token in meta.id2token]
        if spec.type in ("binary", "category", "set"):
            columns += [["%.9g" % v for v in column]
                        for column in out.predictions.astype(np.float32).T.tolist()]
    return [header] + [list(row) for row in zip(*columns)]


def read_columns(path) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header and the columns of cells of a written ``predictions.csv``."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return header, list(zip(*rows))


class TestPredictionsCsv:
    """``predictions.csv`` has the bytes ``csv.writer`` gives a probability's
    ``'%.9g'`` and a numerical value's float, and every value reads back."""

    @given(case=predictions_csv_cases())
    @settings(max_examples=150, deadline=None)
    def test_bytes_are_csv_writers(self, tmp_path_factory, case):
        path = tmp_path_factory.mktemp("csv") / "predictions.csv"
        pipelines._write_predictions_csv(path, *case)
        assert path.read_bytes() == oracles.csv_writer_bytes(csv_writer_rows(*case))

    @given(case=predictions_csv_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_value_reads_back_with_its_bits(self, tmp_path_factory, case):
        definition, metadata, outputs = case
        path = tmp_path_factory.mktemp("csv") / "predictions.csv"
        pipelines._write_predictions_csv(path, *case)
        _, columns = read_columns(path)
        position = 0
        for spec in definition.output_features:
            predictions = outputs[spec.name].predictions
            if spec.type == "numerical":
                cells = np.array([float(cell) for cell in columns[position]])
                assert cells.tobytes() == predictions[:, 0].astype(np.float64).tobytes()
            position += 1
            if spec.type in ("binary", "category", "set"):
                width = predictions.shape[1]
                cells = np.array([[float(cell) for cell in column]
                                  for column in columns[position:position + width]])
                assert cells.astype(np.float32).tobytes() == \
                    predictions.T.astype(np.float32).tobytes()
                position += width
        assert position == len(columns)

    def test_an_empty_only_field_is_quoted(self, tmp_path):
        meta = ft.VocabMetadata("sequence", [ft.PAD, ft.UNK, "a,b", "c"])
        outputs = {"tags": pipelines._OutputRows(np.array([2, 3, 0, 0]), None,
                                                 np.array([2, 0, 1, 1]), None)}
        definition = SimpleNamespace(output_features=[SimpleNamespace(name="tags",
                                                                      type="sequence")])
        path = tmp_path / "predictions.csv"
        pipelines._write_predictions_csv(path, definition, {"tags": meta}, outputs)
        assert path.read_bytes() == b'tags\r\n"a,b c"\r\n""\r\n""\r\n""\r\n'
        assert path.read_bytes() == oracles.csv_writer_bytes(
            csv_writer_rows(definition, {"tags": meta}, outputs))


class TestExperiment:

    def test_metrics_block_per_feature_per_split(self, tmp_path, binary_csv):
        definition = resolved(BINARY_CONFIG)
        _, _, metrics = experiment(definition, binary_csv, tmp_path / "run", seed=3)
        for split in ("train", "validation", "test"):
            assert "label" in metrics[split]
            assert "loss" in metrics[split]["label"]
            assert "accuracy" in metrics[split]["label"]

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path, binary_csv):
        files = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            experiment(resolved(BINARY_CONFIG), binary_csv, out, seed=8)
            files.append(((out / "metrics.json").read_bytes(),
                          (out / "model" / "weights.bin").read_bytes()))
        assert files[0] == files[1]

    def test_cache_transparency_cold_vs_warm(self, tmp_path, binary_csv):
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        experiment(resolved(BINARY_CONFIG), binary_csv, cold_dir, seed=8)
        assert cache_path_for(binary_csv).exists()
        experiment(resolved(BINARY_CONFIG), binary_csv, warm_dir, seed=8)
        assert (cold_dir / "metrics.json").read_bytes() == (warm_dir / "metrics.json").read_bytes()

    def test_no_cache_flag_gives_identical_metrics(self, tmp_path, binary_csv):
        a = tmp_path / "with_cache"
        b = tmp_path / "no_cache"
        experiment(resolved(BINARY_CONFIG), binary_csv, a, seed=8, use_cache=True)
        experiment(resolved(BINARY_CONFIG), binary_csv, b, seed=8, use_cache=False)
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    @pytest.mark.parametrize("config", [BINARY_CONFIG, EARLY_STOP_CONFIG],
                             ids=["last_epoch_best", "early_stop"])
    def test_training_split_is_evaluated_once_after_training(self, tmp_path, binary_csv,
                                                             monkeypatch, config):
        calls = []
        monkeypatch.setattr(pipelines, "evaluate_split",
                            lambda *args: calls.append(args[2]) or evaluate_split(*args))
        _, stats, metrics = experiment(resolved(config), binary_csv, tmp_path / "run", seed=3)
        splits = split_dataset(load_dataset(binary_csv), [0.7, 0.1, 0.2], None, seed=3)
        # validation after every epoch, then the training and test splits once;
        # the splits' row counts differ, so they name them
        assert len({len(split) for split in splits.values()}) == 3
        assert [len(rows) for rows in calls] == \
            [len(splits["validation"])] * len(stats.epochs) + \
            [len(splits["train"]), len(splits["test"])]
        assert metrics["validation"] == stats.epochs[stats.best_epoch]["validation_metrics"]
        # an epoch's training metrics score its own batches: one output, so its
        # loss is the epoch's running train loss
        for epoch in stats.epochs:
            assert epoch["train_metrics"]["label"]["loss"] == \
                pytest.approx(epoch["train_loss"], rel=1e-12)

    def test_without_validation_rows_the_training_split_steers(self, tmp_path, binary_csv,
                                                               monkeypatch):
        calls = []
        monkeypatch.setattr(pipelines, "evaluate_split",
                            lambda *args: calls.append(args[2]) or evaluate_split(*args))
        # int(160 * 0.005) == 0: the validation split is empty
        definition = resolved(EARLY_STOP_CONFIG + "  split: [0.8, 0.005, 0.195]\n")
        _, stats, metrics = experiment(definition, binary_csv, tmp_path / "run", seed=3)
        splits = split_dataset(load_dataset(binary_csv), [0.8, 0.005, 0.195], None, seed=3)
        assert len(splits["validation"]) == 0
        # the whole training split after every epoch, as the checkpoint is chosen by it
        assert [len(rows) for rows in calls] == \
            [len(splits["train"])] * (len(stats.epochs) + 1) + [len(splits["test"])]
        assert stats.best_epoch == 3
        assert metrics["validation"] == {}
        assert metrics["train"] == stats.epochs[stats.best_epoch]["train_metrics"]
        # the checkpoint the full evaluation chooses, pinned by the bytes of
        # its records (the file less its magic, version and trailer)
        weights = (tmp_path / "run" / "model" / "weights.bin").read_bytes()
        assert hashlib.sha256(weights[6:-8]).hexdigest() == \
            "0505a9ba0f172a3fea1583012c08080d9e820ca3f72f3c61e8b7965ca6816efc"

    @pytest.mark.parametrize("config", [BINARY_CONFIG, EARLY_STOP_CONFIG],
                             ids=["last_epoch_best", "early_stop"])
    def test_metrics_file_equals_a_fresh_evaluation_of_every_split(self, tmp_path, binary_csv,
                                                                   config):
        definition = resolved(config)
        run = pipelines._run_training(definition, binary_csv, tmp_path / "a", 3, True, None, None)
        fresh = {name: evaluate_split(run.model, run.tensors[name], run.splits[name],
                                      run.definition) for name in SPLIT_NAMES}
        experiment(definition, binary_csv, tmp_path / "b", seed=3)
        assert (tmp_path / "b" / "metrics.json").read_text(encoding="utf-8") == \
            json.dumps(fresh, sort_keys=True, indent=2) + "\n"

    def test_without_epochs_every_split_is_evaluated(self, tmp_path, binary_csv, monkeypatch):
        calls = []
        monkeypatch.setattr(pipelines, "evaluate_split",
                            lambda *args: calls.append(args[2]) or evaluate_split(*args))
        definition = resolved(BINARY_CONFIG.replace("epochs: 6", "epochs: 0"))
        _, stats, metrics = experiment(definition, binary_csv, tmp_path / "run", seed=3)
        assert stats.epochs == [] and stats.best_epoch is None
        assert len(calls) == 3
        assert sorted(metrics) == sorted(SPLIT_NAMES)
        assert all("accuracy" in metrics[name]["label"] for name in SPLIT_NAMES)

    def test_test_metrics_equal_independent_recomputation(self, tmp_path, text_csv):
        definition = resolved(TEXT_CONFIG)
        out = tmp_path / "run"
        model_dir, _, metrics = experiment(definition, text_csv, out, seed=6)
        # rebuild the test split independently and rescore the predictions
        ds = load_dataset(text_csv)
        splits = split_dataset(ds, definition.training.split, None, seed=6)
        test_csv = tmp_path / "test_rows.csv"
        synth.write_rows(test_csv, ["text", "label"],
                         zip(splits["test"].column("text"), splits["test"].column("label")))
        predictions_path, _ = predict(model_dir, test_csv, tmp_path / "pred")
        import csv as csv_mod
        with open(predictions_path, newline="") as handle:
            predicted = [row["label"] for row in csv_mod.DictReader(handle)]
        truths = splits["test"].column("label")
        accuracy = string_metric("accuracy", truths, predicted)
        assert abs(accuracy - metrics["test"]["label"]["accuracy"]) < 1e-12


def run_files(out) -> dict[str, bytes]:
    """The byte-compared files an ``experiment()`` writes."""
    model = out / "model"
    return {name: path.read_bytes() for name, path in [
        ("metrics.json", out / "metrics.json"), ("weights.bin", model / "weights.bin"),
        ("metadata.json", model / "metadata.json"),
        ("model_definition.json", model / "model_definition.json")]}


class TestCacheHit:
    """A warm run reads the dataset's bytes and header, and the cache."""

    def test_warm_experiment_parses_no_rows(self, tmp_path, binary_csv, monkeypatch):
        definition = resolved(BINARY_CONFIG)
        experiment(definition, binary_csv, tmp_path / "cold", seed=3)
        for name in ("load_dataset", "split_dataset", "collect_metadata",
                     "preprocess_features"):
            monkeypatch.setattr(pipelines, name, lambda *args, name=name: pytest.fail(name))
        reads = []
        read_cache = pipelines.cache_io.read_cache
        monkeypatch.setattr(pipelines.cache_io, "read_cache",
                            lambda *args: reads.append(args) or read_cache(*args))
        experiment(definition, binary_csv, tmp_path / "warm", seed=3)
        assert len(reads) == 1
        assert run_files(tmp_path / "warm") == run_files(tmp_path / "cold")

    @pytest.mark.parametrize("damage", ["truncated", "version_5"])
    def test_unusable_cache_warns_and_rebuilds_identical_artifacts(self, tmp_path, text_csv,
                                                                   damage):
        definition = resolved(TEXT_CONFIG)
        experiment(definition, text_csv, tmp_path / "cold", seed=6)
        cache_file = cache_path_for(text_csv)
        written = cache_file.read_bytes()
        cache_file.write_bytes(written[:-9] if damage == "truncated"
                               else as_cache_version_5(written))
        with pytest.warns(UserWarning, match="discarding unusable cache"):
            experiment(definition, text_csv, tmp_path / "rebuilt", seed=6)
        assert run_files(tmp_path / "rebuilt") == run_files(tmp_path / "cold")
        assert cache_file.read_bytes() == written

    def test_stale_cache_is_rebuilt_for_the_run(self, tmp_path, text_csv):
        # a cache of another seed's split: its fingerprint does not match
        definition = resolved(TEXT_CONFIG)
        experiment(definition, text_csv, tmp_path / "other", seed=5)
        experiment(definition, text_csv, tmp_path / "stale", seed=6)
        experiment(definition, text_csv, tmp_path / "none", seed=6, use_cache=False)
        assert run_files(tmp_path / "stale") == run_files(tmp_path / "none")


class TestNoLeakage:

    def test_perturbing_test_cells_leaves_metadata_and_weights_identical(self, tmp_path):
        rows = []
        for i in range(30):
            fold = "train" if i < 20 else ("validation" if i < 25 else "test")
            rows.append([f"tok{i % 7} tok{i % 3}", "x" if i % 2 else "y", fold])
        base = synth.write_rows(tmp_path / "base.csv", ["text", "label", "fold"], rows)
        definition_text = TEXT_CONFIG + "  split_column: fold\n"

        perturbed_rows = [list(r) for r in rows]
        perturbed_rows[-1][0] = "slartibartfast never seen"
        perturbed = synth.write_rows(tmp_path / "pert.csv", ["text", "label", "fold"],
                                     perturbed_rows)

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        train(resolved(definition_text), base, out_a, seed=1)
        train(resolved(definition_text), perturbed, out_b, seed=1)
        # metadata.json no longer carries token counts, so the weights are
        # compared too: a test-split token would move them through the vocabulary
        for name in ("metadata.json", "weights.bin"):
            assert (out_a / "model" / name).read_bytes() == (out_b / "model" / name).read_bytes()


class TestTaggerAlignment:

    def test_misaligned_tag_row_is_data_error_naming_row(self, tmp_path):
        rows = [["red dog", "color animal"], ["cat blue", "animal"], ["red", "color"]]
        path = synth.write_rows(tmp_path / "d.csv", ["tokens", "tags"], rows)
        text = ("input_features:\n  - name: tokens\n    type: sequence\n"
                "output_features:\n  - name: tags\n    type: sequence\n"
                "training:\n  epochs: 1\n  split: [0.4, 0.3, 0.3]\n")
        with pytest.raises(DataError, match="1:1"):
            train(resolved(text), path, tmp_path / "run", seed=1)


class TestOtherFeatureTypes:

    def test_vector_and_set_features_end_to_end(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(60):
            vec = rng.uniform(-1, 1, size=3)
            members = ["alpha"] if vec[0] > 0 else ["beta", "gamma"]
            target_set = "pos" if vec[0] > 0 else "neg low"
            rows.append([" ".join(repr(float(v)) for v in vec), " ".join(members), target_set])
        path = synth.write_rows(tmp_path / "d.csv", ["vec", "memberships", "labels"], rows)
        text = (
            "input_features:\n"
            "  - name: vec\n    type: vector\n"
            "  - name: memberships\n    type: set\n"
            "output_features:\n"
            "  - name: labels\n    type: set\n"
            "training:\n  epochs: 2\n  batch_size: 16\n"
        )
        _, _, metrics = experiment(resolved(text), path, tmp_path / "run", seed=2)
        assert "jaccard" in metrics["test"]["labels"]

    def test_learning_rate_decay_schedule(self, tmp_path, binary_csv, monkeypatch):
        import ecdkit.pipelines as pl
        recorded, norms = [], []
        real_step = pl.optimizer_step

        def spy(state, store):
            recorded.append(state.learning_rate)
            norms.append(math.sqrt(sum(float(g) ** 2 for g in store.grads)))
            return real_step(state, store)

        monkeypatch.setattr(pl, "optimizer_step", spy)
        text = BINARY_CONFIG.replace("epochs: 6", "epochs: 3") \
                            .replace("batch_size: 32", "batch_size: 200") \
            + "  decay: 0.5\n"
        _, stats = train(resolved(text), binary_csv, tmp_path / "run", seed=1)
        assert recorded == [0.02, 0.01, 0.005]
        # one step per epoch: the epoch's mean and max norm are that step's
        written = load_json(tmp_path / "run" / "training_stats.json")
        assert written["epochs"] == stats.epochs
        for epoch, rate, norm in zip(stats.epochs, recorded, norms):
            assert epoch["learning_rate"] == rate
            assert epoch["grad_norm_mean"] == epoch["grad_norm_max"]
            assert norm > 0.0 and abs(epoch["grad_norm_max"] - norm) < 1e-12 * norm
        assert written["blas_threads"] == {name: os.environ.get(name) for name in
                                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")}
        # 25 batches of 200 rows hold 5,000 one-value predictions
        assert written["inference_block_rows"] == stats.inference_block_rows == 5000

    def test_preprocess_error_carries_feature_and_row(self, tmp_path):
        rows = [["1.0", "true"], ["oops", "false"], ["3.0", "true"], ["4.0", "false"]]
        path = synth.write_rows(tmp_path / "d.csv", ["x", "label"], rows)
        text = ("input_features:\n  - name: x\n    type: numerical\n"
                "output_features:\n  - name: label\n    type: binary\n"
                "training:\n  epochs: 1\n  split: [0.5, 0.25, 0.25]\n")
        with pytest.raises(DataError, match=r"feature 'x' row \d+"):
            train(resolved(text), path, tmp_path / "run", seed=1)


class TestMissingValueStrategies:

    def test_drop_row_removes_rows_from_training(self, tmp_path):
        rows = [["1.0", "true"], ["", "false"], ["3.0", "true"], ["4.0", "false"],
                ["", "true"], ["6.0", "false"]] * 5
        path = synth.write_rows(tmp_path / "d.csv", ["x", "label"], rows)
        text = ("input_features:\n  - name: x\n    type: numerical\n"
                "    preprocessing:\n      missing_strategy: drop_row\n"
                "output_features:\n  - name: label\n    type: binary\n"
                "training:\n  epochs: 1\n  batch_size: 8\n")
        definition = resolved(text)
        out = tmp_path / "run"
        _, stats = train(definition, path, out, seed=2)
        assert stats.epochs  # trained on the surviving rows without error

    def test_predict_keeps_row_count_even_with_drop_row(self, tmp_path):
        rows = [["1.0", "true"], ["2.0", "false"], ["3.0", "true"], ["4.0", "false"]] * 6
        path = synth.write_rows(tmp_path / "d.csv", ["x", "label"], rows)
        text = ("input_features:\n  - name: x\n    type: numerical\n"
                "    preprocessing:\n      missing_strategy: drop_row\n"
                "output_features:\n  - name: label\n    type: binary\n"
                "training:\n  epochs: 1\n  batch_size: 8\n")
        model_dir, _ = train(resolved(text), path, tmp_path / "run", seed=2)
        holes = synth.write_rows(tmp_path / "holes.csv", ["x"], [["1.0"], [""], ["2.0"]])
        predictions_path, _ = predict(model_dir, holes, tmp_path / "pred")
        assert len(predictions_path.read_text().strip().splitlines()) == 4  # header + 3


class TestNumericalOracle:
    """A numerical column is parsed once, to raw values that the model
    normalizes; scoring reads those arrays, not the cells again."""

    TRAIN_CELLS = st.sampled_from(["0", "2.25", "-7", "1e3", "0.5"])
    CELLS = st.sampled_from(["0", "2.25", "-7", "1e3", "0.5", "-0.125", ""])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), normalization=st.sampled_from(ft.NORMALIZATIONS),
           fill=st.sampled_from(["fill_const", "fill_mean"]), batch_size=st.integers(1, 5))
    def test_scores_and_encoder_input_follow_the_raw_oracle(self, data, normalization, fill,
                                                            batch_size):
        preprocessing = (f"    preprocessing:\n      normalization: {normalization}\n"
                         f"      missing_strategy: {fill}\n")
        definition = resolved("input_features:\n  - name: x\n    type: numerical\n"
                              + preprocessing + "output_features:\n  - name: y\n"
                              "    type: numerical\n" + preprocessing
                              + f"training:\n  batch_size: {batch_size}\n")
        n, m = data.draw(st.integers(1, 6), label="train rows"), data.draw(st.integers(1, 9))
        train_cells = {name: data.draw(st.lists(self.TRAIN_CELLS, min_size=n, max_size=n),
                                       label=f"train {name}") for name in ("x", "y")}
        cells = {name: data.draw(st.lists(self.CELLS, min_size=m, max_size=m), label=name)
                 for name in ("x", "y")}
        metadata = collect_metadata(Dataset("train", train_cells, list(range(2, n + 2))),
                                    definition)
        split = Dataset("split", cells, list(range(2, m + 2)))
        specs = [*definition.input_features, *definition.output_features]
        arrays = preprocess_features(split, specs, metadata)
        model = ECDModel(definition, metadata, build_default_registries(), seed=5)
        oracle = {name: np.array(oracles.numerical_values(cells[name], fill, metadata[name].mean))
                  .reshape(-1, 1) for name in ("x", "y")}

        # the scores are the metrics of the split's predictions against the raw cells
        report = evaluate_split(model, arrays, split, definition)["y"]
        predictions = _forward_chunks(model, arrays, len(split), definition, True)["y"].predictions
        for kind in ("mse", "mae", "r2"):
            assert report[kind] == ft.compute_metric(kind, oracle["y"], predictions), kind

        # the encoder's constant is the normalized raw value, cast once to float32
        hidden = model.encoders["x"].forward(ad.Tape(grad=False, dtype=np.float32),
                                             arrays["x"]).hidden
        expected = np.asarray(metadata["x"].normalize(oracle["x"]), np.float32)
        assert hidden.value.array.dtype == np.float32
        assert hidden.value.array.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# a tagger reads neither the combiner nor the other inputs
# ---------------------------------------------------------------------------

TAGGER_WITH_UNREAD_PARTS = (
    "input_features:\n"
    "  - name: tokens\n    type: sequence\n    encoder: cnn\n    filter_widths: [3, 5]\n"
    "  - name: x\n    type: numerical\n"
    "combiner:\n  fc_sizes: [8]\n"
    "output_features:\n  - name: tags\n    type: sequence\n    decoder: tagger\n"
    "training:\n  epochs: 2\n  batch_size: 16\n"
)
# the weights of a graph that runs every part each step: the unread parts
# move no trained weight, and theirs stay as initialized
#: SHA-256 of the weights records (the file less its magic, version and trailer)
UNREAD_PARTS_WEIGHTS = {
    "adam": "6f6559bdd272d9f934318a1ec3d526ad2d2091d1b71ef798289d4478d2bb1e54",
    "sgd": "e3dffd84a28293a21efa64b504e3afa852413452e4c022d68de2a013fc9a441c",
}


@pytest.mark.parametrize("optimizer", sorted(UNREAD_PARTS_WEIGHTS))
def test_tagger_with_unread_parts_trains_to_pinned_weights(tmp_path, optimizer):
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(48):
        ids = rng.integers(6, size=int(rng.integers(1, 7)))
        tokens = [list(synth.TAG_RULE)[int(j)] for j in ids]
        rows.append([" ".join(tokens), repr(float(rng.normal())),
                     " ".join(synth.TAG_RULE[t] for t in tokens)])
    path = synth.write_rows(tmp_path / "d.csv", ["tokens", "x", "tags"], rows)
    text = TAGGER_WITH_UNREAD_PARTS + f"  optimizer: {optimizer}\n"
    model_dir, _ = train(parse_model_definition(text), path, tmp_path / "run", seed=3,
                         use_cache=False)
    digest = hashlib.sha256((model_dir / "weights.bin").read_bytes()[6:-8]).hexdigest()
    assert digest == UNREAD_PARTS_WEIGHTS[optimizer]


def test_same_seed_cnn_tagger_runs_write_identical_bytes(tmp_path):
    """float32 training is deterministic per seed: the weights, metrics and
    predictions of two runs are byte-identical."""
    path = synth.token_tagging(tmp_path / "d.csv", n=120, seed=2)
    text = ("input_features:\n  - name: tokens\n    type: sequence\n    encoder: cnn\n"
            "output_features:\n  - name: tags\n    type: sequence\n    decoder: tagger\n"
            "training:\n  epochs: 2\n  batch_size: 16\n")
    files = []
    for name in ("a", "b"):
        model_dir, _, _ = experiment(resolved(text), path, tmp_path / name, seed=4,
                                     use_cache=False)
        predictions, _ = predict(model_dir, path, tmp_path / name / "pred")
        files.append([(model_dir / "weights.bin").read_bytes(),
                      (tmp_path / name / "metrics.json").read_bytes(),
                      predictions.read_bytes()])
    assert files[0] == files[1]


# ---------------------------------------------------------------------------
# chunked, no-gradient evaluation and prediction
# ---------------------------------------------------------------------------

ALL_OUTPUTS_CONFIG = (
    "input_features:\n"
    "  - name: words\n    type: sequence\n    encoder: cnn\n    filter_widths: [3]\n"
    "  - name: x\n    type: numerical\n"
    "output_features:\n"
    "  - name: tags\n    type: sequence\n    decoder: tagger\n"
    "  - name: label\n    type: category\n"
    "  - name: ok\n    type: binary\n    dependencies: [label]\n"
    "  - name: score\n    type: numerical\n"
    "  - name: picks\n    type: set\n"
    "training:\n  epochs: 1\n  batch_size: 8\n"
)
ALL_OUTPUTS_ROWS = 37


def all_outputs_rows(n, seed=4):
    """Rows for every output type; every ninth row has no tokens, so a
    one-row chunk can carry a fully masked tagger loss."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        length = 0 if i % 9 == 4 else int(rng.integers(1, 6))
        tokens = [list(synth.TAG_RULE)[int(j)] for j in rng.integers(6, size=length)]
        x = float(rng.normal())
        rows.append([" ".join(tokens), repr(x), " ".join(synth.TAG_RULE[t] for t in tokens),
                     "hi" if x > 0 else "lo", "true" if length > 3 else "false",
                     repr(2 * x + 1), " ".join(sorted(set(tokens[:2])))])
    return rows


# the benchmark's tabular model: numerical, category and set inputs; a
# category output, a binary one that reads its probabilities, a numerical one
TABULAR_CONFIG = (
    "input_features:\n"
    "  - name: x1\n    type: numerical\n"
    "  - name: x2\n    type: numerical\n"
    "  - name: store\n    type: category\n"
    "  - name: basket\n    type: set\n"
    "output_features:\n"
    "  - name: quadrant\n    type: category\n"
    "  - name: same_sign\n    type: binary\n    dependencies: [quadrant]\n"
    "    dependency_payload: probabilities\n"
    "  - name: amount\n    type: numerical\n"
    "training:\n  batch_size: 32\n"
)


def tabular_dataset(n, seed=6):
    """``n`` rows for ``TABULAR_CONFIG``: four quadrants, 200 stores, baskets
    of up to three of twelve items."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=(2, n))
    columns = {
        "x1": [repr(v) for v in x1.tolist()],
        "x2": [repr(v) for v in x2.tolist()],
        "store": [f"s{i}" for i in rng.integers(200, size=n).tolist()],
        "basket": [" ".join(sorted({f"item{i}" for i in rng.integers(12, size=k).tolist()}))
                   for k in rng.integers(4, size=n).tolist()],
        "quadrant": [f"q{2 * a + b}" for a, b in zip((x1 > 0).tolist(), (x2 > 0).tolist())],
        "same_sign": ["true" if v > 0 else "false" for v in (x1 * x2).tolist()],
        "amount": [repr(v) for v in (x1 - 2 * x2).tolist()],
    }
    return Dataset("tabular", columns, list(range(2, n + 2)))


def evaluation_inputs(model_dir, dataset_path, batch_size, dtype=np.float32):
    """``evaluate_split``'s arguments for a dataset, at ``batch_size``, with
    the loaded weights in a model of ``dtype``."""
    loaded, definition, metadata = load_model(model_dir)
    model = ECDModel(definition, metadata, build_default_registries(),
                     definition.training.seed, initialize=False, dtype=dtype)
    model.store.restore({param.name: param.value for param in loaded.store})
    definition = copy.deepcopy(definition)
    definition.training.batch_size = batch_size
    dataset = load_dataset(dataset_path)
    specs = list(definition.input_features) + list(definition.output_features)
    return model, preprocess_features(dataset, specs, metadata), dataset, definition


@pytest.fixture(scope="module")
def all_outputs_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("all_outputs")
    path = synth.write_rows(tmp / "d.csv", ["words", "x", "tags", "label", "ok", "score", "picks"],
                            all_outputs_rows(ALL_OUTPUTS_ROWS))
    model_dir, _ = train(resolved(ALL_OUTPUTS_CONFIG), path, tmp / "run", seed=3,
                         use_cache=False)
    return model_dir, path


class TestChunkedEvaluation:

    @settings(max_examples=25, deadline=None)
    @given(block=st.integers(1, ALL_OUTPUTS_ROWS + 3))
    def test_any_chunk_size_matches_one_chunk(self, all_outputs_model, block):
        # float64, so that the last-bit BLAS differences between batch heights
        # stay within the float64 bounds below
        inputs = evaluation_inputs(*all_outputs_model, ALL_OUTPUTS_ROWS, np.float64)
        model, arrays, dataset, definition = inputs
        assert inference_block_rows(model, definition) >= ALL_OUTPUTS_ROWS

        def run(rows):
            # the rule's blocks cover every row at once, so the blocks are set here
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipelines, "inference_block_rows", lambda *_: rows)
                return (evaluate_split(*inputs),
                        _forward_chunks(model, arrays, len(dataset), definition, True))

        (expected, one), (got, many) = run(ALL_OUTPUTS_ROWS), run(block)
        assert sorted(got) == sorted(expected)
        for name, scores in expected.items():
            assert sorted(got[name]) == sorted(scores)
            for kind, value in scores.items():
                assert abs(got[name][kind] - value) <= 1e-12, (name, kind)
        for name, out in one.items():
            if name == "tags":
                np.testing.assert_array_equal(many[name].predictions, out.predictions)
            else:
                # a row's BLAS result may differ in the last bit with the batch height
                np.testing.assert_allclose(many[name].predictions, out.predictions,
                                           rtol=0, atol=1e-12)
            for got, want in ((many[name].truths, out.truths),
                              (many[name].lengths, out.lengths)):
                np.testing.assert_array_equal(got, want)

    def test_predict_runs_one_forward_per_chunk(self, all_outputs_model, tmp_path, monkeypatch):
        model_dir, path = all_outputs_model
        calls = []
        real_forward = ECDModel.forward

        def spy(model, batch, targets=None, grad=True):
            calls.append((len(next(iter(batch.values()))), targets is not None, grad))
            return real_forward(model, batch, targets, grad)

        monkeypatch.setattr(ECDModel, "forward", spy)
        _, metrics_path = predict(model_dir, path, tmp_path / "pred")
        assert metrics_path is not None
        block = inference_block_rows(*load_model(model_dir)[:2])
        assert len(calls) == math.ceil(ALL_OUTPUTS_ROWS / block)
        assert sum(rows for rows, _, _ in calls) == ALL_OUTPUTS_ROWS
        assert all(with_targets and not grad for _, with_targets, grad in calls)

    def test_inference_blocks_predict_the_bytes_of_training_batches(self, monkeypatch):
        """float32, a tabular-shaped model: rows that run in 1,024-row blocks
        get the predictions and loss terms they get in 32-row batches."""
        definition = resolved(TABULAR_CONFIG)
        dataset = tabular_dataset(2500)
        metadata = collect_metadata(dataset, definition)
        specs = [*definition.input_features, *definition.output_features]
        arrays = preprocess_features(dataset, specs, metadata)
        model = ECDModel(definition, metadata, build_default_registries(), seed=7)
        assert inference_block_rows(model, definition) == 1024
        blocks = _forward_chunks(model, arrays, len(dataset), definition, True)
        monkeypatch.setattr(pipelines, "INFERENCE_BLOCK_VALUES", 0)  # one batch a block
        assert inference_block_rows(model, definition) == 32
        batches = _forward_chunks(model, arrays, len(dataset), definition, True)
        for name, out in blocks.items():
            assert out.predictions.dtype == np.float64 and len(out.predictions) == 2500
            assert out.predictions.tobytes() == batches[name].predictions.tobytes(), name
            assert out.loss_terms.tobytes() == batches[name].loss_terms.tobytes(), name

    @pytest.mark.parametrize("edit, rows, expected", [
        ({}, 40, 1024),
        # 2,000 classes: one batch's predictions alone outgrow the budget
        ({"quadrant": [f"c{i}" for i in range(2000)]}, 2000, 32),
        # a text input's 4 padded positions count against the budget too
        ({"basket": ["w w w w"] + ["w"] * 39}, 40, 256),
    ], ids=["tabular", "wide_output", "positions"])
    def test_block_rule_fits_whole_batches_to_the_budget(self, edit, rows, expected):
        text = TABULAR_CONFIG
        if "basket" in edit:
            text = text.replace("name: basket\n    type: set", "name: basket\n    type: text")
        definition = resolved(text)
        dataset = tabular_dataset(rows)
        dataset.columns.update(edit)
        model = ECDModel(definition, collect_metadata(dataset, definition),
                         build_default_registries(), seed=1, initialize=False)
        assert inference_block_rows(model, definition) == expected

    def test_evaluation_memory_is_bounded_by_the_chunk(self, tmp_path):
        rng = np.random.default_rng(8)
        vocab = [f"w{i}" for i in range(40)]
        rows = []
        for _ in range(1024):
            ids = rng.integers(len(vocab), size=int(rng.integers(4, 25)))
            rows.append([" ".join(vocab[j] for j in ids), " ".join(f"t{j % 7}" for j in ids)])
        path = synth.write_rows(tmp_path / "d.csv", ["tokens", "tags"], rows)
        text = ("input_features:\n  - name: tokens\n    type: sequence\n    encoder: cnn\n"
                "    filter_widths: [3, 5, 7]\n"
                "output_features:\n  - name: tags\n    type: sequence\n    decoder: tagger\n"
                "training:\n  epochs: 0\n  batch_size: 128\n")
        model_dir, _ = train(resolved(text), path, tmp_path / "run", seed=1, use_cache=False)
        model, arrays, dataset, definition = evaluation_inputs(model_dir, path, 128)

        def peak(n):
            split = dataset.subset(list(range(n)))
            head = {name: array[:n] for name, array in arrays.items()}
            tracemalloc.start()
            try:
                evaluate_split(model, head, split, definition)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(256), peak(1024)
        assert large < 1.5 * small, (small, large)
