"""End-to-end pipeline behavior: caching, determinism, artifacts, prediction."""

import copy
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit import features as ft
from ecdkit import pipelines
from ecdkit.artifacts import read_weights, write_weights
from ecdkit.autodiff import ParameterStore
from ecdkit.cache import FORMAT_VERSION, cache_path_for
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.data import SPLIT_NAMES, load_dataset, split_dataset
from ecdkit.errors import ArtifactError, DataError, TrainingRuntimeError
from ecdkit.graph import ECDModel
from ecdkit.pipelines import (
    ValidationFailed,
    _forward_chunks,
    collect_metadata,
    evaluate_split,
    experiment,
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
from oracles import as_version_1, as_version_2, string_metric

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
        counts = Counter(r["label"] for r in ds.rows)
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

    def old_cache_warns_and_recomputes(self, text_csv, resign, version):
        definition = resolved(TEXT_CONFIG)
        cold = self.run_once(text_csv, definition)
        cache_file = cache_path_for(text_csv)
        cache_file.write_bytes(resign(cache_file.read_bytes()))
        with pytest.warns(UserWarning,
                          match=f"discarding.*format version {version}, expected {FORMAT_VERSION}"):
            warm = self.run_once(text_csv, definition)
        np.testing.assert_array_equal(cold["train"]["text"], warm["train"]["text"])
        assert cache_file.read_bytes()[4:6] == FORMAT_VERSION.to_bytes(2, "little")

    def test_version_1_cache_warns_and_recomputes(self, text_csv):
        self.old_cache_warns_and_recomputes(text_csv, as_version_1, 1)

    def test_version_3_cache_warns_and_recomputes(self, text_csv):
        # the BLAKE2b-64 cache of format version 3 is rebuilt, not trusted
        self.old_cache_warns_and_recomputes(text_csv, as_version_2, 3)

    def test_full_path_matches_direct_preprocess_column(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        ds = load_dataset(text_csv)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=3)
        metadata = collect_metadata(splits["train"], definition)
        tensors = preprocess_dataset(splits, metadata, definition, None, None)
        spec = definition.input_features[0]
        row0 = splits["train"].rows[0]["text"]
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
                            .replace("type: binary", "type: binary\n    loss_weight: 1e300")
        definition = parse_model_definition(text)
        with pytest.raises(TrainingRuntimeError,
                           match=r"^non-finite update for parameter '[\w.]+' at epoch 0, batch 0$"):
            train(definition, binary_csv, tmp_path / "run", seed=1)

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
        before = model.forward(batch).predictions["label"].array
        second_dir = save_model(model, tmp_path / "copy")
        reloaded, _, _ = load_model(second_dir)
        after = reloaded.forward(batch).predictions["label"].array
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
            assert param.tensor.array.tobytes() == stored[param.name].tobytes()

    def test_weights_that_do_not_fit_are_named(self, tmp_path, binary_csv):
        model_dir = self.trained(tmp_path, binary_csv)
        model, _, _ = load_model(model_dir)
        first = model.store.names()[0]
        dims = model.store[first].tensor.dims
        renamed = ParameterStore()
        for param in model.store:
            renamed.create("extra.w" if param.name == first else param.name, param.tensor.array)
        write_weights(model_dir / "weights.bin", renamed)
        with pytest.raises(ArtifactError) as err:
            load_model(model_dir)
        assert str(err.value) == ("weights do not match the model definition; "
                                  f"missing: {[first]}, unexpected: ['extra.w']")
        reshaped = ParameterStore()
        for param in model.store:
            reshaped.create(param.name, np.zeros(7) if param.name == first else param.tensor.array)
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
                         [[r["f0"], r["f1"], r["f2"], r["f3"]] for r in ds.rows])
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

    def test_unknown_model_dir_is_artifact_error(self, tmp_path, binary_csv):
        with pytest.raises(ArtifactError):
            predict(tmp_path / "missing", binary_csv, tmp_path / "pred")


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
        # validation after every epoch, then the training and test splits once
        assert [split.lines for split in calls] == \
            [splits["validation"].lines] * len(stats.epochs) + \
            [splits["train"].lines, splits["test"].lines]
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
        assert [split.lines for split in calls] == \
            [splits["train"].lines] * (len(stats.epochs) + 1) + [splits["test"].lines]
        assert stats.best_epoch == 3
        assert metrics["validation"] == {}
        assert metrics["train"] == stats.epochs[stats.best_epoch]["train_metrics"]
        # the checkpoint the full evaluation chooses, pinned by the bytes of
        # its records (the file less its magic, version and trailer)
        weights = (tmp_path / "run" / "model" / "weights.bin").read_bytes()
        assert hashlib.sha256(weights[6:-8]).hexdigest() == \
            "7349d8916ad51349cc34555d34284a4b184ab934c9025d126d616a440013a796"

    @pytest.mark.parametrize("config", [BINARY_CONFIG, EARLY_STOP_CONFIG],
                             ids=["last_epoch_best", "early_stop"])
    def test_metrics_file_equals_a_fresh_evaluation_of_every_split(self, tmp_path, binary_csv,
                                                                   config):
        definition = resolved(config)
        run = pipelines._run_training(definition, binary_csv, tmp_path / "a", 3, True, None, None)
        fresh = {name: evaluate_split(run.model, run.tensors[name], run.splits[name],
                                      run.definition, run.metadata) for name in SPLIT_NAMES}
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
                         [[r["text"], r["label"]] for r in splits["test"].rows])
        predictions_path, _ = predict(model_dir, test_csv, tmp_path / "pred")
        import csv as csv_mod
        with open(predictions_path, newline="") as handle:
            predicted = [row["label"] for row in csv_mod.DictReader(handle)]
        truths = [r["label"] for r in splits["test"].rows]
        accuracy = string_metric("accuracy", truths, predicted)
        assert abs(accuracy - metrics["test"]["label"]["accuracy"]) < 1e-12


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
        recorded = []
        real_step = pl.optimizer_step

        def spy(state, params, grads):
            recorded.append(state.learning_rate)
            return real_step(state, params, grads)

        monkeypatch.setattr(pl, "optimizer_step", spy)
        text = BINARY_CONFIG.replace("epochs: 6", "epochs: 3") \
                            .replace("batch_size: 32", "batch_size: 200") \
            + "  decay: 0.5\n"
        train(resolved(text), binary_csv, tmp_path / "run", seed=1)
        assert recorded == [0.02, 0.01, 0.005]

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
    "adam": "bcbb953fde208a412d71ccd4abc6ab5b9ab963a6ec13024af38d8dd1eb469e40",
    "sgd": "6f1438502f72f5f86b7634ecaef6fe2527105199daf1d07a73c2e70782883b42",
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


def evaluation_inputs(model_dir, dataset_path, batch_size):
    """``evaluate_split``'s arguments for a dataset, at ``batch_size``."""
    model, definition, metadata = load_model(model_dir)
    definition = copy.deepcopy(definition)
    definition.training.batch_size = batch_size
    dataset = load_dataset(dataset_path)
    specs = list(definition.input_features) + list(definition.output_features)
    return model, preprocess_features(dataset, specs, metadata), dataset, definition, metadata


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
    @given(batch_size=st.integers(1, ALL_OUTPUTS_ROWS + 3))
    def test_any_chunk_size_matches_one_chunk(self, all_outputs_model, batch_size):
        one = evaluation_inputs(*all_outputs_model, ALL_OUTPUTS_ROWS)
        many = evaluation_inputs(*all_outputs_model, batch_size)
        expected, got = evaluate_split(*one), evaluate_split(*many)
        assert sorted(got) == sorted(expected)
        for name, block in expected.items():
            assert sorted(got[name]) == sorted(block)
            for kind, value in block.items():
                assert abs(got[name][kind] - value) <= 1e-12, (name, kind)
        rows = [_forward_chunks(model, arrays, len(dataset), definition, metadata, True)
                for model, arrays, dataset, definition, metadata in (one, many)]
        for name, out in rows[0].items():
            if name == "tags":
                np.testing.assert_array_equal(rows[1][name].predictions, out.predictions)
            else:
                # a row's BLAS result may differ in the last bit with the batch height
                np.testing.assert_allclose(rows[1][name].predictions, out.predictions,
                                           rtol=0, atol=1e-12)
            for got, want in ((rows[1][name].truths, out.truths),
                              (rows[1][name].lengths, out.lengths)):
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
        batch_size = load_model(model_dir)[1].training.batch_size
        assert len(calls) == math.ceil(ALL_OUTPUTS_ROWS / batch_size)
        assert sum(rows for rows, _, _ in calls) == ALL_OUTPUTS_ROWS
        assert all(with_targets and not grad for _, with_targets, grad in calls)

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
        model, arrays, dataset, definition, metadata = evaluation_inputs(model_dir, path, 128)

        def peak(n):
            split = dataset.subset(list(range(n)))
            head = {name: array[:n] for name, array in arrays.items()}
            tracemalloc.start()
            try:
                evaluate_split(model, head, split, definition, metadata)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(256), peak(1024)
        assert large < 1.5 * small, (small, large)
