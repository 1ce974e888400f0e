"""End-to-end pipeline behavior: caching, determinism, artifacts, prediction."""

import json

import numpy as np
import pytest

from ecdkit import features as ft
from ecdkit.cache import FORMAT_VERSION, cache_path_for
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.data import load_dataset, split_dataset
from ecdkit.errors import ArtifactError, DataError, TrainingRuntimeError
from ecdkit.pipelines import (
    ValidationFailed,
    collect_metadata,
    experiment,
    load_model,
    predict,
    preprocess_dataset,
    save_model,
    train,
)
from ecdkit.registry import build_default_registries

import synth
from oracles import as_version_1

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

    def test_version_1_cache_warns_and_recomputes(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        cold = self.run_once(text_csv, definition)
        cache_file = cache_path_for(text_csv)
        cache_file.write_bytes(as_version_1(cache_file.read_bytes()))
        with pytest.warns(UserWarning,
                          match=f"discarding.*format version 1, expected {FORMAT_VERSION}"):
            warm = self.run_once(text_csv, definition)
        np.testing.assert_array_equal(cold["train"]["text"], warm["train"]["text"])
        assert cache_file.read_bytes()[4:6] == FORMAT_VERSION.to_bytes(2, "little")

    def test_full_path_matches_direct_preprocess_value(self, text_csv):
        definition = resolved(TEXT_CONFIG)
        ds = load_dataset(text_csv)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=3)
        metadata = collect_metadata(splits["train"], definition)
        tensors = preprocess_dataset(splits, metadata, definition, None, None)
        spec = definition.input_features[0]
        row0 = splits["train"].rows[0]["text"]
        direct = ft.preprocess_value(row0, "text", metadata["text"],
                                     ft.PreprocParams(**spec.preprocessing))
        np.testing.assert_array_equal(tensors["train"]["text"][0], direct.array)


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
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingRuntimeError, match=r"epoch \d+, batch \d+"):
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
        for victim in ("metadata.json", "model_definition.yaml", "weights.bin"):
            model_dir = self.trained(tmp_path / victim.replace(".", "_"), binary_csv)
            (model_dir / victim).unlink()
            with pytest.raises(ArtifactError, match=victim):
                load_model(model_dir)

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
        accuracy = ft.compute_metric("accuracy", truths, predicted)
        assert abs(accuracy - metrics["test"]["label"]["accuracy"]) < 1e-12


class TestNoLeakage:

    def test_perturbing_test_cells_leaves_metadata_identical(self, tmp_path):
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
        meta_a = (out_a / "model" / "metadata.json").read_bytes()
        meta_b = (out_b / "model" / "metadata.json").read_bytes()
        assert meta_a == meta_b


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
