"""Command-line interface: exit codes, outputs, determinism."""

import json
import struct
from pathlib import Path

import pytest

from ecdkit.cache import digest64
from ecdkit.cli import main

import synth
from oracles import as_version_1

CONFIG = (
    "input_features:\n"
    "  - name: f0\n    type: numerical\n"
    "  - name: f1\n    type: numerical\n"
    "  - name: f2\n    type: numerical\n"
    "  - name: f3\n    type: numerical\n"
    "output_features:\n"
    "  - name: label\n    type: binary\n"
    "training:\n"
    "  epochs: 3\n"
    "  batch_size: 32\n"
)


@pytest.fixture()
def workspace(tmp_path):
    dataset = synth.linear_binary(tmp_path / "data.csv", n=120, seed=0)
    config = tmp_path / "model.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    return tmp_path, config, dataset


def run(args):
    return main([str(a) for a in args])


class TestTrainCommand:

    def test_happy_path_populates_model_directory(self, workspace, capsys):
        tmp, config, dataset = workspace
        code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "run", "--seed", 1])
        assert code == 0
        for name in ("metadata.json", "model_definition.yaml", "weights.bin"):
            assert (tmp / "run" / "model" / name).exists()
        assert (tmp / "run" / "training_stats.json").exists()
        out = capsys.readouterr().out
        assert out.count("epoch ") == 3

    def test_unknown_encoder_exits_2_with_stderr_diagnostic(self, workspace, capsys):
        tmp, config, dataset = workspace
        config.write_text(CONFIG.replace("type: numerical", "type: numerical\n    encoder: bogus", 1),
                          encoding="utf-8")
        code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "run"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_dataset_flag_is_usage_error(self, workspace, capsys):
        tmp, config, _ = workspace
        code = run(["train", "-c", config])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_dataset_file_exits_3(self, workspace):
        tmp, config, _ = workspace
        assert run(["train", "-c", config, "-d", tmp / "nope.csv", "-o", tmp / "run"]) == 3

    def test_runtime_error_exits_4(self, workspace, capsys):
        import numpy as np
        tmp, config, dataset = workspace
        config.write_text(
            CONFIG.replace("  batch_size: 32\n",
                           "  batch_size: 32\n  learning_rate: 1e18\n  optimizer: sgd\n")
            .replace("type: binary", "type: binary\n    loss_weight: 1e300"),
            encoding="utf-8")
        with np.errstate(all="ignore"):
            code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "run"])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    def test_quiet_suppresses_progress_but_not_diagnostics(self, workspace, capsys):
        tmp, config, dataset = workspace
        code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "q", "-q", "--seed", 1])
        assert code == 0
        assert capsys.readouterr().out == ""
        config.write_text(CONFIG.replace("f0", "missing"), encoding="utf-8")
        code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "q2", "-q"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err != ""

    def test_input_dataset_is_never_mutated(self, workspace):
        tmp, config, dataset = workspace
        before = dataset.read_bytes()
        run(["train", "-c", config, "-d", dataset, "-o", tmp / "run", "--seed", 1])
        assert dataset.read_bytes() == before

    def test_seed_env_fallback(self, workspace, monkeypatch):
        tmp, config, dataset = workspace
        monkeypatch.setenv("ECD_SEED", "7")
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "env"]) == 0
        monkeypatch.delenv("ECD_SEED")
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "flag",
                    "--seed", 7]) == 0
        env_weights = (tmp / "env" / "model" / "weights.bin").read_bytes()
        flag_weights = (tmp / "flag" / "model" / "weights.bin").read_bytes()
        assert env_weights == flag_weights


class TestPredictCommand:

    def trained(self, tmp, config, dataset):
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "run", "--seed", 1]) == 0
        return tmp / "run" / "model"

    def test_predictions_row_count_matches_input(self, workspace):
        tmp, config, dataset = workspace
        model_dir = self.trained(tmp, config, dataset)
        assert run(["predict", "-m", model_dir, "-d", dataset, "-o", tmp / "pred"]) == 0
        lines = (tmp / "pred" / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 120
        assert (tmp / "pred" / "metrics.json").exists()

    def test_nonexistent_model_dir_exits_3(self, workspace):
        tmp, config, dataset = workspace
        assert run(["predict", "-m", tmp / "ghost", "-d", dataset, "-o", tmp / "pred"]) == 3

    def test_version_1_model_exits_3_naming_its_version(self, workspace, capsys):
        tmp, config, dataset = workspace
        weights = self.trained(tmp, config, dataset) / "weights.bin"
        weights.write_bytes(as_version_1(weights.read_bytes()))
        capsys.readouterr()
        assert run(["predict", "-m", weights.parent, "-d", dataset, "-o", tmp / "pred"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "format version 1, expected 2" in err

    def test_malformed_weights_exit_3_with_one_line(self, workspace, capsys):
        # trailing bytes after the last record, under a valid digest
        tmp, config, dataset = workspace
        weights = self.trained(tmp, config, dataset) / "weights.bin"
        body = weights.read_bytes()[:-8] + bytes(16)
        weights.write_bytes(body + struct.pack("<Q", digest64(body)))
        capsys.readouterr()
        assert run(["predict", "-m", weights.parent, "-d", dataset, "-o", tmp / "pred"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "16 trailing bytes" in err

    def test_dataset_without_targets_writes_predictions_only(self, workspace):
        tmp, config, dataset = workspace
        model_dir = self.trained(tmp, config, dataset)
        import csv
        with open(dataset, newline="") as handle:
            rows = list(csv.DictReader(handle))
        inputs_only = tmp / "inputs.csv"
        synth.write_rows(inputs_only, ["f0", "f1", "f2", "f3"],
                         [[r["f0"], r["f1"], r["f2"], r["f3"]] for r in rows])
        assert run(["predict", "-m", model_dir, "-d", inputs_only, "-o", tmp / "p2"]) == 0
        assert (tmp / "p2" / "predictions.csv").exists()
        assert not (tmp / "p2" / "metrics.json").exists()


class TestExperimentCommand:

    def test_happy_path_reports_three_splits(self, workspace):
        tmp, config, dataset = workspace
        assert run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "exp",
                    "--seed", 2]) == 0
        metrics = json.loads((tmp / "exp" / "metrics.json").read_text())
        assert set(metrics) == {"train", "validation", "test"}

    def test_rerun_same_seed_byte_identical_metrics(self, workspace):
        tmp, config, dataset = workspace
        run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "e1", "--seed", 5])
        run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "e2", "--seed", 5])
        assert (tmp / "e1" / "metrics.json").read_bytes() == \
            (tmp / "e2" / "metrics.json").read_bytes()

    def test_no_cache_flag_skips_cache_file(self, workspace):
        tmp, config, dataset = workspace
        run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "nc",
             "--seed", 2, "--no-cache"])
        assert not (tmp / "data.csv.ecdc").exists()

    def test_default_output_dir_is_timestamped_under_results(self, workspace, monkeypatch):
        tmp, config, dataset = workspace
        monkeypatch.chdir(tmp)
        assert run(["train", "-c", config, "-d", dataset, "--seed", 1, "-q"]) == 0
        runs = list((tmp / "results").glob("run_*"))
        assert len(runs) == 1
        assert (runs[0] / "model" / "weights.bin").exists()


class TestFixtureConfigs:

    def test_committed_tagger_definition_runs_end_to_end(self, tmp_path):
        dataset = synth.token_tagging(tmp_path / "tags.csv", n=80, seed=1)
        fixture = (Path(__file__).resolve().parent.parent / "configs" / "sequence_tagger.yaml")
        config = tmp_path / "tagger.yaml"
        # the committed fixture plus a short training budget for the test
        config.write_text(fixture.read_text() + "training:\n  epochs: 2\n  batch_size: 16\n",
                          encoding="utf-8")
        code = run(["experiment", "-c", config, "-d", dataset,
                    "-o", tmp_path / "run", "--seed", 1, "-q"])
        assert code == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert "token_accuracy" in metrics["test"]["tags"]
