"""Command-line interface: exit codes, outputs, determinism."""

import csv
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import numpy as np

from ecdkit.artifacts import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    read_weights,
    write_weights,
)
from ecdkit.autodiff import ParameterStore
from ecdkit.cache import cache_path_for, digest64, write_cache, write_container
from ecdkit.cli import main
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.data import SPLIT_NAMES
from ecdkit.registry import build_default_registries

import synth
from oracles import as_version_1, as_version_2, unchecked_fingerprint

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
        for name in ("metadata.json", "model_definition.json", "weights.bin"):
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

    def test_invalid_definition_exits_2_alike_beside_a_valid_cache(self, workspace, capsys):
        # a warm run reads only the dataset's header before validating
        tmp, config, dataset = workspace
        bad = tmp / "bad.yaml"
        bad.write_text(CONFIG.replace("name: f3", "name: f9"), encoding="utf-8")
        assert run(["experiment", "-c", bad, "-d", dataset, "-o", tmp / "a"]) == 2
        cold = capsys.readouterr().err
        assert run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "ok", "-q"]) == 0
        assert (tmp / "data.csv.ecdc").exists()
        capsys.readouterr()
        assert run(["experiment", "-c", bad, "-d", dataset, "-o", tmp / "b"]) == 2
        assert capsys.readouterr().err == cold and "f9" in cold
        assert not (tmp / "a").exists() and not (tmp / "b").exists()

    def test_missing_dataset_flag_is_usage_error(self, workspace, capsys):
        tmp, config, _ = workspace
        code = run(["train", "-c", config])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_dataset_file_exits_3(self, workspace):
        tmp, config, _ = workspace
        assert run(["train", "-c", config, "-d", tmp / "nope.csv", "-o", tmp / "run"]) == 3

    def test_runtime_error_exits_4_naming_the_parameter(self, workspace, capsys):
        tmp, config, dataset = workspace
        config.write_text(
            CONFIG.replace("  batch_size: 32\n",
                           "  batch_size: 32\n  learning_rate: 1e18\n  optimizer: sgd\n")
            # a float32 loss and gradient stay finite at this weight; lr times them does not
            .replace("type: binary", "type: binary\n    loss_weight: 1e30"),
            encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "-c", config, "-d", dataset, "-o", tmp / "run"])
        assert code == 4
        assert caught == []
        err = one_line_error(capsys)
        assert err.startswith("error: non-finite update for parameter '")
        assert err.endswith("' at epoch 0, batch 0\n")

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

    @pytest.mark.parametrize("flag", [["--seed", 1], ["--no-cache"]])
    def test_training_flags_are_usage_errors(self, workspace, capsys, flag):
        # predict draws no random numbers and reads no cache
        tmp, _, dataset = workspace
        assert run(["predict", "-m", tmp / "ghost", "-d", dataset, "-o", tmp / "pred",
                    *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_nonexistent_model_dir_exits_3(self, workspace):
        tmp, config, dataset = workspace
        assert run(["predict", "-m", tmp / "ghost", "-d", dataset, "-o", tmp / "pred"]) == 3

    def old_model_exits_3(self, workspace, capsys, resign, version):
        tmp, config, dataset = workspace
        weights = self.trained(tmp, config, dataset) / "weights.bin"
        weights.write_bytes(resign(weights.read_bytes()))
        capsys.readouterr()
        assert run(["predict", "-m", weights.parent, "-d", dataset, "-o", tmp / "pred"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"format version {version}, expected {WEIGHTS_VERSION}" in err

    def test_version_3_model_exits_3_naming_its_version(self, workspace, capsys):
        # the float64 (<f8) records of weights version 3, under a valid digest
        def as_version_3(container: bytes) -> bytes:
            path = workspace[0] / "v3.bin"
            path.write_bytes(container)
            write_container(path, WEIGHTS_MAGIC, 3, b"", read_weights(path), "<f8")
            return path.read_bytes()

        self.old_model_exits_3(workspace, capsys, as_version_3, 3)

    def test_version_1_model_exits_3_naming_its_version(self, workspace, capsys):
        self.old_model_exits_3(workspace, capsys, as_version_1, 1)

    def test_version_2_model_exits_3_naming_its_version(self, workspace, capsys):
        # the BLAKE2b-64 model of weights version 2 is refused before its digest is read
        self.old_model_exits_3(workspace, capsys, as_version_2, 2)

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


MIXED_CONFIG = (
    "input_features:\n"
    "  - name: num\n    type: numerical\n"
    "  - name: vec\n    type: vector\n"
    "  - name: color\n    type: category\n"
    "output_features:\n"
    "  - name: label\n    type: binary\n"
    "training:\n"
    "  epochs: 1\n"
    "  batch_size: 16\n"
)
MIXED_HEADER = ["num", "vec", "color", "label"]
MIXED_ROWS = [[str(i * 0.25), f"{i % 3} {i % 5 * 0.5} 1", ("red", "green", "blue")[i % 3],
               "true" if i % 2 else "false"] for i in range(40)]
NON_FINITE_CELLS = {"nan": "0.3 nan", "inf": "inf 1 2", "-inf": "0 -inf 1", "1e400": "1e400 0 1"}


def write_mixed(path, column=None, cell=None, line=2):
    """The mixed-type dataset; ``cell`` replaces ``column`` on CSV line ``line``."""
    rows = [list(r) for r in MIXED_ROWS]
    if column is not None:
        rows[line - 2][MIXED_HEADER.index(column)] = cell
    return synth.write_rows(path, MIXED_HEADER, rows)


@pytest.fixture(scope="module")
def mixed_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mixed")
    config = tmp / "model.yaml"
    config.write_text(MIXED_CONFIG, encoding="utf-8")
    assert run(["train", "-c", config, "-d", write_mixed(tmp / "data.csv"),
                "-o", tmp / "run", "--seed", 1, "-q"]) == 0
    return config, tmp / "run" / "model"


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


class TestNonFiniteCells:

    @pytest.mark.parametrize("number", sorted(NON_FINITE_CELLS))
    @pytest.mark.parametrize("column", ["num", "vec"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_exits_3_naming_column_and_cell(self, mixed_model, tmp_path, capsys,
                                            command, column, number):
        config, model_dir = mixed_model
        cell = number if column == "num" else NON_FINITE_CELLS[number]
        dataset = write_mixed(tmp_path / "bad.csv", column, cell)
        capsys.readouterr()
        if command == "train":
            args = ["train", "-c", config, "-d", dataset, "-o", tmp_path / "run", "--seed", 1]
        else:
            args = ["predict", "-m", model_dir, "-d", dataset, "-o", tmp_path / "pred"]
        assert run(args) == 3
        err = one_line_error(capsys)
        assert repr(column) in err and "non-finite" in err and repr(cell) in err


class TestRowLines:
    """Row errors name the line of the CSV file, not a row's place in its split."""

    @pytest.mark.parametrize("line", [2, 7, 19, 35])
    @pytest.mark.parametrize("column,cell", [("num", "nan"), ("label", "maybe"),
                                             ("vec", "1 2 nan")], ids=["num", "label", "vec"])
    def test_train_names_the_line_of_a_bad_cell(self, mixed_model, tmp_path, capsys,
                                                column, cell, line):
        config, _ = mixed_model
        dataset = write_mixed(tmp_path / "bad.csv", column, cell, line)
        capsys.readouterr()
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1]) == 3
        err = one_line_error(capsys)
        assert repr(column) in err and f"row {line}:" in err

    def test_train_names_the_line_of_a_misaligned_tag_row(self, tagger_model, tmp_path, capsys):
        config, _ = tagger_model
        dataset = misaligned_tags(tmp_path / "bad.csv", line=9)
        capsys.readouterr()
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1]) == 3
        assert "row 9:" in one_line_error(capsys)


def misaligned_tags(path, line):
    """A tagging dataset whose CSV ``line`` has one tag too few."""
    synth.token_tagging(path, n=40, seed=2)
    lines = path.read_text(encoding="utf-8").splitlines()
    tokens, tags = lines[line - 1].split(",")
    lines[line - 1] = f"{tokens},{tags.rsplit(' ', 1)[0]}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tagger_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tagger")
    config = tmp / "model.yaml"
    config.write_text("input_features:\n  - name: tokens\n    type: sequence\n"
                      "output_features:\n  - name: tags\n    type: sequence\n"
                      "training:\n  epochs: 1\n  batch_size: 16\n", encoding="utf-8")
    dataset = synth.token_tagging(tmp / "data.csv", n=40, seed=1)
    assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "run", "--seed", 1, "-q"]) == 0
    return config, tmp / "run" / "model"


@pytest.fixture(scope="module")
def mixed_regressor(tmp_path_factory):
    """A model of the mixed dataset whose one output is the numerical ``num``."""
    tmp = tmp_path_factory.mktemp("regressor")
    config = tmp / "model.yaml"
    config.write_text("input_features:\n"
                      "  - name: vec\n    type: vector\n"
                      "  - name: color\n    type: category\n"
                      "output_features:\n"
                      "  - name: num\n    type: numerical\n"
                      "training:\n  epochs: 1\n  batch_size: 16\n", encoding="utf-8")
    assert run(["train", "-c", config, "-d", write_mixed(tmp / "data.csv"),
                "-o", tmp / "run", "--seed", 1, "-q"]) == 0
    return config, tmp / "run" / "model"


class TestPredictChecksTargetsFirst:
    """A bad target exits 3 with one line before predict writes anything: the
    target arrays are the truths scoring reads, so no later parse catches it."""

    @pytest.mark.parametrize("model,column,cell", [("mixed_model", "label", "maybe"),
                                                   ("mixed_regressor", "num", "abc")],
                             ids=["binary", "numerical"])
    def test_bad_target_cell(self, request, tmp_path, capsys, model, column, cell):
        _, model_dir = request.getfixturevalue(model)
        dataset = write_mixed(tmp_path / "bad.csv", column, cell)
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", dataset, "-o", tmp_path / "pred"]) == 3
        err = one_line_error(capsys)
        assert err.startswith("error: ") and f"{column!r} row 2:" in err and repr(cell) in err
        assert not (tmp_path / "pred").exists()

    def test_misaligned_tag_row(self, tagger_model, tmp_path, capsys):
        _, model_dir = tagger_model
        dataset = misaligned_tags(tmp_path / "bad.csv", line=5)
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", dataset, "-o", tmp_path / "pred"]) == 3
        err = one_line_error(capsys)
        assert err.startswith("error: ") and "row 5:" in err and "1:1" in err
        assert not (tmp_path / "pred").exists()


class TestHugeNumbers:
    """Finite cells whose statistics overflow float64 are a data error."""

    @pytest.mark.parametrize("normalization", ["zscore", "minmax"])
    def test_train_exits_3_naming_the_column_with_no_warning(self, tmp_path, capsys,
                                                              normalization):
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: x\n    type: numerical\n"
                          f"    preprocessing:\n      normalization: {normalization}\n"
                          "output_features:\n  - name: y\n    type: numerical\n"
                          "training:\n  epochs: 1\n", encoding="utf-8")
        cells = ["1.7e308", "-1.7e308", "-1.7e308"]
        dataset = synth.write_rows(tmp_path / "huge.csv", ["x", "y"],
                                   [[cells[i % 3], str(i)] for i in range(42)])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                        "--seed", 1])
        assert code == 3
        assert caught == []
        err = one_line_error(capsys)
        assert "column 'x'" in err and "overflows float64" in err


class TestBeyondFloat32:
    """A preprocessed value that float32, the models' compute dtype, cannot
    hold is a data error naming its feature and row, in train and predict."""

    CONFIG = ("input_features:\n  - name: x\n    type: numerical\n"
              "    preprocessing:\n      normalization: none\n"
              "  - name: v\n    type: vector\n"
              "output_features:\n  - name: y\n    type: numerical\n"
              "    preprocessing:\n      normalization: none\n"
              "training:\n  epochs: 1\n")

    def rows(self, column=None, cell=None):
        rows = [[repr(i / 7), f"{i % 3} 1", repr(3 * i / 7)] for i in range(40)]
        if column is not None:
            rows[5][["x", "v", "y"].index(column)] = cell
        return rows

    @pytest.mark.parametrize("column,cell", [("x", "-1e39"), ("v", "2 4e38"), ("y", "1e39")])
    def test_train_exits_3_naming_the_feature_with_no_warning(self, tmp_path, capsys,
                                                              column, cell):
        config = tmp_path / "model.yaml"
        config.write_text(self.CONFIG, encoding="utf-8")
        dataset = synth.write_rows(tmp_path / "big.csv", ["x", "v", "y"],
                                   self.rows(column, cell))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                        "--seed", 1, "--no-cache"])
        assert code == 3
        assert caught == []
        err = one_line_error(capsys)
        assert f"feature {column!r} row 7:" in err and "float32" in err

    def test_a_cache_written_before_the_check_is_not_reused(self, tmp_path, capsys):
        # a cache of the same format whose values were never checked, under
        # the fingerprint its run had then: training preprocesses anew
        config = tmp_path / "model.yaml"
        config.write_text(self.CONFIG, encoding="utf-8")
        dataset = synth.write_rows(tmp_path / "big.csv", ["x", "v", "y"],
                                   self.rows("x", "-1e39"))
        definition = resolve_defaults(parse_model_definition(self.CONFIG),
                                      build_default_registries())
        fingerprint = unchecked_fingerprint(dataset.read_bytes(), definition, 1)
        write_cache(cache_path_for(dataset), fingerprint, {},
                    {split: {"x": np.full((1, 1), -1e39), "v": np.zeros((1, 2)),
                             "y": np.zeros((1, 1))} for split in SPLIT_NAMES})
        capsys.readouterr()
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1]) == 3
        assert "feature 'x' row 7:" in one_line_error(capsys)

    def test_predict_exits_3_naming_the_feature(self, tmp_path, capsys):
        config = tmp_path / "model.yaml"
        config.write_text(self.CONFIG, encoding="utf-8")
        dataset = synth.write_rows(tmp_path / "ok.csv", ["x", "v", "y"], self.rows())
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1, "-q"]) == 0
        bad = synth.write_rows(tmp_path / "big.csv", ["x", "v", "y"], self.rows("x", "4e38"))
        capsys.readouterr()
        assert run(["predict", "-m", tmp_path / "run" / "model", "-d", bad,
                    "-o", tmp_path / "pred"]) == 3
        err = one_line_error(capsys)
        assert "feature 'x' row 7: preprocessed value 4e+38 is beyond float32's range" in err
        assert not (tmp_path / "pred").exists()


class TestNonFiniteForward:
    """Finite weights whose forward pass or scores overflow exit 4 with one line."""

    # The model computes in float32 (largest value ~3.4e38) and reports in
    # float64. ``std``, when given, is written into the stored metadata as the
    # output's std: a float32 prediction times the std of any column whose
    # statistics float64 holds stays finite, so only such a std overflows it.
    @pytest.mark.parametrize("decoder,targets,scale,weight,std,found", [
        # the prediction itself stays finite, its ~1e30 error squared does not
        ("", True, 1.0, 1e30, None, "loss terms"),
        ("    fc_sizes: [2]\n", True, 1.0, 1e30, None, "predictions"),
        ("    fc_sizes: [2]\n", False, 1.0, 1e30, None, "predictions"),
        ("", False, 1.0, 1e30, 1e300, "predictions"),  # finite until denormalized
        # finite loss terms and predictions, whose ~1e156 raw errors overflow when squared
        ("", True, 1e140, 1e15, None, "metric 'mse'"),
    ], ids=["finite-prediction", "with-targets", "inputs-only", "denormalized",
            "metric-overflow"])
    def test_predict_exits_4_naming_the_output(self, tmp_path, capsys, decoder, targets,
                                               scale, weight, std, found):
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: x\n    type: numerical\n"
                          "output_features:\n  - name: y\n    type: numerical\n" + decoder +
                          "training:\n  epochs: 1\n", encoding="utf-8")
        rows = [[repr(i / 7), repr(scale * (3 * i / 7 + 1))] for i in range(40)]
        dataset = synth.write_rows(tmp_path / "xy.csv", ["x", "y"], rows)
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1, "-q"]) == 0
        weights = tmp_path / "run" / "model" / "weights.bin"
        huge = ParameterStore()
        for name, values in read_weights(weights).items():
            huge.create(name, np.full(values.shape, weight))
        write_weights(weights, huge)
        if std is not None:
            metadata_path = weights.parent / "metadata.json"
            metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
            metadata["y"]["std"] = std
            metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        if not targets:
            dataset = synth.write_rows(tmp_path / "x.csv", ["x"], [row[:1] for row in rows])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "-m", weights.parent, "-d", dataset,
                        "-o", tmp_path / "pred"])
        assert code == 4
        assert caught == []
        assert one_line_error(capsys) == f"error: non-finite {found} for output 'y'\n"
        assert not (tmp_path / "pred").exists()


class TestTaggerPredictions:

    def test_one_tag_per_input_token(self, tmp_path):
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: tokens\n    type: sequence\n"
                          "output_features:\n  - name: tags\n    type: sequence\n"
                          "preprocessing:\n  sequence:\n    max_sequence_length: 6\n"
                          "training:\n  epochs: 3\n  batch_size: 16\n", encoding="utf-8")
        dataset = synth.token_tagging(tmp_path / "data.csv", n=80, seed=1)
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1, "-q"]) == 0
        tokens = ["red", "", "owl blue", "dog cat owl red green blue dog cat"]
        requests = synth.write_rows(tmp_path / "req.csv", ["tokens"], [[t] for t in tokens])
        assert run(["predict", "-m", tmp_path / "run" / "model", "-d", requests,
                    "-o", tmp_path / "pred", "-q"]) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as handle:
            tags = [row["tags"].split() for row in csv.DictReader(handle)]
        # the last row is cut to max_sequence_length tokens
        assert [len(row) for row in tags] == [1, 0, 2, 6]


class TestMissingTarget:
    """A missing target cell is scored as its filled value, in training and in predict."""

    @pytest.mark.parametrize("strategy", ["fill_const", "drop_row"])
    def test_train_and_predict_score_an_empty_binary_target(self, tmp_path, strategy):
        config = tmp_path / "model.yaml"
        config.write_text(MIXED_CONFIG.replace(
            "type: binary\n", f"type: binary\n    preprocessing:\n"
                               f"      missing_strategy: {strategy}\n"), encoding="utf-8")
        dataset = write_mixed(tmp_path / "holes.csv", "label", "", line=19)
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run",
                    "--seed", 1, "-q"]) == 0
        assert run(["predict", "-m", tmp_path / "run" / "model", "-d", dataset,
                    "-o", tmp_path / "pred"]) == 0
        lines = (tmp_path / "pred" / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 40
        assert set(json.loads((tmp_path / "pred" / "metrics.json").read_text())) == {"label"}


def _drop(payload, feature, key=None):
    if key is None:
        del payload[feature]
    else:
        del payload[feature][key]
    return json.dumps(payload)


def _edit(feature, key, change):
    """A corruption that replaces one metadata field by ``change`` of its value."""
    def corrupt(text):
        payload = json.loads(text)
        payload[feature][key] = change(payload[feature][key])
        return json.dumps(payload)
    return corrupt


def _model_and_dataset(request, model, tmp_path):
    _, trained = request.getfixturevalue(model)
    if model == "tagger_model":
        return trained, synth.token_tagging(tmp_path / "d.csv", n=40, seed=1)
    return trained, write_mixed(tmp_path / "d.csv")


class TestMalformedMetadata:

    @pytest.mark.parametrize("model,corrupt,expected", [
        ("mixed_model", lambda text: text[: len(text) // 2], "is not valid JSON"),
        ("mixed_model", lambda text: _drop(json.loads(text), "color", "id2token"),
         "feature 'color': metadata field 'id2token' is missing"),
        ("mixed_model", lambda text: json.dumps(list(json.loads(text))), "got list"),
        ("mixed_model", lambda text: _drop(json.loads(text), "label"),
         "metadata for feature 'label'"),
        ("mixed_model", lambda text: text.replace('"length": 3', '"length": "3"'),
         "feature 'vec': metadata field 'length' is missing or ill-typed"),
        ("mixed_model", lambda text: text.replace('"type": "vector"', '"type": "numerical"', 1),
         "feature 'vec': metadata field 'mean' is missing"),
        ("mixed_model", _edit("color", "id2token", lambda tokens: tokens[1:]),
         "feature 'color': metadata field 'id2token' must start with ['<UNK>']"),
        ("mixed_model", _edit("color", "id2token", lambda tokens: tokens + [3]),
         "feature 'color': metadata field 'id2token' must hold unique strings"),
        ("mixed_model", _edit("color", "id2token", lambda tokens: tokens + tokens[-1:]),
         "feature 'color': metadata field 'id2token' must hold unique strings"),
        ("mixed_model", _edit("num", "std", lambda _: 0),
         "feature 'num': metadata field 'std' must be finite and > 0"),
        ("mixed_model", _edit("num", "mean", lambda _: float("nan")),
         "feature 'num': metadata field 'mean' must be finite"),
        ("mixed_model", _edit("num", "normalization", lambda _: "bogus"),
         "feature 'num': metadata field 'normalization' must be one of"),
        ("mixed_model", _edit("vec", "length", lambda _: 0),
         "feature 'vec': metadata field 'length' must be at least 1"),
        ("tagger_model", _edit("tokens", "id2token", lambda tokens: tokens[1:]),
         "feature 'tokens': metadata field 'id2token' must start with ['<PAD>', '<UNK>']"),
        ("tagger_model", _edit("tokens", "max_sequence_length", lambda _: 0),
         "feature 'tokens': metadata field 'max_sequence_length' must be at least 1"),
    ], ids=["truncated", "field_removed", "top_level_list", "feature_removed",
            "ill_typed_field", "wrong_type", "unk_missing", "token_not_a_string",
            "token_repeated", "std_zero", "mean_nan", "normalization_unknown", "length_zero",
            "pad_missing", "max_sequence_length_zero"])
    def test_predict_exits_3_with_one_line(self, request, tmp_path, capsys, model,
                                           corrupt, expected):
        trained, dataset = _model_and_dataset(request, model, tmp_path)
        model_dir = tmp_path / "model"
        shutil.copytree(trained, model_dir)
        meta = model_dir / "metadata.json"
        meta.write_text(corrupt(meta.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", dataset, "-o", tmp_path / "pred"]) == 3
        err = one_line_error(capsys)
        assert expected in err and "metadata.json" in err

    def test_feature_of_another_type_is_rejected(self, mixed_model, tmp_path, capsys):
        _, trained = mixed_model
        model_dir = tmp_path / "model"
        shutil.copytree(trained, model_dir)
        meta = model_dir / "metadata.json"
        payload = json.loads(meta.read_text(encoding="utf-8"))
        payload["num"] = payload["label"]
        meta.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", write_mixed(tmp_path / "d.csv"),
                    "-o", tmp_path / "pred"]) == 3
        assert "no numerical metadata for feature 'num'" in one_line_error(capsys)


class TestBadHyperparameters:
    """A bad size or activation is a validation error, reported before any work."""

    @pytest.mark.parametrize("encoder,key,value", [
        ("embed", "embedding_size", "-1"),
        ("embed", "embedding_size", "0.5"),
        ("rnn", "state_size", "0"),
        ("cnn", "num_filters", "-1"),
        ("cnn", "activation", "bogus"),
    ], ids=["negative_embedding", "fractional_embedding", "zero_state", "negative_filters",
            "unknown_activation"])
    def test_train_exits_2_with_one_line(self, tmp_path, capsys, encoder, key, value):
        dataset = synth.keyword_text(tmp_path / "text.csv", n=10, seed=0)
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: text\n    type: text\n"
                          f"    encoder: {encoder}\n    {key}: {value}\n"
                          "output_features:\n  - name: label\n    type: category\n"
                          "training:\n  epochs: 1\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run"]) == 2
        assert f"input_features.text.{key}: " in one_line_error(capsys)
        assert not (tmp_path / "run").exists()


class TestValuesOutOfBounds:
    """A training or preprocessing value outside its declared bound exits 2,
    naming the key, before the dataset is read or cached."""

    @pytest.mark.parametrize("preprocessing,training,expected", [
        ("", "  beta1: 1.0\n", "training.beta1: beta1 must lie in [0, 1)"),
        ("", "  beta2: -0.5\n", "training.beta2: beta2 must lie in [0, 1)"),
        ("", "  epsilon: 0\n", "training.epsilon: epsilon must be positive"),
        ("", "  epsilon: 1e400\n", "training.epsilon: expected a finite number, got inf"),
        ("", "  learning_rate: 1e400\n",
         "training.learning_rate: expected a finite number, got inf"),
        ("      lowercase: 5\n", "",
         "input_features.text.preprocessing: lowercase must be true or false"),
        ("      lowercase: maybe\n", "",
         "input_features.text.preprocessing: lowercase must be true or false"),
    ], ids=["beta1", "beta2", "epsilon", "epsilon_inf", "learning_rate_inf",
            "lowercase_number", "lowercase_word"])
    def test_train_exits_2_with_one_line(self, tmp_path, capsys, preprocessing, training,
                                         expected):
        assert self.train_error(tmp_path, capsys, preprocessing=preprocessing,
                                training=training) == f"error: {expected}\n"

    def test_a_loss_weight_beyond_a_float_exits_2_with_one_line(self, tmp_path, capsys):
        assert self.train_error(tmp_path, capsys, output=f"    loss_weight: {'9' * 400}\n") == (
            "error: output_features[0] (label): loss_weight: expected a finite number, got inf\n")

    @staticmethod
    def train_error(tmp_path, capsys, preprocessing="", output="", training=""):
        """The one stderr line of a ``train`` that exits 2 before any work."""
        dataset = synth.keyword_text(tmp_path / "text.csv", n=10, seed=0)
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: text\n    type: text\n"
                          "    preprocessing:\n      tokenizer: space\n" + preprocessing
                          + "output_features:\n  - name: label\n    type: category\n" + output
                          + "training:\n  epochs: 1\n" + training, encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp_path / "run"]) == 2
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "text.csv.ecdc").exists()
        return one_line_error(capsys)


def _damage_definition(text):
    doc = json.loads(text)
    doc["input_features"][0]["fc_sizes"] = 7
    return json.dumps(doc)


class TestDamagedDefinition:
    """A model directory's definition that cannot be used exits 3 naming the file."""

    @pytest.mark.parametrize("corrupt,expected", [
        (lambda text: text[: len(text) // 2], "is not valid JSON"),
        (lambda text: text.replace('"encoder": "passthrough"', '"encoder": "bogus"', 1),
         "unknown encoder 'bogus'"),
        (_damage_definition, "fc_sizes must be a list of positive integers, got 7"),
        (lambda text: text.replace('"type": "numerical"', '"type": "image"', 1),
         "unknown type 'image'"),
        # a model saved when an output stored its loss must be retrained
        (lambda text: text.replace('"decoder": "regressor"',
                                   '"decoder": "regressor", "loss": "sigmoid_bce"', 1),
         "output_features.label.loss: keyword 'loss' is not accepted by BinaryRegressorDecoder"),
    ], ids=["truncated", "unknown_encoder", "fc_sizes_not_a_list", "schema", "stored_loss"])
    def test_predict_exits_3_with_one_line(self, mixed_model, tmp_path, capsys,
                                           corrupt, expected):
        _, trained = mixed_model
        model_dir = tmp_path / "model"
        shutil.copytree(trained, model_dir)
        definition = model_dir / "model_definition.json"
        definition.write_text(corrupt(definition.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", write_mixed(tmp_path / "d.csv"),
                    "-o", tmp_path / "pred"]) == 3
        err = one_line_error(capsys)
        assert expected in err and str(definition) in err

    def test_model_with_a_yaml_definition_must_be_retrained(self, mixed_model, tmp_path, capsys):
        config, trained = mixed_model
        model_dir = tmp_path / "model"
        shutil.copytree(trained, model_dir)
        (model_dir / "model_definition.json").unlink()
        shutil.copy(config, model_dir / "model_definition.yaml")
        capsys.readouterr()
        assert run(["predict", "-m", model_dir, "-d", write_mixed(tmp_path / "d.csv"),
                    "-o", tmp_path / "pred"]) == 3
        assert "missing: model_definition.json" in one_line_error(capsys)


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

    def test_weights_do_not_depend_on_the_environments_blas_threads(self, tmp_path):
        """The package runs numpy's BLAS on one thread unless told otherwise.
        The cnn filter gradient of this tagger contracts about 2,200 rows,
        which OpenBLAS on several cores splits across threads, in another
        summation order, when no thread count is set."""
        dataset = synth.token_tagging(tmp_path / "tags.csv", n=200, lengths=(12, 23))
        config = tmp_path / "tagger.yaml"
        config.write_text("input_features:\n  - name: tokens\n    type: sequence\n"
                          "    encoder: cnn\noutput_features:\n  - name: tags\n"
                          "    type: sequence\n    decoder: tagger\n"
                          "training:\n  epochs: 1\n  batch_size: 256\n", encoding="utf-8")
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(__file__).resolve().parent.parent / "src")
        weights = []
        for name, threads in (("unset", {}), ("one", dict.fromkeys(thread_vars, "1"))):
            env = {k: v for k, v in os.environ.items() if k not in thread_vars}
            env.update(threads, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "ecdkit", "experiment", "-c", config,
                                   "-d", dataset, "-o", tmp_path / name, "--seed", "1",
                                   "--no-cache", "-q"],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            weights.append((tmp_path / name / "model" / "weights.bin").read_bytes())
        assert weights[0] == weights[1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
    def test_freed_blocks_are_reused_without_faulting_unless_malloc_is_tuned(self):
        """Three 2 MB arrays made and freed 20 times fault their pages in
        once after the package is imported, and every time when the
        environment tunes malloc, which the package then leaves alone."""
        probe = ("import resource, ecdkit, numpy as np\n"
                 "def step():\n"
                 "    blocks = [np.ones(1 << 18) for _ in range(3)]\n"
                 "step()\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "for _ in range(20):\n"
                 "    step()\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        faults = {}
        for name, tuned in (("package", {}), ("environment", {"MALLOC_TRIM_THRESHOLD_": "131072"})):
            env = {k: v for k, v in os.environ.items()
                   if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
            env.update(tuned, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                  text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            faults[name] = int(done.stdout)
        # each step's 6 MB is 1,536 pages
        assert faults["package"] < 100 and faults["environment"] > 20 * 1000, faults


class TestUnreadableFiles:
    """Bad paths and bad bytes end in one line and exit 2 or 3, not a traceback."""

    def test_config_that_is_not_utf8_exits_2_naming_its_line(self, workspace, capsys):
        tmp, config, dataset = workspace
        config.write_bytes(CONFIG.encode("utf-8").replace(b"binary", b"bin\xe4ry"))
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "run"]) == 2
        err = one_line_error(capsys)
        assert str(config) in err and "not UTF-8: line 12, byte offset" in err
        assert not (tmp / "run").exists()

    def test_directory_as_config_exits_2(self, workspace, capsys):
        tmp, _, dataset = workspace
        (tmp / "configs").mkdir()
        assert run(["train", "-c", tmp / "configs", "-d", dataset, "-o", tmp / "run"]) == 2
        assert f"cannot read config file {tmp / 'configs'}" in one_line_error(capsys)

    def test_dataset_that_is_not_utf8_exits_3_naming_its_line(self, workspace, capsys):
        tmp, config, dataset = workspace
        lines = dataset.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b"false", b"f\xe4lse").replace(b"true", b"tr\xfce")
        dataset.write_bytes(b"\n".join(lines))
        assert run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "run"]) == 3
        err = one_line_error(capsys)
        assert str(dataset) in err and "not UTF-8: line 5, byte offset" in err

    @pytest.mark.parametrize("command", ["experiment", "predict"])
    def test_directory_as_dataset_exits_3(self, workspace, capsys, command):
        tmp, config, dataset = workspace
        (tmp / "rows").mkdir()
        if command == "predict":
            assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "m", "-q"]) == 0
            args = ["predict", "-m", tmp / "m" / "model"]
        else:
            args = ["experiment", "-c", config]
        assert run(args + ["-d", tmp / "rows", "-o", tmp / "run"]) == 3
        assert f"cannot read dataset file {tmp / 'rows'}" in one_line_error(capsys)

    @pytest.mark.parametrize("name", ["metadata.json", "model_definition.json", "weights.bin"])
    def test_model_file_that_is_a_directory_exits_3(self, workspace, capsys, name):
        tmp, config, dataset = workspace
        assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "m", "-q"]) == 0
        (tmp / "m" / "model" / name).unlink()
        (tmp / "m" / "model" / name).mkdir()
        assert run(["predict", "-m", tmp / "m" / "model", "-d", dataset, "-o", tmp / "p"]) == 3
        assert f"{tmp / 'm' / 'model' / name}: Is a directory" in one_line_error(capsys)

    def test_existing_file_as_output_dir_exits_3_before_training(self, workspace, capsys):
        tmp, config, dataset = workspace
        (tmp / "taken").write_text("keep\n", encoding="utf-8")
        assert run(["experiment", "-c", config, "-d", dataset, "-o", tmp / "taken"]) == 3
        out, err = capsys.readouterr()
        assert "epoch" not in out and "Traceback" not in err and err.count("\n") == 1
        assert f"output directory {tmp / 'taken'} cannot be created" in err
        assert (tmp / "taken").read_text(encoding="utf-8") == "keep\n"
        assert not (tmp / "data.csv.ecdc").exists()  # nothing was preprocessed

    def test_cache_path_that_is_a_directory_exits_3(self, workspace, capsys):
        tmp, config, dataset = workspace
        cache = tmp / "data.csv.ecdc"
        cache.mkdir()
        with pytest.warns(UserWarning, match="discarding unusable cache"):
            assert run(["train", "-c", config, "-d", dataset, "-o", tmp / "run", "-q"]) == 3
        assert one_line_error(capsys) == f"error: cannot write {cache}: Is a directory\n"
        assert not (tmp / "data.csv.ecdc.tmp").exists()


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
