"""Tests of the benchmark itself: run with ``python3 -m pytest benchmark/tests``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from phases import Ops  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate, input_properties, write_workload  # noqa: E402

run.import_ecdkit()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
TINY_ROWS = 60


@pytest.fixture
def tiny_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_REQUESTS", 3)
    monkeypatch.setattr(run, "TRACE_REQUESTS", 2)


def test_layer_map_covers_every_per_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_MAP)
    assert len(SPEC["per_layer"]) <= 128
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= set(run.END_TO_END_UNITS)
        assert set(entry["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = generate(workload, 7, rows=200)
    assert generate(workload, 7, rows=200) == first
    assert generate(workload, 8, rows=200) != first
    assert first["request"].count("\n") == 17


def test_text_workload_keeps_its_long_tail():
    workload = WORKLOADS["text_rnn_longtail"]
    props = input_properties(workload, generate(workload, 1)["dataset"])
    assert props["max_sequence_length"] == 40
    assert 0.75 < props["pad_share"] < 0.85


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run_of_all_phases(name, tmp_path, tiny_run):
    workload = WORKLOADS[name]
    paths = write_workload(workload, 3, tmp_path / "data", rows=TINY_ROWS)

    ops, metrics = run.timed_run(workload, paths, 3, 0.0, tmp_path / "timed")
    assert (ops.attempted, ops.failed) == (run.COLD_PER_ROUND + 1 + run.BULK_PER_ROUND + 3, 0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] is not None for m in metrics.values())
    assert all(metrics[name]["value"] > 0 for name in run.END_TO_END_UNITS
               if name != "test_score")

    out = tmp_path / "trace.json"
    ops, metrics = run.traced_run(workload, paths, 3, tmp_path / "traced", out)
    assert ops.failed == 0
    assert list(metrics) == list(LAYER_MAP)
    assert all(value["value"] is not None for value in metrics.values())
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["spans"] and written["span_fields"][0] == "name"


def test_ops_counts_a_raising_call_or_check_as_one_failure():
    ops = Ops()

    def boom(*_):
        raise OSError("missing file")

    assert ops.run("raises", boom) is None
    assert ops.run("check raises", lambda: 1, boom) is None
    assert ops.run("check finds a problem", lambda: 1, lambda _: ["wrong"])[1] == 1
    assert ops.run("passes", lambda: 1, lambda _: []) is not None
    assert (ops.attempted, ops.failed) == (4, 3)


def test_a_failing_phase_is_counted_and_the_run_goes_on(tmp_path, tiny_run, monkeypatch):
    import ecdkit
    from ecdkit import pipelines

    workload = WORKLOADS["tabular_multitask"]
    paths = write_workload(workload, 3, tmp_path / "data", rows=TINY_ROWS)
    real_predict, real_experiment = ecdkit.predict, pipelines.experiment
    calls = {"request": 0, "experiment": 0}

    def flaky_predict(model_dir, dataset, out_dir):
        if Path(out_dir).name == "request":
            calls["request"] += 1
            if calls["request"] == 2:
                raise RuntimeError("request failed")
        return real_predict(model_dir, dataset, out_dir)

    def flaky_experiment(*args, **kwargs):
        calls["experiment"] += 1
        if calls["experiment"] == 1:
            raise RuntimeError("experiment failed")
        return real_experiment(*args, **kwargs)

    monkeypatch.setattr(ecdkit, "predict", flaky_predict)
    ops, metrics = run.timed_run(workload, paths, 3, 0.0, tmp_path / "timed")
    assert ops.failed == 1
    assert all(m["value"] is not None for m in metrics.values())

    # the traced run's untraced warm-up experiment() fails
    monkeypatch.setattr(pipelines, "experiment", flaky_experiment)
    ops, metrics = run.traced_run(workload, paths, 3, tmp_path / "traced",
                                  tmp_path / "trace.json")
    assert ops.failed == 1
    assert metrics["trace.experiment_traced_s"]["value"] > 0


def test_span_self_times_are_never_negative_and_fit_the_wall(tmp_path):
    from ecdkit import parse_model_definition, pipelines

    workload = WORKLOADS["text_rnn_longtail"]
    paths = write_workload(workload, 5, tmp_path, rows=TINY_ROWS)
    definition = parse_model_definition(workload.definition)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        pipelines.experiment(definition, paths["dataset"], tmp_path / "out", seed=5)
        wall = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    assert len(own) > 100
    assert min(own) >= 0
    assert sum(own) <= wall
    names = {span[0] for span in tracer.spans}
    assert {"pipelines.experiment", "autodiff.select", "autodiff.select.bwd"} <= names


def test_uninstall_restores_every_patched_name():
    from ecdkit import autodiff, pipelines

    before = (pipelines.experiment, autodiff.matmul, autodiff.Tape.backward)
    tracer = Tracer()
    tracer.install()
    assert pipelines.experiment is not before[0]
    tracer.uninstall()
    assert (pipelines.experiment, autodiff.matmul, autodiff.Tape.backward) == before
