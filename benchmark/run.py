#!/usr/bin/env python3
"""ecdkit benchmark: one seeded train-and-serve workload per run.

Usage (from the repository root):

    python3 benchmark/run.py --workload text_rnn_longtail --seed 1 --seconds 24 --trace 0

The run generates the workload's CSVs from ``--seed`` under ``.bench_work/``,
drives them through ecdkit's public API (see ``phases.py``), checks every
output, prints one report line per metric, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off, in
``--seconds / ROUND_SECONDS`` rounds of the four phases. The work is fixed by
``--seconds``, not by the clock, so a faster program finishes sooner and
every commit is measured on the same samples. The raw samples go to
``.bench_work/samples-<workload>-<seed>.json``.

The measured process runs numpy's BLAS on one thread (``OPENBLAS_NUM_THREADS``
and friends, unless already set). ecdkit does not choose a thread count
itself; the benchmark pins it because its per-op matrices are small, and on
a 2-vCPU machine a second BLAS thread contends with the Python thread and
makes timings noisy. A change that would gain from BLAS threading cannot
show that gain here.

``--trace 1`` is the separate traced run: a fixed amount of work (one cold
prepare, one warm ``experiment()``, one bulk ``predict()`` and
``TRACE_REQUESTS`` requests) under the outside-in tracer of ``spans.py``, plus
two untraced ``experiment()`` calls to measure the tracing overhead against. It reports the
``per_layer`` metrics of ``BENCHMARK.json`` (``layer_map.json`` says which
end-to-end metric each should move, and on which workload) and writes every
span, the per-layer and per-op tables and the git sha to
``.bench_work/trace-<workload>-<seed>.json``.

The run exits with code 2, printing no result, when ecdkit's sources are not
in ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# one BLAS thread, by design: see the module docstring
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))

from phases import (Ops, cache_identity, check_bulk, check_experiment,  # noqa: E402
                    check_request, cold_prepare, experiment_outputs)
from workloads import (REQUEST_ROWS, WORKLOADS, input_properties,  # noqa: E402
                       training_seed, write_workload)

# one round of the four phases takes about this long at the seed state
ROUND_SECONDS = 4.0
# cold prepares a round: setup_s is a median, so it gets more samples
COLD_PER_ROUND = 2
MIN_ROUNDS = 3
MIN_REQUESTS = 100
# bulk predict() is short, so several samples a round give its best value more chances
BULK_PER_ROUND = 3
TRACE_REQUESTS = 20
# the traced experiment()'s layer spans must cover this share of its wall time
ACCOUNTED_TOLERANCE = 0.10

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_ecdkit():
    """Import ecdkit from this checkout's ``src/``, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import ecdkit
    except ImportError as exc:
        print(f"error: cannot import ecdkit from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(ecdkit.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: ecdkit was imported from {ecdkit.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return ecdkit


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(name: str, value, unit: str, note: str) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<20} {shown:>12} {unit:<8} {note}")


def run_cold_prepare_subprocess(workload_name: str, dataset: Path, seed: int) -> None:
    """One cold prepare in a fresh interpreter; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # a plain blocking wait: a timeout would make Popen poll in steps of up to 50 ms
    subprocess.run([sys.executable, str(HERE / "cold_prepare.py"), workload_name,
                    str(dataset), str(seed)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def timed_run(workload, paths: dict, seed: int, seconds: float, work: Path) -> tuple[Ops, dict]:
    """The untraced run: every end-to-end metric.

    The phases run in rounds (cold prepare, warm ``experiment()``, bulk
    ``predict()``, a share of the requests), so each metric's samples spread
    over the whole run. The number of rounds follows from ``seconds`` alone,
    so every commit measures the same work.

    On the shared 2-vCPU virtual machine the benchmark was built on, the CPU
    alternates between two speeds for seconds to minutes at a time (a fixed
    Python loop took 11 ms or 15-16 ms), so the median of a run's samples
    flips between the two. The experiment, bulk predict and request timings
    therefore report the best sample, the run's time at full speed, with the
    median printed beside it. ``setup_s`` is the median of
    ``COLD_PER_ROUND`` cold prepares a round.
    """
    from ecdkit import experiment, parse_model_definition, predict

    ops = Ops()
    dataset, request = paths["dataset"], paths["request"]
    train_seed = training_seed(seed)
    rows = input_properties(workload, dataset.read_text(encoding="utf-8"))["rows"]
    definition = parse_model_definition(workload.definition)
    exp_dir = work / "experiment"
    model_dir = exp_dir / "model"
    rounds = max(MIN_ROUNDS, int(seconds // ROUND_SECONDS))
    per_round = -(-MIN_REQUESTS // rounds)
    bulk_every = -(-per_round // BULK_PER_ROUND)

    setup, experiment_walls, bulk_walls, latencies = [], [], [], []
    reference = first_request = test_score = None

    for r in range(rounds):
        for c in range(COLD_PER_ROUND):
            done = ops.run(f"cold prepare {r}.{c}", lambda: run_cold_prepare_subprocess(
                workload.name, dataset, train_seed))
            if done is not None:
                setup.append(done[0])
        cache_before = cache_identity(dataset)
        done = ops.run(f"experiment {r}",
                       lambda: experiment(definition, dataset, exp_dir, seed=train_seed),
                       lambda _: check_experiment(exp_dir, reference, cache_before, dataset))
        if done is not None:
            experiment_walls.append(done[0])
            if reference is None:
                # the first call's artifacts are the reference for every later call
                reference = experiment_outputs(exp_dir)
                feature, metric = workload.score
                test_score = done[1][2]["test"][feature][metric]
        for i in range(per_round):
            # the bulk predict() calls are spread among the requests
            if i % bulk_every == 0:
                done = ops.run(f"bulk predict {r}.{i}",
                               lambda: predict(model_dir, dataset, work / "bulk"),
                               lambda result: check_bulk(result, rows))
                if done is not None:
                    bulk_walls.append(done[0])
            done = ops.run(f"request {r}.{i}",
                           lambda: predict(model_dir, request, work / "request"),
                           lambda result: check_request(result, first_request, REQUEST_ROWS))
            if done is not None:
                latencies.append(done[0] * 1000.0)
                if first_request is None:
                    first_request = Path(done[1][0]).read_bytes()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = {"setup_s": setup, "experiment_s": experiment_walls, "bulk_predict_s": bulk_walls,
               "request_ms": latencies}
    (WORK / f"samples-{workload.name}-{seed}.json").write_text(json.dumps(samples),
                                                                 encoding="utf-8")

    def median_note(walls, unit):
        return f"(median {statistics.median(walls):.4g} {unit})" if walls else ""

    notes = {
        "setup_s": f"median of {len(setup)} cold prepares, each in a fresh interpreter",
        "experiment_s": f"best of {len(experiment_walls)} warm experiment() calls "
                        f"{median_note(experiment_walls, 's')}",
        "predict_rows_per_s": f"{rows} rows / best of {len(bulk_walls)} bulk predict() walls "
                              f"{median_note(bulk_walls, 's')}",
        "request_ms.min": f"fastest of {len(latencies)} requests, closed loop, 1 client, "
                          f"{REQUEST_ROWS} rows each {median_note(latencies, 'ms')}",
        "request_ms.p90": f"of the same {len(latencies)} requests",
        "peak_rss_mb": "peak RSS of the run's own process (ru_maxrss)",
        "test_score": f"test {workload.score[1]} of {workload.score[0]}, deterministic per seed",
    }
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "experiment_s": min(experiment_walls) if experiment_walls else None,
        "predict_rows_per_s": rows / min(bulk_walls) if bulk_walls else None,
        "request_ms.min": min(latencies) if latencies else None,
        "request_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8]
        if len(latencies) > 1 else None,
        "peak_rss_mb": peak_kb / 1024.0,
        "test_score": test_score,
    }
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        report(name, values[name], unit, notes[name])
        metrics[name] = {"value": values[name], "unit": unit}
    share = ops.failed / ops.attempted
    report("failed_share", share, "fraction", f"{ops.failed} failed of {ops.attempted} operations")
    return ops, metrics


def traced_run(workload, paths: dict, seed: int, work: Path, out_path: Path) -> tuple[Ops, dict]:
    """The traced run: per-layer metrics, and the tracing overhead."""
    from ecdkit import config, pipelines
    from spans import Tracer, layer_metrics, op_table

    ops = Ops()
    dataset, request = paths["dataset"], paths["request"]
    train_seed = training_seed(seed)
    rows = input_properties(workload, dataset.read_text(encoding="utf-8"))["rows"]
    definition = config.parse_model_definition(workload.definition)
    exp_dir = work / "experiment"
    model_dir = exp_dir / "model"

    def run_experiment(what, reference):
        cache_before = cache_identity(dataset)
        return ops.run(what, lambda: pipelines.experiment(definition, dataset, exp_dir,
                                                          seed=train_seed),
                       lambda _: check_experiment(exp_dir, reference, cache_before, dataset))

    ops.run("cold prepare", lambda: cold_prepare(workload.definition, dataset, train_seed))
    warm_up = run_experiment("untraced experiment 0", None)
    reference = experiment_outputs(exp_dir) if warm_up is not None else None
    repeat = run_experiment("untraced experiment 1", reference)
    untraced = [done[0] for done in (warm_up, repeat) if done is not None]

    tracer = Tracer()
    tracer.install()
    try:
        tracer.tag = "prepare"
        ops.run("traced cold prepare",
                lambda: cold_prepare(workload.definition, dataset, train_seed))
        tracer.tag = "experiment"
        traced = run_experiment("traced experiment", reference)
        tracer.tag = "bulk_predict"
        ops.run("traced bulk predict", lambda: pipelines.predict(model_dir, dataset, work / "bulk"),
                lambda result: check_bulk(result, rows))
        first = None
        for i in range(TRACE_REQUESTS):
            tracer.tag = f"request.{i:04d}"
            done = ops.run(f"traced request {i}",
                           lambda: pipelines.predict(model_dir, request, work / "request"),
                           lambda result: check_request(result, first, REQUEST_ROWS))
            if done is not None and first is None:
                first = Path(done[1][0]).read_bytes()
    finally:
        tracer.uninstall()

    # the best of the two untraced calls, as in the untraced run
    untraced_s = min(untraced) if untraced else float("nan")
    traced_s = traced[0] if traced else float("nan")
    values = layer_metrics(tracer, PER_LAYER_UNITS, traced_s, untraced_s)
    ops_rows = op_table(tracer)

    print(f"  traced experiment() {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"overhead {values['trace.overhead_s']:.4f} s "
          f"({100 * values['trace.overhead_share']:.1f}%)")
    accounted = values["trace.accounted_share"]
    verdict = "within" if accounted >= 1.0 - ACCOUNTED_TOLERANCE else "OUTSIDE"
    print(f"  layer spans cover {100 * accounted:.2f}% of the traced experiment() wall, "
          f"{verdict} the {100 * ACCOUNTED_TOLERANCE:.0f}% tolerance")
    print(f"  {'op':<24}{'calls':>9}{'fwd_self_s':>12}{'bwd_s':>10}{'bytes (computed)':>18}")
    for op, row in ops_rows.items():
        print(f"  {op:<24}{row['calls']:>9}{row['fwd_self_s']:>12.4f}{row['bwd_s']:>10.4f}"
              f"{row['bytes']:>18.0f}")
    print(f"  {'layer':<44}{'calls':>9}{'self_s':>10}{'busy_s':>10}")
    for name, row in sorted(tracer.table().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<44}{row['calls']:>9}{row['self_s']:>10.4f}{row['busy_s']:>10.4f}")

    tracer.write(out_path, {"workload": workload.name, "seed": seed, "git_sha": git_sha(),
                            "layers": tracer.table(), "ops": ops_rows, "metrics": values,
                            "accounted_tolerance": ACCOUNTED_TOLERANCE})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_ecdkit()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        paths = write_workload(workload, args.seed, work)
        props = input_properties(workload, paths["dataset"].read_text(encoding="utf-8"))
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
              f"git {git_sha() or 'unknown'}")
        print(f"  inputs: {json.dumps(props, sort_keys=True)}")
        if args.trace:
            out_path = WORK / f"trace-{workload.name}-{args.seed}.json"
            ops, metrics = traced_run(workload, paths, args.seed, work, out_path)
            print(f"  spans written to {out_path.relative_to(ROOT)}")
        else:
            ops, metrics = timed_run(workload, paths, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
