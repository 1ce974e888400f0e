#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

Usage (from the repository root):

    python3 benchmark/repeat.py --runs 10 [--trace 0|1] [--out FILE]

It runs every workload of ``BENCHMARK.json`` ``--runs`` times, with seeds 1
to ``--runs`` and the file's ``run_seconds``. For every metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median,
beside the metric's bound. ``--out`` writes the summary and every run's values
as JSON. The seed-state baselines in this directory were written this way:
``baseline.json`` with ``--runs 10`` and ``baseline_trace.json`` with
``--runs 3 --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"run_seconds": spec["run_seconds"], "runs": args.runs, "trace": args.trace,
              "workloads": {}}
    for workload in names:
        runs = []
        for seed in range(1, args.runs + 1):
            out = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
                         "failed": out["failed"],
                         "metrics": {k: v["value"] for k, v in out["metrics"].items()}})
            print(f"{workload} seed {seed}: correct {out['correct']}, "
                  f"failed {out['failed']}/{out['attempted']}", flush=True)
        summary = {}
        print(f"{workload}: {'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            summary[name] = summarise(values)
            row = summary[name]
            bound = bounds.get(name)
            spread = "n/a" if row["spread"] is None else format(row["spread"], ".4f")
            print(f"{workload}: {name:<40}{row['median']:>14.6g}{row['q1']:>14.6g}"
                  f"{row['q3']:>14.6g}{spread:>9}"
                  f"{'' if bound is None else format(bound, '.2f'):>7}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: failed_share {failed}/{attempted} = {failed / attempted:.4g}")
        result["workloads"][workload] = {"summary": summary, "runs": runs,
                                         "failed_share": failed / attempted}
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
