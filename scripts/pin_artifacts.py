#!/usr/bin/env python3
"""Rewrite the pinned SHA-256 digests of the benchmark workloads' artifacts.

For seeds 1 and 2 of each workload in ``benchmark/workloads.py``, the
dataset and request CSVs are generated at benchmark size and run as the
benchmark runs them: ``experiment()`` with the benchmark's training seed,
which misses the cache and writes it, a second, warm ``experiment()``, which
must hit it, one bulk ``predict()`` over the dataset and one request
``predict()``. The digests of every file those write are stored in
``tests/artifact_pins.json``, which ``tests/test_artifact_pins.py`` checks;
the warm run's ``metrics.json`` and ``weights.bin`` must equal the cold
run's. A change that alters bits on purpose reruns this script and lists the
pins it prints as changed.

The digests hold for one BLAS thread count (one unless the environment sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``) and
one BLAS build, as a matrix product may sum in another order on another.

Usage:
    python scripts/pin_artifacts.py
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

# before numpy: importing ecdkit first pins BLAS to one thread
from ecdkit import experiment, parse_model_definition, predict
from ecdkit.cache import cache_path_for

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "artifact_pins.json"
SEEDS = (1, 2)


def load_workloads():
    """``benchmark/workloads.py``, read without changing ``sys.path``."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def artifact_digests(workloads, name: str, seed: int, work: Path) -> dict[str, str]:
    """SHA-256 of each file one seed of one workload writes, in ``work``;
    ``workloads`` is the module ``load_workloads`` returns."""
    workload = workloads.WORKLOADS[name]
    paths = workloads.write_workload(workload, seed, work)
    definition = parse_model_definition(workload.definition)
    run_dir, warm_dir = work / "experiment", work / "warm"
    model_dir, _, _ = experiment(definition, paths["dataset"], run_dir,
                                 seed=workloads.training_seed(seed))
    cache = cache_path_for(paths["dataset"])
    written = cache.stat()
    experiment(definition, paths["dataset"], warm_dir, seed=workloads.training_seed(seed))
    read = cache.stat()
    if (read.st_ino, read.st_mtime_ns) != (written.st_ino, written.st_mtime_ns):
        raise RuntimeError(f"the warm experiment() of {name} seed {seed} rewrote its cache")
    bulk, bulk_metrics = predict(model_dir, paths["dataset"], work / "bulk")
    request, _ = predict(model_dir, paths["request"], work / "request")
    files = {"metrics.json": run_dir / "metrics.json", "weights.bin": model_dir / "weights.bin",
             "warm metrics.json": warm_dir / "metrics.json",
             "warm weights.bin": warm_dir / "model" / "weights.bin",
             "cache": cache, "bulk predictions.csv": bulk,
             "bulk metrics.json": bulk_metrics, "request predictions.csv": request}
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()}


def main() -> int:
    old = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    workloads = load_workloads()
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            pins[name] = {}
            for seed in SEEDS:
                digests = artifact_digests(workloads, name, seed, Path(tmp) / f"{name}-{seed}")
                pins[name][str(seed)] = digests
                for key, digest in digests.items():
                    before = old.get(name, {}).get(str(seed), {}).get(key)
                    if before != digest:
                        print(f"{name} seed {seed} {key}: {before} -> {digest}")
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
