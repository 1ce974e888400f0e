"""The benchmark's four phases, driven through ecdkit's public API.

1. cold prepare: cache miss, cache write, model build (``cold_prepare``);
2. warm ``experiment()``, repeated, with a fixed number of epochs;
3. bulk ``predict()`` over the workload CSV, targets included;
4. a closed request loop: one client, sequential ``predict()`` calls on the
   16-row request CSV.

Every call is one attempted operation. An exception or a failed output
check counts as one failed operation and never aborts the run.
"""

from __future__ import annotations

import csv
import sys
import time
import traceback
from pathlib import Path


class Ops:
    """Attempted and failed operation counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, check=None):
        """Call ``fn``; return ``(seconds, result)``, or ``None`` if it raised.

        ``check(result)`` returns a list of problems; any problem marks the
        operation failed, but its timing is still returned. A check that
        raises also marks it failed, and then ``None`` is returned.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"FAILED {what} after {elapsed:.3f} s:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        try:
            problems = check(result) if check is not None else []
        except Exception:
            self.failed += 1
            print(f"FAILED {what}: its output check raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, result


def cold_prepare(definition_text: str, dataset_path: Path, seed: int):
    """Prepare a workload from scratch, as ``experiment()`` does before training.

    Removes the dataset's cache file first, so preprocessing misses the
    cache and writes it; the warm ``experiment()`` calls that follow then
    hit it. The workloads have no missing cells, so the drop-row step that
    ``experiment()`` applies after splitting keeps every row and is skipped.
    """
    from ecdkit import cache, config, data, graph, pipelines, registry

    registries = registry.build_default_registries()
    resolved = config.resolve_defaults(config.parse_model_definition(definition_text),
                                       registries)
    dataset = data.load_dataset(dataset_path)
    diagnostics = config.validate(resolved, dataset.header, registries)
    if diagnostics:
        raise pipelines.ValidationFailed(diagnostics)
    resolved.training.seed = seed
    tr = resolved.training
    splits = data.split_dataset(dataset, tr.split, tr.split_column, seed)
    metadata = pipelines.collect_metadata(splits["train"], resolved)
    cache_file = cache.cache_path_for(dataset_path)
    cache_file.unlink(missing_ok=True)
    fingerprint = cache.compute_fingerprint(cache.dataset_bytes(dataset_path), resolved, seed)
    pipelines.preprocess_dataset(splits, metadata, resolved, cache_file, fingerprint)
    return graph.ECDModel(resolved, metadata, registries, seed)


def experiment_outputs(out_dir: Path) -> dict[str, bytes]:
    """The byte-compared artifacts of one ``experiment()`` run."""
    return {"metrics.json": (out_dir / "metrics.json").read_bytes(),
            "weights.bin": (out_dir / "model" / "weights.bin").read_bytes()}


def cache_identity(dataset_path: Path) -> tuple[int, int] | None:
    """Inode and mtime of the dataset's cache file; a rewrite changes them."""
    from ecdkit import cache

    try:
        st = cache.cache_path_for(dataset_path).stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


def check_experiment(out_dir: Path, reference: dict | None, cache_before,
                     dataset_path: Path) -> list[str]:
    """Problems with one warm ``experiment()``: changed bytes or a cache miss."""
    problems = []
    outputs = experiment_outputs(out_dir)
    if reference is not None:
        for name, blob in outputs.items():
            if blob != reference[name]:
                problems.append(f"{name} differs from the first warm experiment()")
    if cache_before is None or cache_identity(dataset_path) != cache_before:
        problems.append("warm experiment() did not reuse the preprocessing cache")
    return problems


def count_rows(predictions_csv: Path) -> int:
    with open(predictions_csv, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def check_bulk(result, rows: int) -> list[str]:
    predictions_path, metrics_path = result
    problems = []
    written = count_rows(predictions_path)
    if written != rows:
        problems.append(f"bulk predict() wrote {written} rows for {rows} input rows")
    if metrics_path is None:
        problems.append("bulk predict() wrote no metrics although targets are present")
    return problems


def check_request(result, reference: bytes | None, rows: int) -> list[str]:
    """The first request must write ``rows`` rows; later ones its exact bytes."""
    path = Path(result[0])
    if reference is None:
        written = count_rows(path)
        return [] if written == rows else [f"request wrote {written} rows for {rows}"]
    if path.read_bytes() != reference:
        return ["request predictions.csv differs from the first"]
    return []
