"""Outside-in tracing of ecdkit for the benchmark's traced run.

The tracer wraps public functions and methods of ecdkit's modules from the
outside: it replaces each target in every ``ecdkit.*`` namespace that holds
it, records one span per call, and restores everything on ``uninstall``.
Nothing inside the package changes. Autodiff ops also get their backward
closure wrapped on the node they return, so backward time is recorded per op
kind when ``Tape.backward`` replays it.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, tag]`` and
written out once at the end. Times are integer nanoseconds, so a span's self
time (its duration minus the durations of its direct children) is exact and
never negative, and the self times of all spans sum to the root spans'
durations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: autodiff ops whose forward and backward time is reported per op kind
AUTODIFF_OPS = ("matmul", "add", "scale", "apply_unary", "reduce", "concat", "reshape",
                "select", "embedding_lookup", "softmax", "conv1d",
                "softmax_cross_entropy", "sigmoid_bce", "mse")

ENCODER_CLASSES = ("SequenceRnnEncoder", "SequenceCnnEncoder", "PassthroughEncoder",
                   "CategoryEmbedEncoder", "SetEmbedSumEncoder")
COMBINER_CLASSES = ("ConcatCombiner",)
DECODER_CLASSES = ("CategoryClassifierDecoder", "SequenceTaggerDecoder",
                   "BinaryRegressorDecoder", "NumericalRegressorDecoder")

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans and counters around ecdkit calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tag = ""
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.tag])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self.stack)

    def timed(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` adds counters.

        ``name`` is a string, or a callable that picks it at call time.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name if isinstance(name, str) else name())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` in every ecdkit namespace that imported it."""
        original = getattr(module, attr)
        wrapped = self.timed(name, original, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "ecdkit":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        self._set(cls, attr, self.timed(name, getattr(cls, attr), after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        from ecdkit import (artifacts, autodiff, cache, config, data, decoders, encoders,
                            features, graph, optim, pipelines, rng, tensor)

        count = self.counts

        def add(key, amount):
            count[key] += amount

        self.patch_function(data, "load_dataset", "data.load_dataset")
        self.patch_function(data, "split_dataset", "data.split_dataset")
        self.patch_function(config, "parse_model_definition", "config.parse")
        self.patch_function(config, "resolve_defaults", "config.resolve")
        self.patch_function(config, "validate", "config.validate")
        self.patch_function(pipelines, "collect_metadata", "pipelines.collect_metadata")
        self.patch_function(pipelines, "preprocess_features", "pipelines.preprocess_features",
                            lambda result, args: self._count_preprocessed(result, args))
        self.patch_function(pipelines, "preprocess_dataset", "pipelines.preprocess_dataset")
        self.patch_function(pipelines, "evaluate_split", "pipelines.evaluate_split",
                            lambda result, args: add("pipelines.evaluate_split.rows",
                                                     len(args[2])))
        self.patch_function(pipelines, "experiment", "pipelines.experiment")
        self.patch_function(pipelines, "predict", "pipelines.predict")
        self.patch_function(pipelines, "load_model", "pipelines.load_model")
        self.patch_function(cache, "compute_fingerprint", "cache.compute_fingerprint",
                            lambda result, args: add("cache.compute_fingerprint.bytes",
                                                     len(args[0])))
        self.patch_function(cache, "write_cache", "cache.write_cache",
                            lambda result, args: add("cache.write_cache.bytes",
                                                     Path(args[0]).stat().st_size))
        self.patch_function(cache, "read_cache", "cache.read_cache",
                            lambda result, args: self._count_cache_read(result, args))
        self.patch_function(artifacts, "save_artifact", "artifacts.save_artifact")
        self.patch_function(artifacts, "load_artifact", "artifacts.load_artifact",
                            lambda result, args: add("artifacts.load_artifact.bytes",
                                                     _dir_bytes(Path(args[0]))))
        self.patch_function(optim, "optimizer_step", "optim.optimizer_step")
        self.patch_function(features, "postprocess_prediction", "features.postprocess_prediction")
        self.patch_function(features, "compute_metric", "features.compute_metric")

        self.patch_method(graph.ECDModel, "__init__", "graph.build")
        self.patch_method(graph.ECDModel, "forward", self._forward_name)
        self.patch_method(graph.ECDModel, "backward", "graph.backward")
        self.patch_method(autodiff.Tape, "backward", "autodiff.Tape.backward")
        self.patch_method(rng.Lcg, "uniform_array", "rng.uniform_array",
                          lambda result, args: add("rng.uniform_array.values", result.size))
        for cls_name in ENCODER_CLASSES:
            self.patch_method(getattr(encoders, cls_name), "forward", f"encoders.{cls_name}")
        for cls_name in COMBINER_CLASSES:
            self.patch_method(getattr(graph, cls_name), "forward", f"combiner.{cls_name}")
        for cls_name in DECODER_CLASSES:
            self.patch_method(getattr(decoders, cls_name), "forward", f"decoders.{cls_name}")
        for op in AUTODIFF_OPS:
            self.patch_function(autodiff, op, f"autodiff.{op}", self._op_hook(op))

        init = tensor.Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            count["tensor.Tensor.constructions"] += 1
            init(obj, *args, **kwargs)

        self._set(tensor.Tensor, "__init__", counting_init)

    # -- hooks ---------------------------------------------------------------

    def _forward_name(self) -> str:
        if self.inside("pipelines.evaluate_split"):
            return "graph.forward.eval"
        if self.inside("pipelines.predict"):
            return "graph.forward.predict"
        return "graph.forward.train"

    def _op_hook(self, op: str):
        bwd_name = f"autodiff.{op}.bwd"
        bytes_key = f"autodiff.{op}.bytes"

        def after(node, args):
            self.counts[bytes_key] += node.value.array.nbytes
            backward = node._backward
            if backward is not None:
                node._backward = self.timed(bwd_name, backward)

        return after

    def _count_preprocessed(self, arrays, args) -> None:
        split, specs = args[0], args[1]
        self.counts["pipelines.preprocess_features.rows"] += len(split)
        for spec in specs:
            if spec.type in ("sequence", "text"):
                ids = arrays[spec.name]
                self.counts["features.pad_positions"] += int(np.count_nonzero(ids == 0))
                self.counts["features.positions"] += ids.size

    def _count_cache_read(self, blocks, args) -> None:
        self.counts["cache.read_cache.bytes"] += Path(args[0]).stat().st_size
        self.counts["cache.read_cache.hits"] += blocks is not None

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus direct children's durations."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def table(self) -> dict[str, dict[str, float]]:
        """name -> {calls, busy_s, self_s}, over every recorded span."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span, self_ns in zip(self.spans, own):
            row = out.setdefault(span[NAME], {"calls": 0, "busy_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["busy_ns"] += span[END] - span[START]
            row["self_ns"] += self_ns
        return {name: {"calls": row["calls"], "busy_s": row["busy_ns"] / 1e9,
                       "self_s": row["self_ns"] / 1e9} for name, row in out.items()}

    def tag_wall_s(self, prefix: str, name: str) -> float:
        """Total duration of ``name`` spans whose tag starts with ``prefix``."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[NAME] == name and s[TAG].startswith(prefix)) / 1e9

    def write(self, path: Path, extra: dict) -> None:
        """Write every span plus ``extra`` as one JSON document."""
        names = sorted({s[NAME] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent", "tag"]
        payload["span_names"] = names
        payload["spans"] = [[code[s[NAME]], s[START], s[END], s[PARENT], s[TAG]]
                            for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def op_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per autodiff op kind: calls, forward self time, backward time, output bytes."""
    table = tracer.table()
    rows = {}
    for op in AUTODIFF_OPS:
        fwd = table.get(f"autodiff.{op}", {})
        bwd = table.get(f"autodiff.{op}.bwd", {})
        rows[op] = {"calls": fwd.get("calls", 0), "fwd_self_s": fwd.get("self_s", 0.0),
                    "bwd_s": bwd.get("busy_s", 0.0),
                    "bytes": tracer.counts[f"autodiff.{op}.bytes"]}
    return rows


def layer_metrics(tracer: Tracer, names, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Value of every metric in ``names`` for one traced run.

    A name ``<span>.<field>`` reads the span table for the fields ``calls``,
    ``self_s``, ``busy_s``, ``fwd_self_s`` and ``bwd_s`` (the busy time of the
    op's wrapped backward closures); any other name is a counter. Ratios and
    the overhead figures are computed here.
    """
    table = tracer.table()
    counts = tracer.counts
    experiment_self = table.get("pipelines.experiment", {}).get("self_s", traced_s)
    cache_reads = table.get("cache.read_cache", {}).get("calls", 0)
    special = {
        "features.pad_share": counts["features.pad_positions"] / counts["features.positions"]
        if counts["features.positions"] else 0.0,
        "cache.hit_ratio": counts["cache.read_cache.hits"] / cache_reads if cache_reads else 0.0,
        "pipelines.eval_share":
            tracer.tag_wall_s("experiment", "pipelines.evaluate_split") / traced_s,
        "trace.experiment_traced_s": traced_s,
        "trace.experiment_untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        "trace.accounted_share": 1.0 - experiment_self / traced_s,
    }
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "fwd_self_s":
            values[name] = table.get(base, {}).get("self_s", 0.0)
        elif field == "bwd_s":
            values[name] = table.get(f"{base}.bwd", {}).get("busy_s", 0.0)
        elif field in ("calls", "self_s", "busy_s"):
            values[name] = table.get(base, {}).get(field, 0)
        else:
            values[name] = counts[name]
    return values
