"""Training and prediction pipelines.

Training: metadata collection over the training split only (so nothing leaks
from validation or test data), dataset preprocessing with an on-disk cache,
a seeded epoch loop with per-epoch evaluation of the validation split,
early stopping, and a best-checkpoint artifact. Each epoch's training
metrics score the predictions of its own training batches, made while the
weights moved; only without a validation split is the training split
evaluated in full after each epoch, as it then steers the checkpoint.
Prediction: reload the artifact, preprocess new rows with the stored
metadata, and post-process model outputs back into raw data space.
``experiment`` composes both halves and reports metrics for all three
splits.

Evaluation and prediction share one loop: ``batch_size``-row chunks run
forward on tapes that keep no gradients, and the losses are reduced once
over the concatenated per-row terms, so memory stays bounded by the chunk
and the result equals that of one batch holding every row. Training
collects its batches' rows with the same collector. An output's truths are
the target rows passed to ``model.forward``, so a truth outside the
training vocabulary is scored as ``<UNK>``, as the loss trains it; only a
numerical output is scored against raw values, re-read from its column.
Predictions become raw values only in ``predictions.csv``. ``predict``
parses the targets before its single pass and scores that same pass, so a
bad target cell writes no file. Row errors name the line of the CSV file.

Every run is fully determined by (definition, dataset, seed) and the BLAS
thread count: rerunning with equal inputs under the same thread count
produces byte-identical artifacts. Another thread count may sum a matrix
product in another order, and so give other weights.

``load_model`` keeps nothing between calls: each one reads and verifies the
three model files again.
"""

from __future__ import annotations

import copy
import csv
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cache as cache_io
from .artifacts import DEFINITION_FILE, METADATA_FILE, load_artifact, save_artifact, write_json
from .config import Diagnostic, resolve_defaults, validate
from .data import SPLIT_NAMES, Dataset, load_dataset, split_dataset
from .decoders import real_positions, token_counts
from .definition import ModelDefinition
from .errors import (
    ArtifactError,
    ConfigError,
    DataError,
    NonFiniteError,
    TrainingRuntimeError,
)
from .features import (
    TYPE_METRICS,
    PreprocParams,
    build_metadata,
    compute_metric,
    higher_is_better,
    is_missing,
    numerical_values,
    postprocess_prediction,
    preprocess_column,
    tokenize,
)
from .graph import ECDModel
from .optim import OptimizerState, optimizer_step
from .registry import Registries, build_default_registries
from .rng import SALT_EPOCH, Lcg, mix_seed
from .tensor import check_finite

MODEL_SUBDIR = "model"
STATS_FILE = "training_stats.json"
PREDICTIONS_FILE = "predictions.csv"
METRICS_FILE = "metrics.json"
IMPROVEMENT_TOLERANCE = 1e-6


class ValidationFailed(ConfigError):
    """Raised when a definition fails validation; carries all diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("model definition failed validation:\n" +
                         "\n".join(str(d) for d in diagnostics))


@dataclass
class TrainingStats:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "best_epoch": self.best_epoch,
                "wall_clock_seconds": self.wall_clock_seconds}


def _preproc_params(spec) -> PreprocParams:
    return PreprocParams(**spec.preprocessing)


def collect_metadata(train: Dataset, definition: ModelDefinition) -> dict:
    """Build per-feature metadata from the training split only."""
    metadata = {}
    for spec in list(definition.input_features) + list(definition.output_features):
        column = train.column(spec.name)
        try:
            metadata[spec.name] = build_metadata(column, spec.type, _preproc_params(spec),
                                                 train.lines)
        except DataError as exc:
            raise type(exc)(f"column {spec.name!r}: {exc}") from None
    return metadata


def _drop_row_indices(split: Dataset, definition: ModelDefinition) -> list[int]:
    """Indices to keep after applying the drop_row missing-value strategy."""
    droppers = [spec for spec in list(definition.input_features) + list(definition.output_features)
                if spec.preprocessing.get("missing_strategy") == "drop_row"
                and spec.name in split.header]
    if not droppers:
        return list(range(len(split.rows)))
    keep = []
    for i, row in enumerate(split.rows):
        if all(not is_missing(row[spec.name]) for spec in droppers):
            keep.append(i)
    return keep


def _check_tagger_alignment(split: Dataset, definition: ModelDefinition) -> None:
    """Sequence-tagging targets must align 1:1 with the input tokens per row."""
    taggers = [s for s in definition.output_features
               if s.type == "sequence" and s.name in split.header]
    if not taggers:
        return
    sources = [s for s in definition.input_features if s.type in ("sequence", "text")]
    if not sources:
        return
    source = sources[0]
    src_params = _preproc_params(source)
    for spec in taggers:
        dst_params = _preproc_params(spec)
        for line, row in zip(split.lines, split.rows):
            n_src = len(tokenize(row[source.name], src_params.tokenizer))
            n_dst = len(tokenize(row[spec.name], dst_params.tokenizer))
            if n_src != n_dst:
                raise DataError(
                    f"row {line}: tag sequence {spec.name!r} has {n_dst} tokens but input "
                    f"{source.name!r} has {n_src}; tagging requires 1:1 alignment")


def preprocess_features(split: Dataset, specs, metadata: dict) -> dict[str, np.ndarray]:
    """Turn the listed features of one split into [rows x width] batch arrays."""
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        column = split.column(spec.name)
        try:
            arrays[spec.name] = preprocess_column(column, split.lines, spec.type,
                                                  metadata[spec.name], _preproc_params(spec))
        except DataError as exc:
            raise DataError(f"feature {spec.name!r} {exc}") from None
    return arrays


def preprocess_dataset(splits: dict[str, Dataset], metadata: dict,
                       definition: ModelDefinition, cache_file: Path | None,
                       fingerprint: int | None) -> dict[str, dict[str, np.ndarray]]:
    """Tensorize every split, consulting the cache when one is configured."""
    if cache_file is not None and cache_file.exists():
        try:
            cached = cache_io.read_cache(cache_file, fingerprint)
        except (cache_io.CorruptionError, cache_io.FormatVersionError) as exc:
            warnings.warn(f"discarding unusable cache {cache_file}: {exc}")
            cached = None
        if cached is not None:
            return cached
    specs = list(definition.input_features) + list(definition.output_features)
    blocks = {}
    for name in SPLIT_NAMES:
        split = splits[name]
        _check_tagger_alignment(split, definition)
        blocks[name] = preprocess_features(split, specs, metadata)
    if cache_file is not None:
        cache_io.write_cache(cache_file, fingerprint, blocks)
    return blocks


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class _OutputRows:
    """One output feature's results over every row of a chunked pass."""

    predictions: np.ndarray
    truths: np.ndarray | None
    lengths: np.ndarray | None
    loss_terms: np.ndarray | None
    loss_weights: np.ndarray | None

    def loss(self) -> float:
        # the loss op's own reduction, over the terms of all rows at once
        total = self.loss_weights.sum()
        return float(self.loss_terms.sum() / total) if total > 0 else 0.0


class _RowCollector:
    """The rows of consecutive forward passes, per output feature.

    Per output, what scoring and ``predictions.csv`` read: the predictions,
    a numerical output's denormalized and a tagger's as argmax ids at the
    real tokens (with each row's token count); and with targets the loss
    terms and weights, and as truths the target rows or tokens of the same
    predictions (a numerical output's truths are its raw values instead).
    Predictions and loss terms leave the tape, so they are checked for
    finiteness here: each pass's predictions, a numerical output's again
    once denormalized, and the loss terms once, over every row.
    """

    def __init__(self, model: ECDModel, definition: ModelDefinition, metadata: dict):
        self.specs = definition.output_features
        self.source = model.states_feature
        self.metadata = metadata
        self.lengths: list[np.ndarray] = []
        self.parts: dict[str, tuple[list, list, list, list]] = {
            spec.name: ([], [], [], []) for spec in self.specs}

    def add(self, result, inputs: dict[str, np.ndarray],
            targets: dict[str, np.ndarray] | None) -> None:
        if self.source is not None:
            lengths = token_counts(inputs[self.source])
            self.lengths.append(lengths)
        for spec in self.specs:
            predictions, truths, terms, weights = self.parts[spec.name]
            what = f"predictions for output {spec.name!r}"
            values = check_finite(result.predictions[spec.name].array, what)
            if spec.type == "numerical":
                values = check_finite(self.metadata[spec.name].denormalize(values), what)
            elif spec.type == "sequence":
                real = real_positions(lengths, values.shape[1])
                values = np.argmax(values[real], axis=1)
            predictions.append(values)
            if targets is None:
                continue
            terms.append(result.loss_rows[spec.name][0])
            weights.append(result.loss_rows[spec.name][1])
            truth = targets[spec.name]
            if spec.type == "binary":
                truths.append(truth == 1.0)  # hits, met by a >= 0.5 probability
            elif spec.type == "sequence":
                truths.append(truth[real])
            elif spec.type != "numerical":  # whose truths are its raw values
                truths.append(truth)

    def outputs(self) -> dict[str, _OutputRows]:
        lengths = np.concatenate(self.lengths) if self.lengths else None
        outputs = {}
        for name, parts in self.parts.items():
            predictions, truths, terms, weights = (np.concatenate(part) if part else None
                                                   for part in parts)
            if terms is not None:
                check_finite(terms, f"loss terms for output {name!r}")
            outputs[name] = _OutputRows(predictions, truths, lengths, terms, weights)
        return outputs


@np.errstate(all="ignore")  # finiteness is checked, not warned about
def _forward_chunks(model: ECDModel, arrays: dict[str, np.ndarray], n: int,
                    definition: ModelDefinition, metadata: dict,
                    with_targets: bool) -> dict[str, _OutputRows]:
    """Run ``n`` rows forward in ``batch_size`` chunks on no-gradient tapes
    and collect their rows."""
    names = [spec.name for spec in definition.output_features]
    collector = _RowCollector(model, definition, metadata)
    batch_size = definition.training.batch_size
    for start in range(0, n, batch_size):
        rows = slice(start, start + batch_size)
        inputs = {s.name: arrays[s.name][rows] for s in definition.input_features}
        targets = {name: arrays[name][rows] for name in names} if with_targets else None
        collector.add(model.forward(inputs, targets, grad=False), inputs, targets)
    return collector.outputs()


def _raw_numbers(split: Dataset, output_specs, metadata: dict) -> dict[str, np.ndarray]:
    """The raw values of each numerical output, its truths; a row's value
    depends on no other row."""
    return {spec.name: numerical_values(split.column(spec.name), split.lines,
                                        metadata[spec.name], _preproc_params(spec))
            for spec in output_specs if spec.type == "numerical"}


def _score(outputs: dict[str, _OutputRows], output_specs,
           numbers: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Loss plus every type-appropriate metric, per output feature.

    The metrics compare each output's predictions with its truths: the
    collected target rows, or a numerical output's raw ``numbers``. A loss
    or metric that is not finite raises ``NonFiniteError`` naming it and the
    output.
    """
    report: dict[str, dict[str, float]] = {}
    for spec in output_specs:
        out = outputs[spec.name]
        truths = numbers[spec.name] if spec.type == "numerical" else out.truths
        block = {"loss": out.loss()}
        for kind in TYPE_METRICS[spec.type]:
            try:
                block[kind] = compute_metric(kind, truths, out.predictions)
            except OverflowError:  # a raw-space error squared past the float range
                block[kind] = np.inf
        # a report must be valid JSON, which has no infinity or nan
        bad = [kind for kind, value in block.items() if not np.isfinite(value)]
        if bad:
            raise NonFiniteError(f"non-finite metric {bad[0]!r} for output {spec.name!r}")
        report[spec.name] = block
    return report


def evaluate_split(model: ECDModel, arrays: dict[str, np.ndarray], split: Dataset,
                   definition: ModelDefinition, metadata: dict) -> dict[str, dict[str, float]]:
    """Loss plus every type-appropriate metric, per output feature, from one
    chunked no-gradient pass over the split."""
    if len(split) == 0:
        return {}
    outputs = _forward_chunks(model, arrays, len(split), definition, metadata,
                              with_targets=True)
    specs = definition.output_features
    return _score(outputs, specs, _raw_numbers(split, specs, metadata))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class _RunContext:
    definition: ModelDefinition
    metadata: dict
    splits: dict[str, Dataset]
    tensors: dict[str, dict[str, np.ndarray]]
    model: ECDModel
    stats: TrainingStats
    model_dir: Path


def _check_output_dir(path: Path) -> None:
    """Fail before any work when ``path`` cannot become a directory because
    it, or its nearest existing ancestor, is not one."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"output directory {path} cannot be created: "
                        f"{existing} is not a directory")


def _run_training(definition: ModelDefinition, dataset_path: str | Path, output_dir: str | Path,
                  seed: int | None, use_cache: bool, log, registries: Registries | None) -> _RunContext:
    _check_output_dir(Path(output_dir))
    registries = registries or build_default_registries()
    resolved = resolve_defaults(definition, registries)
    dataset = load_dataset(dataset_path)
    diagnostics = validate(resolved, dataset.header, registries)
    if diagnostics:
        raise ValidationFailed(diagnostics)
    if seed is not None:
        resolved.training.seed = seed
    seed = resolved.training.seed
    tr = resolved.training

    splits = split_dataset(dataset, tr.split, tr.split_column, seed)
    splits = {name: split.subset(_drop_row_indices(split, resolved))
              for name, split in splits.items()}
    if len(splits["train"]) == 0:
        raise DataError("training split is empty")
    metadata = collect_metadata(splits["train"], resolved)

    cache_file = fingerprint = None
    if use_cache:
        cache_file = cache_io.cache_path_for(dataset_path)
        fingerprint = cache_io.compute_fingerprint(
            cache_io.dataset_bytes(dataset_path), resolved, seed)
    tensors = preprocess_dataset(splits, metadata, resolved, cache_file, fingerprint)

    model = ECDModel(resolved, metadata, registries, seed)
    optimizer = OptimizerState(tr.optimizer, tr.learning_rate, tr.beta1, tr.beta2, tr.epsilon)

    input_names = [s.name for s in resolved.input_features]
    output_names = [s.name for s in resolved.output_features]
    train_arrays = tensors["train"]
    n_train = len(splits["train"])
    higher = higher_is_better(tr.validation_metric)

    # with a validation split to steer by, the training split is scored on
    # the epoch's own batches; without one, it is evaluated in full and steers
    running = len(splits["validation"]) > 0
    train_numbers = _raw_numbers(splits["train"], resolved.output_features, metadata) \
        if running else {}
    stats = TrainingStats()
    started = time.monotonic()
    best_value = None
    best_snapshot = model.store.snapshot()
    stale = 0
    epoch_rng_seed = mix_seed(seed, SALT_EPOCH)

    for epoch in range(tr.epochs):
        optimizer.learning_rate = tr.learning_rate * (tr.decay ** epoch)
        order = list(range(n_train))
        Lcg(mix_seed(epoch_rng_seed, epoch)).shuffle(order)
        loss_sum = 0.0
        collector = _RowCollector(model, resolved, metadata)
        for batch_index, start in enumerate(range(0, n_train, tr.batch_size)):
            idx = order[start : start + tr.batch_size]
            batch = {name: train_arrays[name][idx] for name in input_names}
            targets = {name: train_arrays[name][idx] for name in output_names}
            try:
                # the loss, gradients and new weights are checked, not warned about
                with np.errstate(all="ignore"):
                    result = model.forward(batch, targets)
                    if running:
                        collector.add(result, batch, targets)
                    grads = model.backward(result)
                    optimizer_step(optimizer, model.store, grads)
            except NonFiniteError as exc:
                raise TrainingRuntimeError(f"{exc} at epoch {epoch}, batch {batch_index}") from exc
            loss_sum += result.combined_loss * len(idx)
        train_loss = loss_sum / n_train

        if running:
            numbers = {name: values[order] for name, values in train_numbers.items()}
            train_metrics = _score(collector.outputs(), resolved.output_features, numbers)
            val_metrics = evaluate_split(model, tensors["validation"], splits["validation"],
                                         resolved, metadata)
        else:
            train_metrics = evaluate_split(model, tensors["train"], splits["train"],
                                           resolved, metadata)
            val_metrics = {}
        stats.epochs.append({"epoch": epoch, "train_loss": train_loss,
                             "train_metrics": train_metrics,
                             "validation_metrics": val_metrics})
        steering = val_metrics if running else train_metrics
        value = steering[tr.validation_feature][tr.validation_metric]
        if log is not None:
            log(f"epoch {epoch}: train loss {train_loss:.6f}, "
                f"validation {tr.validation_metric} {value:.6f}")

        if best_value is None or _improved(value, best_value, higher):
            best_value = value
            stats.best_epoch = epoch
            best_snapshot = model.store.snapshot()
            stale = 0
        else:
            stale += 1
            if tr.patience > 0 and stale >= tr.patience:
                if log is not None:
                    log(f"early stop after {stale} epochs without improvement")
                break

    model.store.restore(best_snapshot)
    stats.wall_clock_seconds = time.monotonic() - started

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    model_dir = save_artifact(output_dir / MODEL_SUBDIR, metadata, resolved, model.store)
    write_json(output_dir / STATS_FILE, stats.to_dict())
    return _RunContext(resolved, metadata, splits, tensors, model, stats, model_dir)


def _improved(value: float, best: float, higher: bool) -> bool:
    if higher:
        return value > best + IMPROVEMENT_TOLERANCE
    return value < best - IMPROVEMENT_TOLERANCE


def train(definition: ModelDefinition, dataset_path: str | Path, output_dir: str | Path,
          seed: int | None = None, use_cache: bool = True, log=None,
          registries: Registries | None = None) -> tuple[Path, TrainingStats]:
    """Train a model and persist the best checkpoint as a loadable artifact."""
    run = _run_training(definition, dataset_path, output_dir, seed, use_cache, log, registries)
    return run.model_dir, run.stats


def experiment(definition: ModelDefinition, dataset_path: str | Path, output_dir: str | Path,
               seed: int | None = None, use_cache: bool = True, log=None,
               registries: Registries | None = None) -> tuple[Path, TrainingStats, dict]:
    """Train, then report the best checkpoint's metrics on all three splits.

    Training scored the validation split on the best checkpoint already; the
    training and test splits are evaluated once here, on the restored best
    checkpoint.
    """
    run = _run_training(definition, dataset_path, output_dir, seed, use_cache, log, registries)
    metrics = {}
    if run.stats.best_epoch is not None:
        metrics["validation"] = run.stats.epochs[run.stats.best_epoch]["validation_metrics"]
    for name in SPLIT_NAMES:
        if name not in metrics:
            metrics[name] = evaluate_split(run.model, run.tensors[name], run.splits[name],
                                           run.definition, run.metadata)
    write_json(Path(output_dir) / METRICS_FILE, metrics)
    return run.model_dir, run.stats, metrics


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def load_model(model_dir: str | Path,
               registries: Registries | None = None) -> tuple[ECDModel, ModelDefinition, dict]:
    """Rebuild the exact trained model from a persisted artifact directory.

    The stored definition is validated as it is: a hole is reported, not filled.
    """
    registries = registries or build_default_registries()
    metadata, definition, weights = load_artifact(model_dir)
    specs = list(definition.input_features) + list(definition.output_features)
    for spec in specs:
        meta = metadata.get(spec.name)
        if meta is None or meta.type != spec.type:
            raise ArtifactError(f"{Path(model_dir) / METADATA_FILE} has no {spec.type} "
                                f"metadata for feature {spec.name!r}")
    # the model's own columns are its header; a split column is one too
    header = [spec.name for spec in specs]
    if definition.training.split_column is not None:
        header.append(definition.training.split_column)
    diagnostics = validate(definition, header, registries)
    if diagnostics:
        raise ArtifactError(f"{Path(model_dir) / DEFINITION_FILE} is not a valid resolved "
                            f"definition: {'; '.join(str(d) for d in diagnostics)}")
    model = ECDModel(definition, metadata, registries, definition.training.seed,
                     initialize=False)
    expected = set(model.store.names())
    stored = set(weights)
    if expected != stored:
        missing = sorted(expected - stored)
        extra = sorted(stored - expected)
        raise ArtifactError(f"weights do not match the model definition; "
                            f"missing: {missing}, unexpected: {extra}")
    for name in model.store.names():
        if weights[name].shape != model.store[name].tensor.dims:
            raise ArtifactError(f"weights for {name!r} have dims {weights[name].shape}, "
                                f"expected {model.store[name].tensor.dims}")
    model.store.restore(weights)
    return model, definition, metadata


def save_model(model: ECDModel, output_dir: str | Path) -> Path:
    """Persist a built model (metadata, resolved definition, weights)."""
    return save_artifact(output_dir, model.metadata, model.definition, model.store)


def predict(model_dir: str | Path, dataset_path: str | Path, output_dir: str | Path,
            registries: Registries | None = None) -> tuple[Path, Path | None]:
    """Write one post-processed prediction row per input row.

    When the dataset carries every target column, a metrics report is
    produced alongside; otherwise predictions only.
    """
    _check_output_dir(Path(output_dir))
    registries = registries or build_default_registries()
    model, definition, metadata = load_model(model_dir, registries)
    dataset = load_dataset(dataset_path)
    for spec in definition.input_features:
        if spec.name not in dataset.header:
            raise DataError(f"dataset {dataset.source!r} lacks input column {spec.name!r}")

    # missing cells cannot drop rows at prediction time: one output row per input row
    input_specs = [_with_fill_strategy(spec) for spec in definition.input_features]
    output_specs = [_with_fill_strategy(spec) for spec in definition.output_features]

    # targets are parsed and checked first, so a bad cell writes no file
    targets_present = all(s.name in dataset.header for s in definition.output_features)
    arrays = preprocess_features(dataset, input_specs, metadata)
    if targets_present:
        _check_tagger_alignment(dataset, definition)
        arrays.update(preprocess_features(dataset, output_specs, metadata))
    outputs = _forward_chunks(model, arrays, len(dataset), definition, metadata,
                              with_targets=targets_present)
    metrics = None
    if targets_present:
        metrics = _score(outputs, output_specs, _raw_numbers(dataset, output_specs, metadata))

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    predictions_path = output_dir / PREDICTIONS_FILE
    _write_predictions_csv(predictions_path, dataset, definition, metadata, outputs)
    metrics_path = None
    if metrics is not None:
        metrics_path = output_dir / METRICS_FILE
        write_json(metrics_path, metrics)
    return predictions_path, metrics_path


def _with_fill_strategy(spec):
    if spec.preprocessing.get("missing_strategy") == "drop_row":
        spec = copy.deepcopy(spec)
        spec.preprocessing["missing_strategy"] = "fill_const"
    return spec


def _write_predictions_csv(path: Path, dataset: Dataset, definition: ModelDefinition,
                           metadata: dict, outputs: dict[str, _OutputRows]) -> None:
    header: list[str] = []
    columns: list[tuple[list, list | None]] = []  # per output: its cells, its probability rows
    for spec in definition.output_features:
        meta, out = metadata[spec.name], outputs[spec.name]
        cells = postprocess_prediction(out.predictions, spec.type, meta, out.lengths)
        header.append(spec.name)
        probabilities = None
        if spec.type in ("binary", "category", "set"):
            header.extend([f"{spec.name}_probability"] if spec.type == "binary" else
                          [f"{spec.name}_probability_{token}" for token in meta.id2token])
            probabilities = out.predictions.tolist()
        columns.append((cells, probabilities))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = []
            for cells, probabilities in columns:
                # a set or tag row is a list of tokens; csv writes a float as its repr
                row.append(" ".join(cells[i]) if isinstance(cells[i], list) else cells[i])
                if probabilities is not None:
                    row.extend(probabilities[i])
            writer.writerow(row)
