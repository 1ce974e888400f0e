"""Per-type data handling: pre-processors, post-processors, metadata, metrics.

Seven feature types are supported: binary, numerical, category, set,
sequence, text, and vector. Each type knows how to summarize a raw training
column into metadata (vocabularies, statistics), how to turn a raw column
into an array using that metadata, how to map a batch of predictions back
into raw space, and which evaluation metrics apply.

Vocabulary conventions: sequence and text reserve id 0 for ``<PAD>`` and
id 1 for ``<UNK>``; category and set reserve id 0 for ``<UNK>``. Remaining
tokens are ordered by descending frequency with lexicographic tie-breaking,
so metadata is byte-reproducible across runs. A vocabulary is serialized
once, as ``id2token``; ``token2id`` is derived from it, and token counts are
not kept past ``build_metadata``. ``metadata_from_dict`` accepts only what
``build_metadata`` could have made.
"""

from __future__ import annotations

import math
import sys
import typing
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .definition import choice, positive_int
from .errors import ContractError, DataError, MetadataError, RegistryError, ShapeError

SUPPORTED_TYPES = ("binary", "numerical", "category", "set", "sequence", "text", "vector")
OUTPUT_TYPES = ("binary", "numerical", "category", "set", "sequence")

PAD = "<PAD>"
UNK = "<UNK>"

TRUE_FORMS = frozenset({"true", "1", "t", "yes"})
FALSE_FORMS = frozenset({"false", "0", "f", "no"})

TOKENIZERS = ("space", "character")
NORMALIZATIONS = ("zscore", "minmax", "none")
MISSING_STRATEGIES = ("fill_const", "fill_mean", "drop_row")


@dataclass
class PreprocParams:
    """Knobs that change how raw values become arrays. Each field is one
    preprocessing key: its default, and in its metadata the bound that
    ``config.validate`` checks a set value against."""

    missing_strategy: str = field(default="fill_const",
                                  metadata=choice("missing_strategy", MISSING_STRATEGIES))
    normalization: str = field(default="zscore", metadata=choice("normalization", NORMALIZATIONS))
    tokenizer: str = field(default="space", metadata=choice("tokenizer", sorted(TOKENIZERS)))
    max_sequence_length: int = field(default=256, metadata={
        "bound": positive_int, "message": "max_sequence_length must be a positive integer"})
    vocab_size: int = field(default=10000, metadata={
        "bound": positive_int, "message": "vocab_size must be a positive integer"})
    lowercase: bool = field(default=False, metadata={
        "bound": lambda v: isinstance(v, bool), "message": "lowercase must be true or false"})


def _type_keys(*keys: str, **overrides) -> dict:
    return {key: overrides.get(key, getattr(PreprocParams, key)) for key in keys}


_SEQUENCE_KEYS = ("tokenizer", "max_sequence_length", "vocab_size", "lowercase", "missing_strategy")

#: per-type preprocessing defaults layered under any user configuration; their
#: keys, in the order a resolved definition stores them, are the preprocessing
#: keys a feature of that type may configure
TYPE_PREPROC_DEFAULTS: dict[str, dict] = {
    "binary": _type_keys("missing_strategy"),
    "numerical": _type_keys("normalization", "missing_strategy"),
    "category": _type_keys("vocab_size", "lowercase", "missing_strategy"),
    "set": _type_keys("vocab_size", "lowercase", "missing_strategy"),
    "sequence": _type_keys(*_SEQUENCE_KEYS),
    "text": _type_keys(*_SEQUENCE_KEYS, lowercase=True),
    "vector": _type_keys("missing_strategy"),
}


def is_missing(raw: str) -> bool:
    return raw is None or raw == ""


def tokenize(text: str, strategy: str) -> list[str]:
    """Split text into tokens: on whitespace runs, or into unicode characters."""
    if strategy == "space":
        return text.split()
    if strategy == "character":
        return list(text)
    raise RegistryError(f"unknown tokenizer {strategy!r}; available: {', '.join(TOKENIZERS)}")


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

@dataclass
class VocabMetadata:
    """Shared vocabulary bookkeeping for category, set, sequence, and text.

    ``id2token`` is the vocabulary, stored once; ``token2id`` is its inverse,
    derived when the object is built.
    """

    type: str
    id2token: list[str]
    max_sequence_length: int = 1
    token2id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.token2id = dict(zip(self.id2token, range(len(self.id2token))))

    @property
    def vocab_size(self) -> int:
        return len(self.id2token)

    def lookup(self, token: str) -> int:
        return self.token2id.get(token, self.token2id[UNK])


@dataclass
class NumericalMetadata:
    type: str
    mean: float
    std: float
    normalization: str
    min: float
    max: float

    def normalize(self, x):
        """``x``, a float or an array, in normalized space."""
        if self.normalization == "zscore":
            return (x - self.mean) / self.std
        if self.normalization == "minmax":
            span = self.max - self.min
            return (x - self.min) / span if span > 0 else np.zeros_like(x)
        return x

    def denormalize(self, x: float) -> float:
        if self.normalization == "zscore":
            return x * self.std + self.mean
        if self.normalization == "minmax":
            return x * (self.max - self.min) + self.min
        return x


@dataclass
class BinaryMetadata:
    type: str = "binary"
    true_form: str = "true"
    false_form: str = "false"


@dataclass
class VectorMetadata:
    type: str = "vector"
    length: int = 1


FeatureMetadata = VocabMetadata | NumericalMetadata | BinaryMetadata | VectorMetadata


def _tokens(cell: str, ftype: str, params: PreprocParams) -> list[str]:
    """The vocabulary tokens of one (lowercased as configured) cell."""
    if ftype == "category":
        return [cell]
    if ftype == "set":
        return cell.split()
    return tokenize(cell, params.tokenizer)  # sequence, text


def build_metadata(column: list[str], ftype: str, params: PreprocParams,
                   lines: Sequence[int] | None = None) -> FeatureMetadata:
    """Summarize one raw training column into reusable metadata.

    Vocabularies are ordered by descending frequency then lexicographically,
    truncated to the configured cap, and prefixed with the reserved tokens.
    Numerical statistics use population variance over non-missing values; a
    constant column keeps std = 1 so normalization stays well-defined.
    A cell that does not parse is reported with its row from ``lines``, the
    CSV line of each cell (by default 2, 3, ...: the column's own file).
    """
    if ftype not in SUPPORTED_TYPES:
        raise RegistryError(f"unknown feature type {ftype!r}; available: {', '.join(SUPPORTED_TYPES)}")
    if lines is None:
        lines = range(2, len(column) + 2)
    present = [(line, raw) for line, raw in zip(lines, column) if not is_missing(raw)]
    if ftype == "binary":
        _parse_cells(present, parse_binary)
        return BinaryMetadata()
    if not present:
        raise MetadataError(f"column has no usable values for type {ftype!r}")

    if ftype == "numerical":
        values = np.array(_parse_cells(present, parse_float))
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(values.mean())
            std = float(math.sqrt(float(((values - mean) ** 2).mean())))
            span = float(values.max() - values.min())
        if not (math.isfinite(mean) and math.isfinite(std) and math.isfinite(span)):
            raise MetadataError("numerical values too large to summarize: "
                                "their mean, std or range overflows float64")
        if std == 0.0:
            std = 1.0
        return NumericalMetadata(type="numerical", mean=mean, std=std,
                                 normalization=params.normalization,
                                 min=float(values.min()), max=float(values.max()))

    if ftype == "vector":
        length = len(_parse_cells(present[:1], parse_vector)[0])
        return VectorMetadata(type="vector", length=length)

    token_rows = [_tokens(raw.lower() if params.lowercase else raw, ftype, params)
                  for _, raw in present]
    counts = Counter()
    for row in token_rows:
        counts.update(row)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    reserved = [PAD, UNK] if ftype in ("sequence", "text") else [UNK]
    kept = [tok for tok, _ in ordered[: params.vocab_size] if tok not in reserved]
    max_len = 1
    if ftype in ("sequence", "text"):
        observed = max((len(row) for row in token_rows), default=1)
        max_len = max(1, min(observed, params.max_sequence_length))
    return VocabMetadata(type=ftype, id2token=reserved + kept, max_sequence_length=max_len)


# ---------------------------------------------------------------------------
# raw value parsers
# ---------------------------------------------------------------------------

def _parse_cells(cells: Iterable[tuple[int, str]], parse) -> list:
    """``parse`` of each (line, cell) pair; a failure names the line."""
    values = []
    for line, raw in cells:
        try:
            values.append(parse(raw))
        except DataError as exc:
            raise DataError(f"row {line}: {exc}") from None
    return values


def parse_binary(raw: str) -> float:
    low = raw.strip().lower()
    if low in TRUE_FORMS:
        return 1.0
    if low in FALSE_FORMS:
        return 0.0
    raise DataError(f"unrecognized binary value {raw!r} "
                    f"(expected one of {sorted(TRUE_FORMS)} / {sorted(FALSE_FORMS)})")


def parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"unparseable numerical value {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite numerical value {raw!r}")
    return value


def parse_vector(raw: str, length: int | None = None) -> list[float]:
    parts = raw.split()
    if not parts:
        raise DataError("empty vector value")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise DataError(f"unparseable vector value {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise DataError(f"non-finite vector value {raw!r}")
    if length is not None and len(values) != length:
        raise DataError(f"vector length {len(values)} != expected {length}")
    return values


# ---------------------------------------------------------------------------
# pre-processing: raw column -> array
# ---------------------------------------------------------------------------

def preprocess_column(column: Sequence[str], lines: Sequence[int], ftype: str,
                      meta: FeatureMetadata, params: PreprocParams) -> np.ndarray:
    """Map a raw column into the [rows x width] float64 array of its type.

    binary -> {0,1}, numerical -> normalized value, category -> integer id,
    each of width 1; set -> multi-hot over the vocabulary; sequence/text ->
    max_len integer ids right-padded with <PAD>; vector -> its fixed length
    of floats. Missing cells are resolved by the configured strategy first;
    a cell that does not parse is reported with its line from ``lines``.
    """
    if ftype not in SUPPORTED_TYPES:
        raise RegistryError(f"unknown feature type {ftype!r}")
    if ftype == "numerical":
        return meta.normalize(numerical_values(column, lines, meta, params)).reshape(-1, 1)
    cells = _filled_cells(column, ftype, meta, params)
    if ftype == "binary":
        return np.array(_parse_cells(zip(lines, cells), parse_binary)).reshape(-1, 1)
    if ftype == "vector":
        rows = _parse_cells(zip(lines, cells), lambda raw: parse_vector(raw, meta.length))
        return np.array(rows).reshape(-1, meta.length)

    if ftype == "set":
        token_rows = [_tokens(cell, ftype, params) for cell in cells]
        get, unk = meta.token2id.get, meta.token2id[UNK]
        ids = [get(tok, unk) for row in token_rows for tok in row]
        hot = np.zeros((len(cells), meta.vocab_size))
        hot[np.repeat(np.arange(len(cells)), [len(row) for row in token_rows]), ids] = 1.0
        return hot
    ids = [[meta.lookup(tok) for tok in _tokens(cell, ftype, params)] for cell in cells]
    if ftype == "category":
        return np.array(ids, dtype=np.float64).reshape(-1, 1)
    width = meta.max_sequence_length  # sequence, text
    padded = np.full((len(ids), width), float(meta.token2id[PAD]))
    for i, row in enumerate(ids):
        padded[i, : min(len(row), width)] = row[:width]
    return padded


def numerical_values(column: Sequence[str], lines: Sequence[int], meta: NumericalMetadata,
                     params: PreprocParams) -> np.ndarray:
    """A numerical column's raw values, missing cells filled: what
    ``preprocess_column`` normalizes, and a numerical output's truths."""
    cells = _filled_cells(column, "numerical", meta, params)
    return np.array(_parse_cells(zip(lines, cells), parse_float))


def _filled_cells(column: Sequence[str], ftype: str, meta: FeatureMetadata,
                  params: PreprocParams) -> list[str]:
    """The cells as preprocessing reads them: missing ones filled by the
    configured strategy, then all lowercased if so configured."""
    if any(is_missing(raw) for raw in column):
        fill = _fill_missing(ftype, meta, params)
        column = [fill if is_missing(raw) else raw for raw in column]
    return [raw.lower() for raw in column] if params.lowercase else list(column)


def _fill_missing(ftype: str, meta: FeatureMetadata, params: PreprocParams) -> str:
    strategy = params.missing_strategy
    if strategy == "drop_row":
        raise ContractError("drop_row rows must be filtered before preprocessing")
    if ftype == "numerical":
        return repr(meta.mean) if strategy == "fill_mean" else "0"
    if strategy == "fill_mean":
        raise ContractError(f"fill_mean is only valid for numerical features, not {ftype!r}")
    if ftype == "binary":
        return "false"
    if ftype == "category":
        return UNK
    if ftype == "vector":
        return " ".join(["0"] * meta.length)
    return ""  # set, sequence, text: empty token list


# ---------------------------------------------------------------------------
# post-processing: predictions -> raw values
# ---------------------------------------------------------------------------

def postprocess_prediction(batch: np.ndarray, ftype: str, meta: FeatureMetadata,
                           lengths: np.ndarray | None = None) -> list:
    """Map a batch of predictions back into raw data space, one entry per row.

    category and set take [b x vocab] probabilities, binary [b x 1]
    probabilities, numerical [b x 1] values already denormalized, sequence
    the tag ids of every row's tokens back to back, with each row's token
    count in ``lengths``. Argmax ties go to the lowest id; thresholds are
    >= 0.5; a tag row loses its trailing ``<PAD>`` tags.
    """
    arr = np.asarray(batch)
    if ftype in ("binary", "numerical"):
        if arr.ndim != 2 or arr.shape[1] != 1:
            raise ShapeError(f"{ftype} prediction dims {arr.shape} must be [b x 1]")
        if ftype == "numerical":
            return arr[:, 0].tolist()
        return [meta.true_form if hit else meta.false_form for hit in (arr[:, 0] >= 0.5).tolist()]
    if ftype in ("category", "set"):
        if arr.ndim != 2 or arr.shape[1] != meta.vocab_size:
            raise ShapeError(f"{ftype} prediction dims {arr.shape} != [b x {meta.vocab_size}]")
        if ftype == "category":
            return [meta.id2token[i] for i in np.argmax(arr, axis=1).tolist()]
        return [[tok for tok, hit in zip(meta.id2token, row) if hit]
                for row in (arr >= 0.5).tolist()]
    if ftype == "sequence":
        if arr.ndim != 1 or lengths is None or arr.size != lengths.sum():
            raise ShapeError(f"sequence prediction dims {arr.shape} must hold one tag id "
                             f"per token of the rows' lengths")
        pad = meta.token2id[PAD]
        tags = arr.tolist()
        ends = np.cumsum(lengths).tolist()
        rows = []
        for start, end in zip([0] + ends, ends):
            ids = tags[start:end]
            while ids and ids[-1] == pad:
                ids.pop()
            rows.append([meta.id2token[i] for i in ids])
        return rows
    raise RegistryError(f"no post-processor for feature type {ftype!r}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
# A metric compares an output's predictions with its truths, the target array
# its loss trains on (a tagger's at its real tokens), so a truth outside the
# training vocabulary is scored as <UNK>. A numerical output is scored in raw
# space: its denormalized predictions against ``numerical_values``.

#: metric name -> (callable, higher_is_better)
_METRICS: dict[str, tuple] = {}

#: feature type -> metric names valid for it
TYPE_METRICS: dict[str, tuple[str, ...]] = {
    "category": ("accuracy", "cross_entropy"),
    "binary": ("accuracy",),
    "numerical": ("mse", "mae", "r2"),
    "sequence": ("token_accuracy",),
    "set": ("jaccard",),
}


def _metric(name, higher_is_better):
    def deco(fn):
        _METRICS[name] = (fn, higher_is_better)
        return fn
    return deco


def _sum_in_order(values: Iterable[float]) -> float:
    """The sum of ``values`` added one at a time, first to last."""
    total = 0.0
    for value in values:
        total += value
    return total


@_metric("accuracy", True)
def _accuracy(truths, preds):
    # binary truths are hits, met by a >= 0.5 probability; category truths
    # are ids, met by the argmax id (so a one-class softmax always hits)
    decided = preds[:, 0] >= 0.5 if truths.dtype == bool else np.argmax(preds, axis=1)
    return np.count_nonzero(decided == truths[:, 0]) / len(truths)


@_metric("cross_entropy", False)
def _cross_entropy(truths, preds):
    # truths: [n x 1] class ids; preds: [n x c] probabilities
    picked = preds[np.arange(len(truths)), truths[:, 0].astype(np.int64)]
    return _sum_in_order(-math.log(max(p, 1e-12)) for p in picked.tolist()) / len(truths)


@_metric("mse", False)
def _mse(truths, preds):
    return sum((t - p) ** 2 for t, p in _raw_pairs(truths, preds)) / len(truths)


@_metric("mae", False)
def _mae(truths, preds):
    return sum(abs(t - p) for t, p in _raw_pairs(truths, preds)) / len(truths)


@_metric("r2", True)
def _r2(truths, preds):
    mean = sum(truths.ravel().tolist()) / len(truths)
    ss_tot = sum((t - mean) ** 2 for t in truths.ravel().tolist())
    ss_res = sum((t - p) ** 2 for t, p in _raw_pairs(truths, preds))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot


def _raw_pairs(truths, preds):
    """(truth, prediction) of each row of a numerical output, as Python floats."""
    return zip(truths.ravel().tolist(), preds.ravel().tolist())


@_metric("token_accuracy", True)
def _token_accuracy(truths, preds):
    # truths and preds: tag ids at the real tokens, every row's back to back
    return np.count_nonzero(truths == preds) / truths.size if truths.size else 0.0


@_metric("jaccard", True)
def _jaccard(truths, preds):
    # truths: [n x c] multi-hot; preds: [n x c] probabilities, a hit at >= 0.5
    hot, hits = truths == 1.0, preds >= 0.5
    union = np.count_nonzero(hot | hits, axis=1)
    shared = np.count_nonzero(hot & hits, axis=1)
    # a row with an empty union scores 1
    scores = np.divide(shared, union, out=np.ones(len(truths)), where=union > 0)
    return _sum_in_order(scores.tolist()) / len(truths)


def higher_is_better(kind: str) -> bool:
    """Improvement direction for a metric; 'loss' counts as lower-is-better."""
    if kind == "loss":
        return False
    if kind not in _METRICS:
        raise RegistryError(f"unknown metric {kind!r}; available: loss, {', '.join(_METRICS)}")
    return _METRICS[kind][1]


def compute_metric(kind: str, truths, preds) -> float:
    """Score predictions against truths with one named metric; both are
    arrays of one entry per row, or per real token for a tagger."""
    if kind not in _METRICS:
        raise RegistryError(f"unknown metric {kind!r}; available: {', '.join(_METRICS)}")
    truths, preds = np.asarray(truths), np.asarray(preds)
    if len(truths) != len(preds):
        raise ContractError(f"metric inputs differ in length: {len(truths)} vs {len(preds)}")
    return float(_METRICS[kind][0](truths, preds))


# ---------------------------------------------------------------------------
# metadata (de)serialization
# ---------------------------------------------------------------------------

def metadata_to_dict(meta: FeatureMetadata) -> dict:
    if isinstance(meta, VocabMetadata):
        return {"type": meta.type, "id2token": meta.id2token,
                "max_sequence_length": meta.max_sequence_length}
    if isinstance(meta, NumericalMetadata):
        return {"type": "numerical", "mean": meta.mean, "std": meta.std,
                "normalization": meta.normalization, "min": meta.min, "max": meta.max}
    if isinstance(meta, BinaryMetadata):
        return {"type": "binary", "true_form": meta.true_form, "false_form": meta.false_form}
    if isinstance(meta, VectorMetadata):
        return {"type": "vector", "length": meta.length}
    raise ContractError(f"unserializable metadata {type(meta).__name__}")


#: feature type -> metadata dataclass
_METADATA_CLASSES = {"binary": BinaryMetadata, "numerical": NumericalMetadata,
                     "vector": VectorMetadata,
                     **dict.fromkeys(("category", "set", "sequence", "text"), VocabMetadata)}
#: metadata dataclass -> the resolved annotations of the fields it is built from
_FIELD_TYPES = {cls: {f.name: typing.get_type_hints(cls)[f.name]
                      for f in fields(cls) if f.init}
                for cls in typing.get_args(FeatureMetadata)}


def metadata_from_dict(payload: dict) -> FeatureMetadata:
    """Inverse of ``metadata_to_dict``.

    Each field is checked against its annotation in the metadata dataclass
    (a float field also takes a JSON integer), then against what
    ``build_metadata`` makes: a vocabulary of unique strings with the
    reserved tokens at their ids, finite statistics with std > 0, a known
    normalization, and lengths of at least 1. A missing, ill-typed or
    out-of-range field is a DataError.
    """
    if not isinstance(payload, dict):
        raise DataError(f"metadata entry must be an object, got {type(payload).__name__}")
    ftype = payload.get("type")
    cls = _METADATA_CLASSES.get(ftype) if isinstance(ftype, str) else None
    if cls is None:
        raise DataError(f"metadata entry has unknown type {ftype!r}")
    known = {}
    for key, hint in _FIELD_TYPES[cls].items():
        value = payload.get(key)
        expected = (int, float) if hint is float else typing.get_origin(hint) or hint
        if isinstance(value, bool) or not isinstance(value, expected):
            raise DataError(f"metadata field {key!r} is missing or ill-typed: {value!r}")
        known[key] = value
    problem = _field_problem(ftype, known)
    if problem:
        raise DataError(f"metadata field {problem}")
    return cls(**known)


def _field_problem(ftype: str, entry: dict) -> str | None:
    """The first field of a well-typed entry that ``build_metadata`` could
    not have made, and why; None when there is none."""
    if ftype == "numerical":
        # false for nan and the infinities, and for a JSON integer beyond float64
        finite = {key: abs(entry[key]) <= sys.float_info.max
                  for key in ("std", "mean", "min", "max")}
        if not (finite["std"] and entry["std"] > 0):
            return f"'std' must be finite and > 0, got {entry['std']!r}"
        for key in ("mean", "min", "max"):
            if not finite[key]:
                return f"{key!r} must be finite, got {entry[key]!r}"
        if entry["normalization"] not in NORMALIZATIONS:
            return (f"'normalization' must be one of {', '.join(NORMALIZATIONS)}, "
                    f"got {entry['normalization']!r}")
    elif ftype == "vector":
        if entry["length"] < 1:
            return f"'length' must be at least 1, got {entry['length']!r}"
    elif ftype != "binary":  # category, set, sequence, text
        tokens = entry["id2token"]
        if not set(map(type, tokens)) <= {str} or len(set(tokens)) != len(tokens):
            return "'id2token' must hold unique strings"
        reserved = [PAD, UNK] if ftype in ("sequence", "text") else [UNK]
        if tokens[: len(reserved)] != reserved:
            return f"'id2token' must start with {reserved}, got {tokens[: len(reserved)]}"
        if entry["max_sequence_length"] < 1:
            return (f"'max_sequence_length' must be at least 1, "
                    f"got {entry['max_sequence_length']!r}")
    return None
