"""Per-type data handling: pre-processors, post-processors, metadata, metrics.

Seven feature types are supported: binary, numerical, category, set,
sequence, text, and vector. Each type knows how to summarize a raw training
column into metadata (vocabularies, statistics), how to turn a raw cell into
a tensor using that metadata, how to map a prediction tensor back into raw
space, and which evaluation metrics apply.

Vocabulary conventions: sequence and text reserve id 0 for ``<PAD>`` and
id 1 for ``<UNK>``; category and set reserve id 0 for ``<UNK>``. Remaining
tokens are ordered by descending frequency with lexicographic tie-breaking,
so metadata is byte-reproducible across runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, MetadataError, RegistryError, ShapeError
from .tensor import Tensor

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
    """Knobs that change how raw values become tensors."""

    tokenizer: str = "space"
    max_sequence_length: int = 256
    vocab_size: int = 10000
    lowercase: bool = False
    normalization: str = "zscore"
    missing_strategy: str = "fill_const"

    def __post_init__(self):
        if self.max_sequence_length < 1:
            raise ContractError("max_sequence_length must be positive")
        if self.vocab_size < 1:
            raise ContractError("vocab_size must be positive")


#: per-type preprocessing defaults layered under any user configuration
TYPE_PREPROC_DEFAULTS: dict[str, dict] = {
    "binary": {"missing_strategy": "fill_const"},
    "numerical": {"normalization": "zscore", "missing_strategy": "fill_const"},
    "category": {"vocab_size": 10000, "lowercase": False, "missing_strategy": "fill_const"},
    "set": {"vocab_size": 10000, "lowercase": False, "missing_strategy": "fill_const"},
    "sequence": {"tokenizer": "space", "max_sequence_length": 256, "vocab_size": 10000,
                 "lowercase": False, "missing_strategy": "fill_const"},
    "text": {"tokenizer": "space", "max_sequence_length": 256, "vocab_size": 10000,
             "lowercase": True, "missing_strategy": "fill_const"},
    "vector": {"missing_strategy": "fill_const"},
}

#: which preprocessing keys a feature of each type may configure
TYPE_PREPROC_KEYS: dict[str, frozenset] = {
    "binary": frozenset({"missing_strategy"}),
    "numerical": frozenset({"normalization", "missing_strategy"}),
    "category": frozenset({"vocab_size", "lowercase", "missing_strategy"}),
    "set": frozenset({"vocab_size", "lowercase", "missing_strategy"}),
    "sequence": frozenset({"tokenizer", "max_sequence_length", "vocab_size", "lowercase",
                           "missing_strategy"}),
    "text": frozenset({"tokenizer", "max_sequence_length", "vocab_size", "lowercase",
                       "missing_strategy"}),
    "vector": frozenset({"missing_strategy"}),
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
    """Shared vocabulary bookkeeping for category, set, sequence, and text."""

    type: str
    token2id: dict[str, int]
    id2token: list[str]
    frequencies: dict[str, int]
    max_sequence_length: int = 1

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

    def normalize(self, x: float) -> float:
        if self.normalization == "zscore":
            return (x - self.mean) / self.std
        if self.normalization == "minmax":
            span = self.max - self.min
            return (x - self.min) / span if span > 0 else 0.0
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


def _column_tokens(column: list[str], ftype: str, params: PreprocParams) -> list[list[str]]:
    rows = []
    for raw in column:
        if is_missing(raw):
            continue
        value = raw.lower() if params.lowercase else raw
        if ftype == "category":
            rows.append([value])
        elif ftype == "set":
            rows.append(value.split())
        else:  # sequence, text
            rows.append(tokenize(value, params.tokenizer))
    return rows


def build_metadata(column: list[str], ftype: str, params: PreprocParams) -> FeatureMetadata:
    """Summarize one raw training column into reusable metadata.

    Vocabularies are ordered by descending frequency then lexicographically,
    truncated to the configured cap, and prefixed with the reserved tokens.
    Numerical statistics use population variance over non-missing values; a
    constant column keeps std = 1 so normalization stays well-defined.
    """
    if ftype not in SUPPORTED_TYPES:
        raise RegistryError(f"unknown feature type {ftype!r}; available: {', '.join(SUPPORTED_TYPES)}")
    present = [raw for raw in column if not is_missing(raw)]
    if ftype == "binary":
        for raw in present:
            parse_binary(raw)
        return BinaryMetadata()
    if not present:
        raise MetadataError(f"column has no usable values for type {ftype!r}")

    if ftype == "numerical":
        values = np.array([parse_float(raw) for raw in present])
        mean = float(values.mean())
        std = float(math.sqrt(float(((values - mean) ** 2).mean())))
        if std == 0.0:
            std = 1.0
        return NumericalMetadata(type="numerical", mean=mean, std=std,
                                 normalization=params.normalization,
                                 min=float(values.min()), max=float(values.max()))

    if ftype == "vector":
        length = len(parse_vector(present[0]))
        return VectorMetadata(type="vector", length=length)

    token_rows = _column_tokens(column, ftype, params)
    counts = Counter()
    for row in token_rows:
        counts.update(row)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    reserved = [PAD, UNK] if ftype in ("sequence", "text") else [UNK]
    kept = [tok for tok, _ in ordered[: params.vocab_size] if tok not in reserved]
    id2token = reserved + kept
    token2id = {tok: i for i, tok in enumerate(id2token)}
    max_len = 1
    if ftype in ("sequence", "text"):
        observed = max((len(row) for row in token_rows), default=1)
        max_len = max(1, min(observed, params.max_sequence_length))
    return VocabMetadata(type=ftype, token2id=token2id, id2token=id2token,
                         frequencies=dict(sorted(counts.items())),
                         max_sequence_length=max_len)


# ---------------------------------------------------------------------------
# raw value parsers
# ---------------------------------------------------------------------------

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
        return float(raw)
    except ValueError:
        raise DataError(f"unparseable numerical value {raw!r}") from None


def parse_vector(raw: str) -> list[float]:
    parts = raw.split()
    if not parts:
        raise DataError("empty vector value")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise DataError(f"unparseable vector value {raw!r}") from None


# ---------------------------------------------------------------------------
# pre-processing: raw value -> tensor
# ---------------------------------------------------------------------------

def preprocess_value(raw: str, ftype: str, meta: FeatureMetadata, params: PreprocParams) -> Tensor:
    """Map one raw cell into the tensor contract of its type.

    binary -> [1] in {0,1}; numerical -> normalized [1]; category -> [1]
    integer id; set -> multi-hot over the vocabulary; sequence/text ->
    [max_len] integer ids right-padded with <PAD>; vector -> fixed-length
    floats. A missing cell is resolved by the configured strategy first.
    """
    if is_missing(raw):
        raw = _fill_missing(ftype, meta, params)

    if ftype == "binary":
        return Tensor([parse_binary(raw)])
    if ftype == "numerical":
        return Tensor([meta.normalize(parse_float(raw))])
    if ftype == "vector":
        values = parse_vector(raw)
        if len(values) != meta.length:
            raise DataError(f"vector length {len(values)} != expected {meta.length}")
        return Tensor(values)

    value = raw.lower() if params.lowercase else raw
    if ftype == "category":
        return Tensor([float(meta.lookup(value))])
    if ftype == "set":
        hot = np.zeros(meta.vocab_size)
        for tok in value.split():
            hot[meta.lookup(tok)] = 1.0
        return Tensor(hot)
    if ftype in ("sequence", "text"):
        ids = [meta.lookup(tok) for tok in tokenize(value, params.tokenizer)]
        ids = ids[: meta.max_sequence_length]
        padded = ids + [meta.token2id[PAD]] * (meta.max_sequence_length - len(ids))
        return Tensor([float(i) for i in padded])
    raise RegistryError(f"unknown feature type {ftype!r}")


def _fill_missing(ftype: str, meta: FeatureMetadata, params: PreprocParams) -> str:
    strategy = params.missing_strategy
    if strategy == "drop_row":
        raise ContractError("drop_row rows must be filtered before per-value preprocessing")
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
# post-processing: prediction tensor -> raw value
# ---------------------------------------------------------------------------

def postprocess_prediction(out: Tensor, ftype: str, meta: FeatureMetadata):
    """Map one row's prediction tensor back into raw data space."""
    arr = out.array
    if ftype == "category":
        if arr.ndim != 1 or arr.shape[0] != meta.vocab_size:
            raise ShapeError(f"category prediction dims {out.dims} != vocabulary size {meta.vocab_size}")
        return meta.id2token[int(np.argmax(arr))]
    if ftype == "binary":
        if arr.size != 1:
            raise ShapeError(f"binary prediction dims {out.dims} must be [1]")
        return meta.true_form if float(arr.reshape(-1)[0]) >= 0.5 else meta.false_form
    if ftype == "numerical":
        if arr.size != 1:
            raise ShapeError(f"numerical prediction dims {out.dims} must be [1]")
        return meta.denormalize(float(arr.reshape(-1)[0]))
    if ftype == "set":
        if arr.ndim != 1 or arr.shape[0] != meta.vocab_size:
            raise ShapeError(f"set prediction dims {out.dims} != vocabulary size {meta.vocab_size}")
        return [meta.id2token[i] for i in range(meta.vocab_size) if arr[i] >= 0.5]
    if ftype == "sequence":
        if arr.ndim != 2 or arr.shape[1] != meta.vocab_size:
            raise ShapeError(f"sequence prediction dims {out.dims} incompatible with vocabulary")
        tokens = [meta.id2token[int(np.argmax(arr[t]))] for t in range(arr.shape[0])]
        while tokens and tokens[-1] == PAD:
            tokens.pop()
        return tokens
    raise RegistryError(f"no post-processor for feature type {ftype!r}")


def canonical_truth(raw: str, ftype: str, meta: FeatureMetadata, params: PreprocParams):
    """Bring a ground-truth cell into the same space post-processing emits.

    Needed so metrics compare like with like: binary truth "1" must match a
    predicted "true", lowercased category vocabularies must match lowercased
    truths, and sequence truths become token lists.
    """
    if ftype == "binary":
        return meta.true_form if parse_binary(raw) == 1.0 else meta.false_form
    if ftype == "numerical":
        return parse_float(raw)
    value = raw.lower() if params.lowercase else raw
    if ftype == "category":
        return value
    if ftype == "set":
        return value.split()
    if ftype == "sequence":
        return tokenize(value, params.tokenizer)[: meta.max_sequence_length]
    raise RegistryError(f"no truth canonicalizer for feature type {ftype!r}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

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


@_metric("accuracy", True)
def _accuracy(truths, preds):
    return sum(1.0 for t, p in zip(truths, preds) if t == p) / len(truths)


@_metric("cross_entropy", False)
def _cross_entropy(truths, preds):
    # truths: class ids; preds: probability vectors over the same vocabulary
    eps = 1e-12
    total = 0.0
    for t, probs in zip(truths, preds):
        total += -math.log(max(float(probs[int(t)]), eps))
    return total / len(truths)


@_metric("mse", False)
def _mse(truths, preds):
    return sum((float(t) - float(p)) ** 2 for t, p in zip(truths, preds)) / len(truths)


@_metric("mae", False)
def _mae(truths, preds):
    return sum(abs(float(t) - float(p)) for t, p in zip(truths, preds)) / len(truths)


@_metric("r2", True)
def _r2(truths, preds):
    mean = sum(float(t) for t in truths) / len(truths)
    ss_tot = sum((float(t) - mean) ** 2 for t in truths)
    ss_res = sum((float(t) - float(p)) ** 2 for t, p in zip(truths, preds))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot


@_metric("token_accuracy", True)
def _token_accuracy(truths, preds):
    # rows are token lists; padding has already been stripped from both sides
    correct = 0
    total = 0
    for truth_row, pred_row in zip(truths, preds):
        total += len(truth_row)
        for i, tok in enumerate(truth_row):
            if i < len(pred_row) and pred_row[i] == tok:
                correct += 1
    return correct / total if total else 0.0


@_metric("jaccard", True)
def _jaccard(truths, preds):
    score = 0.0
    for truth_row, pred_row in zip(truths, preds):
        ts, ps = set(truth_row), set(pred_row)
        union = ts | ps
        score += (len(ts & ps) / len(union)) if union else 1.0
    return score / len(truths)


def higher_is_better(kind: str) -> bool:
    """Improvement direction for a metric; 'loss' counts as lower-is-better."""
    if kind == "loss":
        return False
    if kind not in _METRICS:
        raise RegistryError(f"unknown metric {kind!r}; available: loss, {', '.join(_METRICS)}")
    return _METRICS[kind][1]


def compute_metric(kind: str, truths: list, preds: list, ftype: str | None = None) -> float:
    """Score predictions against ground truths with one named metric."""
    if kind not in _METRICS:
        raise RegistryError(f"unknown metric {kind!r}; available: {', '.join(_METRICS)}")
    if ftype is not None and kind not in TYPE_METRICS.get(ftype, ()):
        raise RegistryError(f"metric {kind!r} is not valid for feature type {ftype!r}; "
                            f"valid: {', '.join(TYPE_METRICS.get(ftype, ()))}")
    if len(truths) != len(preds):
        raise ContractError(f"metric inputs differ in length: {len(truths)} vs {len(preds)}")
    if not truths:
        raise ContractError("cannot score an empty prediction list")
    return float(_METRICS[kind][0](truths, preds))


# ---------------------------------------------------------------------------
# metadata (de)serialization
# ---------------------------------------------------------------------------

def metadata_to_dict(meta: FeatureMetadata) -> dict:
    if isinstance(meta, VocabMetadata):
        return {"type": meta.type, "token2id": meta.token2id, "id2token": meta.id2token,
                "frequencies": meta.frequencies, "max_sequence_length": meta.max_sequence_length}
    if isinstance(meta, NumericalMetadata):
        return {"type": "numerical", "mean": meta.mean, "std": meta.std,
                "normalization": meta.normalization, "min": meta.min, "max": meta.max}
    if isinstance(meta, BinaryMetadata):
        return {"type": "binary", "true_form": meta.true_form, "false_form": meta.false_form}
    if isinstance(meta, VectorMetadata):
        return {"type": "vector", "length": meta.length}
    raise ContractError(f"unserializable metadata {type(meta).__name__}")


def metadata_from_dict(payload: dict) -> FeatureMetadata:
    ftype = payload.get("type")
    if ftype in ("category", "set", "sequence", "text"):
        return VocabMetadata(type=ftype, token2id=dict(payload["token2id"]),
                             id2token=list(payload["id2token"]),
                             frequencies=dict(payload["frequencies"]),
                             max_sequence_length=int(payload["max_sequence_length"]))
    if ftype == "numerical":
        return NumericalMetadata(type="numerical", mean=payload["mean"], std=payload["std"],
                                 normalization=payload["normalization"],
                                 min=payload["min"], max=payload["max"])
    if ftype == "binary":
        return BinaryMetadata(true_form=payload["true_form"], false_form=payload["false_form"])
    if ftype == "vector":
        return VectorMetadata(length=int(payload["length"]))
    raise DataError(f"metadata entry has unknown type {ftype!r}")
