"""Per-type decoders: combined representation -> predictions and loss.

A decoder owns an optional fc stack plus a final projection. Its forward
pass returns its output node (probabilities where the type has them, else
the raw prediction), that node's value in the output's shape, the last
hidden representation before projection, and, when a target batch is
supplied, a scalar loss node. The last hidden state and the output are the
two payload kinds another decoder may consume through an output dependency;
the tagger builds its pooled last hidden state only when asked to.

The built-in decoders share one body and differ only in data: the output
width follows from the metadata, the output op is the class's ``OUTPUT``,
the loss op is ``DEFAULT_LOSSES`` of the type. Every decoder receives
``seq_width``, the width of the tagged input's per-position states; only the
tagger reads it. A type's ``DECODERS`` entry registers its default first.
A numerical target batch holds raw values, as its column does: the
numerical regressor normalizes it before the loss and denormalizes its
predictions, so every decoder's predictions are in raw data space.

The tagger reads the tagged input's packed states (see ``encoders``): the
states of each row's real tokens back to back, with the rows' lengths. It
projects, scores and pools only those positions, so a row's tags do not
depend on how wide the batch is padded or on the other rows in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ShapeError
from .features import VocabMetadata
from .layers import FcStack, make_bias, make_weight
from .rng import Lcg

PAD_ID = 0


def token_counts(ids: np.ndarray) -> np.ndarray:
    """Tokens per row of padded sequence ids: the position after the last
    non-PAD id, so the count after ``max_sequence_length`` truncation. The
    one place a row's length is derived from its PAD ids."""
    real = ids != PAD_ID
    return np.where(real.any(axis=1), real.shape[1] - np.argmax(real[:, ::-1], axis=1), 0)


def real_positions(lengths: np.ndarray, width: int) -> np.ndarray:
    """The [b x width] mask of each row's first ``lengths[i]`` positions: the
    positions whose states a packed sequence holds, in row-major order."""
    return np.arange(width) < lengths[:, np.newaxis]


def mean_over_rows(tape: ad.Tape, packed: ad.TapeNode, lengths: np.ndarray) -> ad.TapeNode:
    """Each row's mean over its real positions, [b x width], from packed rows
    (``lengths[i]`` of them per row); a row with no tokens pools to 0."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    average = np.zeros((lengths.size, rows.size), tape.dtype)
    average[rows, np.arange(rows.size)] = 1.0 / lengths[rows]
    return ad.matmul(tape.constant(average), packed)


@dataclass
class DecodeResult:
    """``output`` is what a dependent reads as the probabilities payload;
    ``predictions`` its value in the output's shape as float64, the one
    array an output reports. Metrics compare it with the target array the
    loss reads, so a truth outside the vocabulary is scored as ``<UNK>``."""

    output: ad.TapeNode
    last_hidden: ad.TapeNode | None
    loss: ad.TapeNode | None
    predictions: np.ndarray


class _ProjectionDecoder:
    """An fc stack, then a linear projection to the output width: the
    vocabulary size for vocabulary metadata, else 1. Ops are looked up in
    ``autodiff`` by name at call time, so a patched op is the one called.
    """

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}
    OUTPUT: str | None = None

    def __init__(self, feature: str, meta, store, rng: Lcg, input_width: int,
                 seq_width: int | None = None, **kwargs):
        prefix = f"decoders.{feature}"
        self.stack = FcStack(store, rng, prefix, input_width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.hidden_width = self.stack.output_width
        self.out_width = meta.vocab_size if isinstance(meta, VocabMetadata) else 1
        self.proj_w = make_weight(store, rng, f"{prefix}.proj.weight",
                                  self.hidden_width, self.out_width)
        self.proj_b = make_bias(store, f"{prefix}.proj.bias", self.out_width)
        self.loss_op = DEFAULT_LOSSES[meta.type]
        self.meta = meta

    def payload_width(self, kind: str) -> int:
        # a regressor's "probabilities" payload is its raw prediction
        return self.out_width if kind == "probabilities" else self.hidden_width

    def project(self, tape: ad.Tape, x: ad.TapeNode) -> tuple[ad.TapeNode, ad.TapeNode]:
        hidden = self.stack.forward(tape, x)
        logits = ad.add(ad.matmul(hidden, tape.leaf(self.proj_w)), tape.leaf(self.proj_b))
        return hidden, logits

    def forward(self, tape, x, target=None, seq_states=None, last_hidden=True) -> DecodeResult:
        hidden, logits = self.project(tape, x)
        output = getattr(ad, self.OUTPUT)(logits) if self.OUTPUT else logits
        loss = None
        if target is not None:
            loss = getattr(ad, self.loss_op)(logits, target)
        return DecodeResult(output, hidden, loss, np.asarray(output.value.array, np.float64))


class CategoryClassifierDecoder(_ProjectionDecoder):
    OUTPUT = "softmax"


class BinaryRegressorDecoder(_ProjectionDecoder):
    OUTPUT = "sigmoid"


class NumericalRegressorDecoder(_ProjectionDecoder):
    """Trains on its normalized target and predicts raw values: its output
    node, the payload a dependent reads, stays in normalized space."""

    OUTPUT = None

    def forward(self, tape, x, target=None, seq_states=None, last_hidden=True) -> DecodeResult:
        if target is not None:
            target = self.meta.normalize(target)
        result = super().forward(tape, x, target, seq_states, last_hidden)
        result.predictions = self.meta.denormalize(result.predictions)
        return result


class SetClassifierDecoder(_ProjectionDecoder):
    OUTPUT = "sigmoid"


class SequenceTaggerDecoder(_ProjectionDecoder):
    """Per-position classification over a sequence encoder's unreduced states.

    Ignores the combined representation: its input is the tagged input
    feature's ``EncoderOutput``, whose packed [n x w] states it projects to
    [n x vocab] probabilities; the loss is their cross entropy against the
    targets at the same positions. Its predictions are the [b x s x vocab]
    per-position probabilities, zero past each row's end. Its pooled last
    hidden state is the mean over each row's real positions, 0 for a row
    with no tokens.
    """

    def __init__(self, feature: str, meta: VocabMetadata, store, rng: Lcg,
                 input_width: int, seq_width: int | None = None, **kwargs):
        if seq_width is None:
            raise ConfigError(
                f"tagger decoder for {feature!r} requires a sequence or text input feature")
        super().__init__(feature, meta, store, rng, seq_width, **kwargs)

    def payload_width(self, kind: str) -> int:
        if kind == "probabilities":
            raise ConfigError("sequence origins only provide last_hidden payloads")
        return self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None, last_hidden=True) -> DecodeResult:
        if seq_states is None or seq_states.sequence is None:
            raise ContractError("tagger decoder needs the unreduced sequence states")
        lengths = seq_states.lengths
        real = real_positions(lengths, seq_states.width)
        hidden, logits = self.project(tape, seq_states.sequence)
        probs = ad.softmax(logits)
        loss = None
        if target is not None:
            ids = np.asarray(target).astype(np.int64)
            if ids.shape != real.shape:
                raise ShapeError(f"tagger target dims {ids.shape} != sequence dims {real.shape}")
            loss = ad.softmax_cross_entropy(logits, ids[real])
        pooled = mean_over_rows(tape, hidden, lengths) if last_hidden else None
        predictions = np.zeros(real.shape + (self.out_width,))
        predictions[real] = probs.value.array
        return DecodeResult(probs, pooled, loss, predictions)


#: feature type -> {decoder name -> class}
DECODERS: dict[str, dict[str, type]] = {
    "category": {"classifier": CategoryClassifierDecoder},
    "binary": {"regressor": BinaryRegressorDecoder},
    "numerical": {"regressor": NumericalRegressorDecoder},
    "set": {"classifier": SetClassifierDecoder},
    "sequence": {"tagger": SequenceTaggerDecoder},
}

#: feature type -> loss kind
DEFAULT_LOSSES = {
    "category": "softmax_cross_entropy",
    "binary": "sigmoid_bce",
    "numerical": "mse",
    "set": "sigmoid_bce",
    "sequence": "softmax_cross_entropy",
}

#: payload kind used when a dependency does not name one, by origin type
DEFAULT_PAYLOADS = {
    "category": "probabilities",
    "binary": "probabilities",
    "set": "probabilities",
    "numerical": "last_hidden",
    "sequence": "last_hidden",
}
