"""Per-type decoders: combined representation -> predictions and loss.

A decoder owns an optional fc stack plus a final projection. Its forward
pass returns the prediction tensor (probabilities where the type has them),
the last hidden representation before projection, and, when a target batch
is supplied, a scalar loss node. The last hidden state and the prediction
probabilities are the two payload kinds another decoder may consume through
an output dependency.
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


@dataclass
class DecodeResult:
    predictions: ad.TapeNode
    last_hidden: ad.TapeNode
    loss: ad.TapeNode | None
    probabilities: ad.TapeNode | None


class _ProjectionDecoder:
    """Common shape: fc stack, then a linear projection to ``out_width``."""

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}
    ACCEPTED = frozenset(DEFAULTS)

    def __init__(self, feature: str, store, rng: Lcg, input_width: int,
                 out_width: int, **kwargs):
        prefix = f"decoders.{feature}"
        self.stack = FcStack(store, rng, prefix, input_width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.proj_w = make_weight(store, rng, f"{prefix}.proj.weight",
                                  self.stack.output_width, out_width)
        self.proj_b = make_bias(store, f"{prefix}.proj.bias", out_width)
        self.hidden_width = self.stack.output_width
        self.out_width = out_width

    def project(self, tape: ad.Tape, x: ad.TapeNode) -> tuple[ad.TapeNode, ad.TapeNode]:
        hidden = self.stack.forward(tape, x)
        logits = ad.add(ad.matmul(hidden, tape.leaf(self.proj_w)), tape.leaf(self.proj_b))
        return hidden, logits


class CategoryClassifierDecoder(_ProjectionDecoder):

    def __init__(self, feature: str, meta, store, rng: Lcg, input_width: int, **kwargs):
        super().__init__(feature, store, rng, input_width, meta.vocab_size, **kwargs)

    def payload_width(self, kind: str) -> int:
        return self.out_width if kind == "probabilities" else self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None) -> DecodeResult:
        hidden, logits = self.project(tape, x)
        probs = ad.softmax(logits)
        loss = None
        if target is not None:
            loss = ad.softmax_cross_entropy(logits, target.reshape(-1))
        return DecodeResult(probs, hidden, loss, probs)


class BinaryRegressorDecoder(_ProjectionDecoder):

    def __init__(self, feature: str, meta, store, rng: Lcg, input_width: int, **kwargs):
        super().__init__(feature, store, rng, input_width, 1, **kwargs)

    def payload_width(self, kind: str) -> int:
        return 1 if kind == "probabilities" else self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None) -> DecodeResult:
        hidden, logits = self.project(tape, x)
        probs = ad.sigmoid(logits)
        loss = None
        if target is not None:
            loss = ad.sigmoid_bce(logits, target)
        return DecodeResult(probs, hidden, loss, probs)


class NumericalRegressorDecoder(_ProjectionDecoder):

    def __init__(self, feature: str, meta, store, rng: Lcg, input_width: int, **kwargs):
        super().__init__(feature, store, rng, input_width, 1, **kwargs)

    def payload_width(self, kind: str) -> int:
        # "probabilities" degrades to the raw prediction for a regressor
        return 1 if kind == "probabilities" else self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None) -> DecodeResult:
        hidden, prediction = self.project(tape, x)
        loss = None
        if target is not None:
            loss = ad.mse(prediction, target)
        return DecodeResult(prediction, hidden, loss, None)


class SetClassifierDecoder(_ProjectionDecoder):

    def __init__(self, feature: str, meta, store, rng: Lcg, input_width: int, **kwargs):
        super().__init__(feature, store, rng, input_width, meta.vocab_size, **kwargs)

    def payload_width(self, kind: str) -> int:
        return self.out_width if kind == "probabilities" else self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None) -> DecodeResult:
        hidden, logits = self.project(tape, x)
        probs = ad.sigmoid(logits)
        loss = None
        if target is not None:
            loss = ad.sigmoid_bce(logits, target)
        return DecodeResult(probs, hidden, loss, probs)


class SequenceTaggerDecoder:
    """Per-position classification over a sequence encoder's unreduced states.

    Ignores the combined representation: its input is the [b x s x w] state
    tensor of the tagged input feature. Loss masks padded target positions.
    """

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}
    ACCEPTED = frozenset(DEFAULTS)

    def __init__(self, feature: str, meta: VocabMetadata, store, rng: Lcg,
                 input_width: int, seq_width: int | None = None, **kwargs):
        if seq_width is None:
            raise ConfigError(
                f"tagger decoder for {feature!r} requires a sequence or text input feature")
        prefix = f"decoders.{feature}"
        self.stack = FcStack(store, rng, prefix, seq_width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.proj_w = make_weight(store, rng, f"{prefix}.proj.weight",
                                  self.stack.output_width, meta.vocab_size)
        self.proj_b = make_bias(store, f"{prefix}.proj.bias", meta.vocab_size)
        self.hidden_width = self.stack.output_width
        self.out_width = meta.vocab_size

    def payload_width(self, kind: str) -> int:
        if kind == "probabilities":
            raise ConfigError("sequence origins only provide last_hidden payloads")
        return self.hidden_width

    def forward(self, tape, x, target=None, seq_states=None) -> DecodeResult:
        if seq_states is None:
            raise ContractError("tagger decoder needs the unreduced sequence states")
        b, s, w = seq_states.value.dims
        flat = ad.reshape(seq_states, (b * s, w))
        hidden = self.stack.forward(tape, flat)
        logits = ad.add(ad.matmul(hidden, tape.leaf(self.proj_w)), tape.leaf(self.proj_b))
        probs = ad.reshape(ad.softmax(logits), (b, s, self.out_width))
        loss = None
        if target is not None:
            ids = np.asarray(target).astype(np.int64)
            if ids.shape != (b, s):
                raise ShapeError(f"tagger target dims {ids.shape} != sequence dims {(b, s)}")
            flat_ids = ids.reshape(-1)
            mask = (flat_ids != PAD_ID).astype(np.float64)
            loss = ad.softmax_cross_entropy(logits, flat_ids, weights=mask)
        # per-position hidden states pooled so the payload stays rank 2
        hidden_rows = ad.reshape(hidden, (b, s, self.hidden_width))
        return DecodeResult(probs, ad.reduce("mean", hidden_rows, axis=1), loss, probs)


#: feature type -> {decoder name -> class}
DECODERS: dict[str, dict[str, type]] = {
    "category": {"classifier": CategoryClassifierDecoder},
    "binary": {"regressor": BinaryRegressorDecoder},
    "numerical": {"regressor": NumericalRegressorDecoder},
    "set": {"classifier": SetClassifierDecoder},
    "sequence": {"tagger": SequenceTaggerDecoder},
}

#: feature type -> default decoder name
DEFAULT_DECODERS = {
    "category": "classifier",
    "binary": "regressor",
    "numerical": "regressor",
    "set": "classifier",
    "sequence": "tagger",
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
