"""Per-type encoders: preprocessed feature batch -> hidden representation.

Every encoder reduces its input to a rank-2 [batch x width] hidden tensor.
Sequence encoders can also return their unreduced per-position states
[batch x steps x width], which a sequence-tagging decoder consumes. A
sequence encoder builds only the nodes its caller reads: the states only
with ``states=True``, the hidden tensor only with ``hidden=True`` (the
default). The model asks for each only when some output reads it, so a
classifier's rnn records no per-step reshape and no concat, its cnn no
concat of the feature maps, and a tagger's cnn no max pools and no concat of
them.

Encoders accept an open keyword map; each implementation reads the keywords
it understands and falls back to its declared defaults, so alternative
implementations stay interchangeable behind one interface. Where two
encoders differ only in defaults they share one class: ``DenseEncoder`` is
``PassthroughEncoder`` with a 32-wide fc layer, its input width the vector
length. The first name in a type's ``ENCODERS`` entry is its default encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .decoders import token_counts
from .errors import ConfigError
from .features import VectorMetadata
from .layers import FcStack, make_bias, make_weight
from .rng import Lcg


@dataclass
class EncoderOutput:
    hidden: ad.TapeNode | None          # [b x width] unless not asked for
    sequence: ad.TapeNode | None = None  # [b x s x seq_width] when asked for


class PassthroughEncoder:
    """Numerical, binary and vector inputs: identity, or an optional fc stack."""

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        width = meta.length if isinstance(meta, VectorMetadata) else 1
        self.stack = FcStack(store, rng, f"encoders.{feature}", width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.output_width = self.stack.output_width

    def forward(self, tape: ad.Tape, batch: np.ndarray) -> EncoderOutput:
        return EncoderOutput(self.stack.forward(tape, tape.constant(batch)))


class DenseEncoder(PassthroughEncoder):
    """Vector inputs through a fully connected stack."""

    DEFAULTS = {"fc_sizes": [32], "activation": "relu"}


def _embedding(store, rng: Lcg, feature: str, meta, size: int) -> ad.Parameter:
    """The [vocab x size] embedding table of ``feature``."""
    return make_weight(store, rng, f"encoders.{feature}.embedding",
                       meta.vocab_size, size, (meta.vocab_size, size))


class CategoryEmbedEncoder:
    """Category ids through an embedding table."""

    DEFAULTS = {"embedding_size": 64}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        size = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        self.table = _embedding(store, rng, feature, meta, size)
        self.output_width = size

    def forward(self, tape: ad.Tape, batch: np.ndarray) -> EncoderOutput:
        ids = batch[:, 0].astype(np.int64)
        return EncoderOutput(ad.embedding_lookup(tape.leaf(self.table), ids))


class SetEmbedSumEncoder:
    """Multi-hot set vector times an embedding table (sum of member rows)."""

    DEFAULTS = {"embedding_size": 32}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        size = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        self.table = _embedding(store, rng, feature, meta, size)
        self.output_width = size

    def forward(self, tape: ad.Tape, batch: np.ndarray) -> EncoderOutput:
        return EncoderOutput(ad.matmul(tape.constant(batch), tape.leaf(self.table)))


def _embed_sequence(tape: ad.Tape, table: ad.Parameter, batch: np.ndarray) -> ad.TapeNode:
    b, s = batch.shape
    flat = batch.reshape(-1).astype(np.int64)
    rows = ad.embedding_lookup(tape.leaf(table), flat)
    return ad.reshape(rows, (b, s, table.tensor.dims[1]))


class SequenceEmbedEncoder:
    """Token embeddings mean-pooled over positions."""

    DEFAULTS = {"embedding_size": 32}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        size = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        self.table = _embedding(store, rng, feature, meta, size)
        self.output_width = size
        self.sequence_width = size

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        embedded = _embed_sequence(tape, self.table, batch)
        return EncoderOutput(ad.reduce("mean", embedded, axis=1) if hidden else None,
                             sequence=embedded if states else None)


class SequenceRnnEncoder:
    """Vanilla tanh recurrence over token embeddings; hidden = each row's
    state at its last real token.

    The recurrent weights start as the identity (Le et al., arXiv 1504.00941),
    so a token's input reaches the last state undamped and unrotated and the
    gradient to it is the same however far back the token lies. With a
    Glorot draw each distance had its own random rotation, and how soon a
    short run learned to carry a token to the end varied from seed to seed.
    """

    DEFAULTS = {"embedding_size": 32, "state_size": 32}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        emb = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        state = kwargs.get("state_size", self.DEFAULTS["state_size"])
        prefix = f"encoders.{feature}"
        self.table = _embedding(store, rng, feature, meta, emb)
        self.w_in = make_weight(store, rng, f"{prefix}.rnn.w_in", emb, state)
        self.w_rec = store.create(f"{prefix}.rnn.w_rec", np.eye(state))
        self.bias = make_bias(store, f"{prefix}.rnn.bias", state)
        self.state_size = state
        self.output_width = state
        self.sequence_width = state

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        # Rows are stepped longest first, so the rows still running are a
        # prefix and each step updates a slice of views; steps stop at the
        # longest row. A row that has ended carries its state forward, so the
        # final state is each row's state at its last real token, and the
        # states past the longest row repeat it. The outputs are gathered
        # back into batch order by ``embedding_lookup``, the tape's row gather.
        b, s = batch.shape
        lengths = token_counts(batch)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        longest = int(lengths[0]) if b else 0
        running = np.searchsorted(-lengths, -np.arange(longest))  # rows longer than t
        embedded = _embed_sequence(tape, self.table, batch[order, :longest])
        w_in, w_rec = tape.leaf(self.w_in), tape.leaf(self.w_rec)
        bias = tape.leaf(self.bias)
        state = tape.constant(np.zeros((b, self.state_size)))
        steps = []
        for t in range(longest):
            x_t = ad.select(embedded, axis=1, index=t)
            rows = None if running[t] == b else slice(0, int(running[t]))
            state = ad.rnn_step(x_t, state, w_in, w_rec, bias, rows)
            if states:
                steps.append(ad.reshape(state, (b, 1, self.state_size)))
        restore = np.argsort(order)  # each batch row's sorted position
        sequence = None
        if states:
            last = steps[-1] if steps else ad.reshape(state, (b, 1, self.state_size))
            flat = ad.reshape(ad.concat(steps + [last] * (s - longest), axis=1),
                              (b, s * self.state_size))
            sequence = ad.reshape(ad.embedding_lookup(flat, restore), (b, s, self.state_size))
        return EncoderOutput(ad.embedding_lookup(state, restore) if hidden else None,
                             sequence=sequence)


class SequenceCnnEncoder:
    """Parallel same-padded convolutions max-pooled over time, concatenated."""

    DEFAULTS = {"embedding_size": 32, "num_filters": 32,
                "filter_widths": [3, 5, 7], "activation": "relu"}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        emb = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        filters = kwargs.get("num_filters", self.DEFAULTS["num_filters"])
        widths = list(kwargs.get("filter_widths", self.DEFAULTS["filter_widths"]))
        self.activation = kwargs.get("activation", self.DEFAULTS["activation"])
        if not widths:
            raise ConfigError("cnn encoder needs at least one filter width")
        for w in widths:
            if not isinstance(w, int) or w <= 0 or w % 2 == 0:
                raise ConfigError(f"cnn filter widths must be odd positive integers, got {widths}")
        prefix = f"encoders.{feature}"
        self.table = _embedding(store, rng, feature, meta, emb)
        self.branches = []
        for w in widths:
            filt = make_weight(store, rng, f"{prefix}.conv{w}.filters",
                               w * emb, filters, (w, emb, filters))
            bias = make_bias(store, f"{prefix}.conv{w}.bias", filters)
            self.branches.append((filt, bias))
        self.output_width = filters * len(widths)
        self.sequence_width = self.output_width

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        embedded = _embed_sequence(tape, self.table, batch)
        maps = [ad.apply_unary(self.activation,
                               ad.conv1d(embedded, tape.leaf(filt), tape.leaf(bias)))
                for filt, bias in self.branches]
        pooled = ad.concat([ad.reduce("max", m, axis=1) for m in maps], axis=1) if hidden else None
        return EncoderOutput(pooled, sequence=ad.concat(maps, axis=2) if states else None)


#: feature type -> {encoder name -> class}
ENCODERS: dict[str, dict[str, type]] = {
    "numerical": {"passthrough": PassthroughEncoder},
    "binary": {"passthrough": PassthroughEncoder},
    "category": {"embed": CategoryEmbedEncoder},
    "set": {"embed_sum": SetEmbedSumEncoder},
    "vector": {"dense": DenseEncoder},
    "sequence": {"embed": SequenceEmbedEncoder, "rnn": SequenceRnnEncoder,
                 "cnn": SequenceCnnEncoder},
    "text": {"embed": SequenceEmbedEncoder, "rnn": SequenceRnnEncoder,
             "cnn": SequenceCnnEncoder},
}
