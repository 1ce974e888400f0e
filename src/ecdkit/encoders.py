"""Per-type encoders: preprocessed feature batch -> hidden representation.

Every encoder reduces its input to a rank-2 [batch x width] hidden tensor.
Sequence encoders can also return their unreduced per-position states,
which a sequence-tagging decoder consumes. The states are packed: the
states of every row's real tokens back to back in batch order, [n x width]
for a batch of n real tokens, with each row's token count in ``lengths``
(from ``decoders.token_counts``) and the padded batch's width in ``width``;
no PAD position has a state. A sequence encoder builds only the nodes its
caller reads: the states only with ``states=True``, the hidden tensor only
with ``hidden=True`` (the default). The model asks for each only when some
output reads it, so a classifier's rnn records no concat of its steps, and
a tagger's cnn no max pool.

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
from .decoders import real_positions, token_counts
from .errors import ConfigError
from .features import VectorMetadata
from .layers import FcStack, make_bias, make_weight
from .rng import Lcg


@dataclass
class EncoderOutput:
    hidden: ad.TapeNode | None          # [b x width] unless not asked for
    sequence: ad.TapeNode | None = None  # [n x seq_width] packed states when asked for
    lengths: np.ndarray | None = None    # [b] real tokens per row, summing to n
    width: int = 0                       # the padded batch's width s


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


def _embed_sequence(table: ad.TapeNode, batch: np.ndarray) -> ad.TapeNode:
    """The [b x s x size] embeddings of a padded id batch, PAD positions included."""
    b, s = batch.shape
    rows = ad.embedding_lookup(table, batch.reshape(-1).astype(np.int64))
    return ad.reshape(rows, (b, s, table.value.dims[1]))


def _real_ids(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A padded id batch's real ids back to back in batch order, and the
    number of them in each row."""
    lengths = token_counts(batch)
    return batch[real_positions(lengths, batch.shape[1])].astype(np.int64), lengths


def _max_over_rows(tape: ad.Tape, packed: ad.TapeNode, lengths: np.ndarray) -> ad.TapeNode:
    """Each row's max over its real positions, [b x width], from packed rows.

    The rows are gathered to [b x longest x width], the positions past a
    row's end repeating its first, and reduced by one max. A row with no
    tokens gathers an appended zero row, so it pools to 0.
    """
    n, width = packed.value.dims
    longest = max(int(lengths.max(initial=0)), 1)
    steps = np.arange(longest)
    ids = (np.cumsum(lengths) - lengths)[:, np.newaxis] + np.where(
        steps < lengths[:, np.newaxis], steps, 0)
    ids[lengths == 0] = n
    source = ad.concat([packed, tape.constant(np.zeros((1, width)))], axis=0)
    gathered = ad.embedding_lookup(source, ids.reshape(-1))
    return ad.reduce("max", ad.reshape(gathered, (lengths.size, longest, width)), axis=1)


class SequenceEmbedEncoder:
    """Token embeddings mean-pooled over all positions, PAD included; its
    states are the embeddings of the real tokens."""

    DEFAULTS = {"embedding_size": 32}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        size = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        self.table = _embedding(store, rng, feature, meta, size)
        self.output_width = size
        self.sequence_width = size

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        table = tape.leaf(self.table)
        pooled = ad.reduce("mean", _embed_sequence(table, batch), axis=1) if hidden else None
        if not states:
            return EncoderOutput(pooled)
        ids, lengths = _real_ids(batch)
        return EncoderOutput(pooled, ad.embedding_lookup(table, ids), lengths, batch.shape[1])


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
        # final state is each row's state at its last real token. The final
        # states, and the states at real positions of the steps stacked
        # [longest * b x state], are gathered back into batch order by
        # ``embedding_lookup``, the tape's row gather.
        b = batch.shape[0]
        lengths = token_counts(batch)
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        longest = int(sorted_lengths[0]) if b else 0
        running = np.searchsorted(-sorted_lengths, -np.arange(longest))  # rows longer than t
        embedded = _embed_sequence(tape.leaf(self.table), batch[order, :longest])
        w_in, w_rec = tape.leaf(self.w_in), tape.leaf(self.w_rec)
        bias = tape.leaf(self.bias)
        state = tape.constant(np.zeros((b, self.state_size)))
        steps = []
        for t in range(longest):
            x_t = ad.select(embedded, axis=1, index=t)
            rows = None if running[t] == b else slice(0, int(running[t]))
            state = ad.rnn_step(x_t, state, w_in, w_rec, bias, rows)
            if states:
                steps.append(state)
        restore = np.argsort(order)  # each batch row's sorted position
        sequence = None
        if states:
            rows, t = np.nonzero(real_positions(lengths, longest))
            sequence = ad.embedding_lookup(ad.concat(steps or [state], axis=0),
                                           t * b + restore[rows])
        return EncoderOutput(ad.embedding_lookup(state, restore) if hidden else None,
                             sequence, lengths, batch.shape[1])


class SequenceCnnEncoder:
    """Parallel same-padded convolutions over each row's real tokens,
    concatenated and max-pooled over each row's real positions. Only real
    ids are looked up, so the PAD row of the table is never read or trained."""

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
        ids, lengths = _real_ids(batch)
        embedded = ad.embedding_lookup(tape.leaf(self.table), ids)
        maps = ad.concat([ad.apply_unary(self.activation, ad.conv1d(
            embedded, tape.leaf(filt), tape.leaf(bias), lengths))
            for filt, bias in self.branches], axis=1)
        return EncoderOutput(_max_over_rows(tape, maps, lengths) if hidden else None,
                             maps if states else None, lengths, batch.shape[1])


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
