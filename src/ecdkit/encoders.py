"""Per-type encoders: preprocessed feature batch -> hidden representation.

Every encoder reduces its input to a rank-2 [batch x width] hidden tensor.
Sequence encoders can also return their unreduced per-position states,
which a sequence-tagging decoder consumes. The states are packed: the
states of every row's real tokens back to back in batch order, [n x width]
for a batch of n real tokens, with each row's token count in ``lengths``
(from ``decoders.token_counts``) and the padded batch's width in ``width``;
no PAD position has a state. All three sequence encoders embed a row's
real ids alone (``_real_ids``), so no PAD position is embedded and the PAD
row of a table is never read. A sequence encoder builds only the nodes its
caller reads: the states only with ``states=True``, the hidden tensor only
with ``hidden=True`` (the default). The model asks for each only when some
output reads it, so a classifier's rnn records no gather of its steps'
states, and a tagger's cnn no max pool: only its embedding lookup, one
``conv1d`` over every filter bank and one activation.

Encoders accept an open keyword map; each implementation reads the keywords
it understands and falls back to its declared defaults, so alternative
implementations stay interchangeable behind one interface. Where two
encoders differ only in defaults they share one class: ``DenseEncoder`` is
``PassthroughEncoder`` with a 32-wide fc layer, its input width the vector
length. A type's ``ENCODERS`` entry registers its default encoder first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .decoders import mean_over_rows, real_positions, token_counts
from .errors import ConfigError
from .features import NumericalMetadata, VectorMetadata
from .layers import FcStack, make_bias, make_weight
from .rng import Lcg


@dataclass
class EncoderOutput:
    hidden: ad.TapeNode | None          # [b x width] unless not asked for
    sequence: ad.TapeNode | None = None  # [n x seq_width] packed states when asked for
    lengths: np.ndarray | None = None    # [b] real tokens per row, summing to n
    width: int = 0                       # the padded batch's width s


class PassthroughEncoder:
    """Numerical, binary and vector inputs: identity, or an optional fc stack.
    A numerical batch holds raw values, which it normalizes first."""

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        width = meta.length if isinstance(meta, VectorMetadata) else 1
        self.stack = FcStack(store, rng, f"encoders.{feature}", width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.output_width = self.stack.output_width
        self.normalize = meta.normalize if isinstance(meta, NumericalMetadata) else None

    def forward(self, tape: ad.Tape, batch: np.ndarray) -> EncoderOutput:
        if self.normalize is not None:
            batch = self.normalize(batch)
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
    """The embeddings of each row's real ids, mean-pooled (0 for a row with
    none) and as its states; the PAD row of the table is never read."""

    DEFAULTS = {"embedding_size": 32}

    def __init__(self, feature: str, meta, store, rng: Lcg, **kwargs):
        size = kwargs.get("embedding_size", self.DEFAULTS["embedding_size"])
        self.table = _embedding(store, rng, feature, meta, size)
        self.output_width = size
        self.sequence_width = size

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        ids, lengths = _real_ids(batch)
        embedded = ad.embedding_lookup(tape.leaf(self.table), ids)
        return EncoderOutput(mean_over_rows(tape, embedded, lengths) if hidden else None,
                             embedded if states else None, lengths, batch.shape[1])


class SequenceRnnEncoder:
    """Vanilla tanh recurrence over the embeddings of each row's real
    tokens, as one ``ad.rnn`` node per batch; hidden = each row's state at
    its last real token.

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
        self.output_width = state
        self.sequence_width = state

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        # ``ad.rnn`` takes the rows longest first; its last step holds each
        # row's state at its last real token. That step, and the states at
        # real positions of all steps flattened [s * b x state], are gathered
        # back into batch order by ``embedding_lookup``, the tape's row gather.
        lengths = token_counts(batch)
        order = np.argsort(-lengths, kind="stable")
        ids, sorted_lengths = _real_ids(batch[order])
        out = ad.rnn(ad.embedding_lookup(tape.leaf(self.table), ids), tape.leaf(self.w_in),
                     tape.leaf(self.w_rec), tape.leaf(self.bias), sorted_lengths)
        s, b, width = out.value.dims
        restore = np.empty_like(order)  # each batch row's sorted position
        restore[order] = np.arange(b)
        sequence = None
        if states:
            rows, t = np.nonzero(real_positions(lengths, s))
            sequence = ad.embedding_lookup(ad.reshape(out, (s * b, width)),
                                           t * b + restore[rows])
        final = ad.embedding_lookup(ad.select(out, 0, s - 1), restore) if hidden else None
        return EncoderOutput(final, sequence, lengths, batch.shape[1])


class SequenceCnnEncoder:
    """Parallel same-padded convolutions over each row's real tokens, one
    bank per filter width, whose maps ``ad.conv1d`` computes side by side in
    one node; one activation follows, then the max over each row's real
    positions. Only real ids are looked up, so the PAD row of the table is
    never read or trained."""

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
        self.banks = [(make_weight(store, rng, f"{prefix}.conv{w}.filters",
                                   w * emb, filters, (w, emb, filters)),
                       make_bias(store, f"{prefix}.conv{w}.bias", filters)) for w in widths]
        self.output_width = filters * len(widths)
        self.sequence_width = self.output_width

    def forward(self, tape: ad.Tape, batch: np.ndarray, states: bool = False,
                hidden: bool = True) -> EncoderOutput:
        ids, lengths = _real_ids(batch)
        embedded = ad.embedding_lookup(tape.leaf(self.table), ids)
        maps = ad.apply_unary(self.activation, ad.conv1d(
            embedded, [(tape.leaf(filt), tape.leaf(bias)) for filt, bias in self.banks], lengths))
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
