"""Model assembly and execution: encoders -> combiner -> decoders.

Builds a model instance from a resolved definition plus feature metadata:
one encoder per input feature, one combiner, and one decoder per output
feature, wired in a topological order of the declared output dependencies.
Training minimizes the weighted sum of the per-output losses, and dependency
payloads are routed as probabilities (never hard argmax) so the whole graph
stays differentiable end to end.

The model decides once, when it is built, which nodes some output reads, and
its forward pass builds only those. A tagger reads the per-position states
of its input sequence, not the combined representation: when every output is
a tagger, no other encoder, no pooling and no combiner runs, and their
parameters get zero gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoders import DEFAULT_PAYLOADS
from .definition import DecoderSpec, ModelDefinition
from .errors import ConfigError, ContractError, ShapeError
from .layers import FcStack
from .registry import Registries
from .rng import SALT_INIT, Lcg, mix_seed
from .tensor import Tensor


class ConcatCombiner:
    """Concatenate encoder outputs side by side, then an optional fc stack."""

    DEFAULTS = {"fc_sizes": [], "activation": "relu"}

    def __init__(self, store, rng: Lcg, input_width: int, **kwargs):
        self.stack = FcStack(store, rng, "combiner", input_width,
                             kwargs.get("fc_sizes", self.DEFAULTS["fc_sizes"]),
                             kwargs.get("activation", self.DEFAULTS["activation"]))
        self.output_width = self.stack.output_width

    def forward(self, tape: ad.Tape, hiddens: list[ad.TapeNode]) -> ad.TapeNode:
        batches = {h.value.dims[0] for h in hiddens}
        if len(batches) > 1:
            raise ShapeError(f"combiner inputs disagree on batch extent: {sorted(batches)}")
        merged = hiddens[0] if len(hiddens) == 1 else ad.concat(hiddens, axis=1)
        return self.stack.forward(tape, merged)


def build_dependency_order(decoders: list[DecoderSpec]) -> list[str]:
    """Topological order of output features under their declared dependencies.

    Among simultaneously ready features, declaration order wins, so the
    result is deterministic. Unknown dependency names and cycles are
    configuration errors; the cycle error names the features involved.
    """
    names = [spec.name for spec in decoders]
    known = set(names)
    deps: dict[str, list[str]] = {}
    for spec in decoders:
        for dep in spec.dependencies:
            if dep not in known:
                raise ConfigError(f"output feature {spec.name!r} depends on unknown feature {dep!r}")
            if dep == spec.name:
                raise ConfigError(f"output feature {spec.name!r} depends on itself")
        deps[spec.name] = list(spec.dependencies)

    order: list[str] = []
    placed: set[str] = set()
    remaining = list(names)
    while remaining:
        ready = [n for n in remaining if all(d in placed for d in deps[n])]
        if not ready:
            cycle = _find_cycle(remaining, deps)
            raise ConfigError(f"output dependencies form a cycle: {' -> '.join(cycle)}")
        chosen = ready[0]
        order.append(chosen)
        placed.add(chosen)
        remaining.remove(chosen)
    return order


def _find_cycle(nodes: list[str], deps: dict[str, list[str]]) -> list[str]:
    pending = set(nodes)
    seen: list[str] = []
    node = nodes[0]
    while node not in seen:
        seen.append(node)
        node = next(d for d in deps[node] if d in pending)
    start = seen.index(node)
    return seen[start:] + [node]


def combined_loss(losses: dict[str, ad.TapeNode], weights: dict[str, float]) -> ad.TapeNode:
    """Weighted sum of per-output scalar losses."""
    if set(losses) != set(weights):
        raise ContractError(
            f"loss/weight key mismatch: {sorted(losses)} vs {sorted(weights)}")
    total = None
    for name, loss in losses.items():
        # a unit weight needs no node: the loss times 1.0 has the loss's bits
        term = loss if weights[name] == 1.0 else ad.scale(loss, weights[name])
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ContractError("combined loss needs at least one output feature")
    return total


@dataclass
class ForwardResult:
    """One forward pass. ``loss_rows`` holds each output's loss terms and
    weights (see ``TapeNode.rows``); ``combined`` is None without targets
    or gradients."""

    tape: ad.Tape
    predictions: dict[str, Tensor]
    combined: ad.TapeNode | None = None
    loss_rows: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def combined_loss(self) -> float:
        return self.combined.value.item() if self.combined is not None else float("nan")


class _NoDraws(Lcg):
    """An init stream that draws nothing: every weight starts as zeros."""

    def uniform_array(self, shape: tuple[int, ...], lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.zeros(shape)


class ECDModel:
    """A built encoder-combiner-decoder instance with its parameter store.

    With ``initialize=False`` every weight starts as zeros and no value is
    drawn: for a model whose values are restored right after it is built.
    """

    def __init__(self, definition: ModelDefinition, metadata: dict, registries: Registries,
                 seed: int, initialize: bool = True):
        self.definition = definition
        self.metadata = metadata
        self.seed = seed
        self.store = ad.ParameterStore()
        rng = Lcg(mix_seed(seed, SALT_INIT)) if initialize else _NoDraws(0)

        self.encoders: dict[str, object] = {}
        self.sequence_feature: str | None = None
        for spec in definition.input_features:
            cls = registries.encoders.lookup(spec.encoder, scope=spec.type)
            self.encoders[spec.name] = cls(spec.name, metadata[spec.name],
                                           self.store, rng, **spec.params)
            if spec.type in ("sequence", "text") and self.sequence_feature is None:
                self.sequence_feature = spec.name

        total_width = sum(enc.output_width for enc in self.encoders.values())
        combiner_cls = registries.combiners.lookup(definition.combiner.name)
        self.combiner = combiner_cls(self.store, rng, total_width, **definition.combiner.params)

        seq_width = None
        if self.sequence_feature is not None:
            seq_width = self.encoders[self.sequence_feature].sequence_width
        # a tagger reads the per-position states, every other decoder the
        # combined representation and its dependencies' payloads
        taggers = {spec.name for spec in definition.output_features if spec.type == "sequence"}
        self.states_feature = self.sequence_feature if taggers else None
        self.decoder_order = build_dependency_order(definition.output_features)
        spec_by_name = {spec.name: spec for spec in definition.output_features}
        type_by_name = {spec.name: spec.type for spec in definition.output_features}
        self.decoders: dict[str, object] = {}
        self.payload_kinds: dict[str, dict[str, str]] = {}
        for name in self.decoder_order:
            spec = spec_by_name[name]
            kinds = {}
            width = self.combiner.output_width
            for dep in spec.dependencies:
                kind = spec.dependency_payload or DEFAULT_PAYLOADS[type_by_name[dep]]
                kinds[dep] = kind
                width += self.decoders[dep].payload_width(kind)
            self.payload_kinds[name] = kinds
            cls = registries.decoders.lookup(spec.decoder, scope=spec.type)
            self.decoders[name] = cls(name, metadata[name], self.store, rng, width,
                                      seq_width=seq_width, **spec.params)
        self.input_readers = [name for name in self.decoder_order if name not in taggers]
        self.hidden_read = {dep for name in self.input_readers
                            for dep, kind in self.payload_kinds[name].items()
                            if kind == "last_hidden"}

        self.loss_weights = {spec.name: float(spec.loss_weight) for spec in definition.output_features}

    def forward(self, batch: dict[str, np.ndarray],
                targets: dict[str, np.ndarray] | None = None,
                grad: bool = True) -> ForwardResult:
        """Run encode -> combine -> decode over one preprocessed batch.

        ``targets`` must hold every output feature when losses are wanted.
        With ``grad=False`` the pass runs on a tape that records no
        gradients and builds no combined loss: for evaluation and prediction.
        The result is deterministic given the model state and the batch.
        """
        tape = ad.Tape(grad=grad)
        hiddens = []
        seq_states = None
        combined_read = bool(self.input_readers)
        for spec in self.definition.input_features:
            if spec.name not in batch:
                raise ContractError(f"batch is missing input feature {spec.name!r}")
            encoder, values = self.encoders[spec.name], np.asarray(batch[spec.name])
            if spec.name == self.states_feature:
                out = encoder.forward(tape, values, states=True, hidden=combined_read)
                seq_states = out
            elif combined_read:
                out = encoder.forward(tape, values)
            else:
                continue
            hiddens.append(out.hidden)
        combined = self.combiner.forward(tape, hiddens) if combined_read else None

        if targets is not None:
            for spec in self.definition.output_features:
                if spec.name not in targets:
                    raise ContractError(f"targets missing output feature {spec.name!r}")

        results: dict[str, object] = {}
        loss_nodes: dict[str, ad.TapeNode] = {}
        for name in self.decoder_order:
            x = None
            if name in self.input_readers:
                # a regressor's output, the "probabilities" payload, is its prediction
                payloads = [results[dep].output if kind == "probabilities"
                            else results[dep].last_hidden
                            for dep, kind in self.payload_kinds[name].items()]
                x = combined if not payloads else ad.concat([combined] + payloads, axis=1)
            target = targets.get(name) if targets is not None else None
            result = self.decoders[name].forward(tape, x, target=target, seq_states=seq_states,
                                                 last_hidden=name in self.hidden_read)
            results[name] = result
            if result.loss is not None:
                loss_nodes[name] = result.loss

        combined_node = None
        if targets is not None and grad:
            combined_node = combined_loss(loss_nodes, self.loss_weights)
        return ForwardResult(
            tape=tape,
            predictions={n: results[n].predictions for n in self.decoder_order},
            combined=combined_node,
            loss_rows={n: loss_nodes[n].rows for n in loss_nodes},
        )

    def backward(self, result: ForwardResult) -> dict[str, Tensor]:
        if result.combined is None:
            raise ContractError("forward pass was run without targets or gradients; "
                                "no loss to differentiate")
        grads = result.tape.backward(result.combined)
        # a parameter no output reads has no leaf on the tape
        for param in self.store:
            if param.name not in grads:
                grads[param.name] = Tensor.wrap(np.zeros(param.tensor.dims))
        return grads
