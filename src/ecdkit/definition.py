"""Dataclasses for the five-section declarative model definition.

A definition exists in two states: as parsed (user-provided values only,
everything else ``None`` or empty) and as resolved (every default filled in).
``to_dict`` emits each field that differs from its parsed-state default, in
declaration order, so ``config.definition_from_dict`` reads either state
back to an equal definition. A model directory stores the resolved state's
dict as JSON.

A key of a fixed section, and a feature's own key, is declared once, as a
dataclass field whose metadata holds its ``bound`` (a predicate on a set
value) and the ``message`` that ``config.validate`` reports when the bound
fails, with ``{value}`` standing for the value.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any

PAYLOAD_KINDS = ("last_hidden", "probabilities")

#: each optimizer and its default learning rate
OPTIMIZERS = {"sgd": 1e-2, "adam": 1e-3}


def positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def positive_ints(value) -> bool:
    return isinstance(value, list) and all(positive_int(v) for v in value)


def choice(name: str, options) -> dict:
    """The bound and message of a key whose value is one of ``options``."""
    options = tuple(options)  # a tuple takes an unhashable value too
    return {"bound": lambda value: value in options,
            "message": f"unknown {name} {{value!r}}; available: {', '.join(options)}"}


def number(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def feature_key(accepts, parse: str, default=None, bound=None, message: str = "",
                component: str | None = None) -> dict:
    """A feature's own key: ``accepts`` a document's value (null leaves it
    unset, and a number is stored as a finite float), else ``parse`` is the
    schema error; its ``default``, or the first name registered for the
    feature's type in the run's ``component`` registry, fills it in."""
    return {"accepts": accepts, "parse": parse, "default": default, "bound": bound,
            "message": message, "component": component}


def declare(kind: type, default=None, bound=None, message: str = "") -> Any:
    """A training key: the ``kind`` a document gives it, the ``default``
    ``config.resolve_defaults`` fills in, and its bound. ``float`` reads any
    number, and ``list`` a list of numbers; both are stored as floats."""
    return field(default=None, metadata={"kind": kind, "default": default,
                                         "bound": bound, "message": message})


class _Section:

    def to_dict(self) -> dict:
        """Each field that is not at its default; ``params`` spread inline."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value == (f.default if f.default_factory is MISSING else f.default_factory()):
                continue
            if f.name == "params":
                out.update(value)
            else:
                out[f.name] = _plain(value)
        return out


def _plain(value):
    if isinstance(value, _Section):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass
class EncoderSpec(_Section):
    """One input feature: its column name, type, encoder, and knobs."""

    name: str
    type: str
    encoder: str | None = field(default=None, metadata=feature_key(
        lambda v: isinstance(v, str), "encoder must be a string", component="encoders"))
    params: dict[str, Any] = field(default_factory=dict)
    preprocessing: dict[str, Any] = field(default_factory=dict)


@dataclass
class DecoderSpec(_Section):
    """One output feature: decoder, loss weight, and output-dependency wiring;
    its loss is its type's."""

    name: str
    type: str
    decoder: str | None = field(default=None, metadata=feature_key(
        lambda v: isinstance(v, str), "decoder must be a string", component="decoders"))
    loss_weight: float | None = field(default=None, metadata=feature_key(
        number, "loss_weight must be a number", 1.0, lambda v: v > 0,
        "loss_weight must be positive, got {value}"))
    dependencies: list[str] = field(default_factory=list, metadata=feature_key(
        lambda v: isinstance(v, list) and all(isinstance(d, str) for d in v),
        "dependencies must be a list of feature names"))
    dependency_payload: str | None = field(default=None, metadata=feature_key(
        lambda v: v in PAYLOAD_KINDS,
        f"dependency_payload must be one of {', '.join(PAYLOAD_KINDS)}"))
    params: dict[str, Any] = field(default_factory=dict)
    preprocessing: dict[str, Any] = field(default_factory=dict)


@dataclass
class CombinerSpec(_Section):
    name: str | None = None
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class TrainingParams(_Section):
    """The training section. ``learning_rate`` defaults by optimizer, and
    ``validation_feature`` to the first output; ``split`` is set only
    without a ``split_column``."""

    epochs: int | None = declare(int, 100, lambda v: v >= 0, "epochs must be >= 0")
    batch_size: int | None = declare(int, 128, lambda v: v >= 1, "batch_size must be >= 1")
    optimizer: str | None = declare(str, "adam", **choice("optimizer", OPTIMIZERS))
    learning_rate: float | None = declare(float, None, lambda v: v > 0,
                                          "learning_rate must be positive")
    beta1: float | None = declare(float, 0.9, lambda v: 0 <= v < 1, "beta1 must lie in [0, 1)")
    beta2: float | None = declare(float, 0.999, lambda v: 0 <= v < 1, "beta2 must lie in [0, 1)")
    epsilon: float | None = declare(float, 1e-8, lambda v: v > 0, "epsilon must be positive")
    decay: float | None = declare(float, 1.0, lambda v: 0 < v <= 1, "decay must lie in (0, 1]")
    patience: int | None = declare(int, 5, lambda v: v >= 0,
                                   "patience must be >= 0 (0 disables early stopping)")
    seed: int | None = declare(int, 42)
    split: list[float] | None = declare(list, [0.7, 0.1, 0.2])
    split_column: str | None = declare(str)
    validation_feature: str | None = declare(str)
    validation_metric: str | None = declare(str, "loss")


@dataclass
class ModelDefinition(_Section):
    input_features: list[EncoderSpec]
    combiner: CombinerSpec = field(default_factory=CombinerSpec)
    output_features: list[DecoderSpec] = field(default_factory=list)
    preprocessing: dict[str, dict[str, Any]] = field(default_factory=dict)
    training: TrainingParams = field(default_factory=TrainingParams)

    def output_by_name(self, name: str) -> DecoderSpec:
        for spec in self.output_features:
            if spec.name == name:
                return spec
        raise KeyError(name)
