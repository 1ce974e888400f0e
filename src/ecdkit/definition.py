"""Dataclasses for the five-section declarative model definition.

A definition exists in two states: as parsed (user-provided values only,
everything else ``None`` or empty) and as resolved (every default filled in).
``to_dict`` emits only what is set, so ``config.definition_from_dict`` reads
either state back to an equal definition. A model directory stores the
resolved state's dict as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PAYLOAD_KINDS = ("last_hidden", "probabilities")


@dataclass
class EncoderSpec:
    """One input feature: its column name, type, encoder, and knobs."""

    name: str
    type: str
    encoder: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    preprocessing: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "type": self.type}
        if self.encoder is not None:
            out["encoder"] = self.encoder
        out.update(self.params)
        if self.preprocessing:
            out["preprocessing"] = dict(self.preprocessing)
        return out


@dataclass
class DecoderSpec:
    """One output feature: decoder, loss, and output-dependency wiring."""

    name: str
    type: str
    decoder: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    loss: str | None = None
    loss_weight: float | None = None
    dependencies: list[str] = field(default_factory=list)
    dependency_payload: str | None = None
    preprocessing: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "type": self.type}
        if self.decoder is not None:
            out["decoder"] = self.decoder
        if self.loss is not None:
            out["loss"] = self.loss
        if self.loss_weight is not None:
            out["loss_weight"] = self.loss_weight
        if self.dependencies:
            out["dependencies"] = list(self.dependencies)
        if self.dependency_payload is not None:
            out["dependency_payload"] = self.dependency_payload
        out.update(self.params)
        if self.preprocessing:
            out["preprocessing"] = dict(self.preprocessing)
        return out


@dataclass
class CombinerSpec:
    name: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        if self.name is not None:
            out["name"] = self.name
        out.update(self.params)
        return out


@dataclass
class TrainingParams:
    epochs: int | None = None
    batch_size: int | None = None
    optimizer: str | None = None
    learning_rate: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    epsilon: float | None = None
    decay: float | None = None
    patience: int | None = None
    seed: int | None = None
    split: list[float] | None = None
    split_column: str | None = None
    validation_feature: str | None = None
    validation_metric: str | None = None

    FIELDS = ("epochs", "batch_size", "optimizer", "learning_rate", "beta1", "beta2",
              "epsilon", "decay", "patience", "seed", "split", "split_column",
              "validation_feature", "validation_metric")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, list) else value
        return out


@dataclass
class ModelDefinition:
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

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "input_features": [f.to_dict() for f in self.input_features],
        }
        combiner = self.combiner.to_dict()
        if combiner:
            out["combiner"] = combiner
        out["output_features"] = [f.to_dict() for f in self.output_features]
        if self.preprocessing:
            out["preprocessing"] = {k: dict(v) for k, v in self.preprocessing.items()}
        training = self.training.to_dict()
        if training:
            out["training"] = training
        return out
