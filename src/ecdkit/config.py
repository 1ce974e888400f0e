"""Parsing, default resolution, and validation of model definitions.

The definition document has exactly five top-level sections —
``input_features``, ``combiner``, ``output_features``, ``preprocessing``,
and ``training`` — of which only the two feature lists are mandatory. The
schema is strict: unknown structural keys are rejected at parse time, while
component hyperparameters (an open keyword set) are checked against the
named component's accepted keywords during validation, so typos surface
either way.

``validate`` never throws mid-run; it returns an ordered list of diagnostics
so a single invocation reports every problem in the file.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from . import yamlish
from .decoders import DEFAULT_DECODERS, DEFAULT_LOSSES
from .definition import (
    PAYLOAD_KINDS,
    CombinerSpec,
    DecoderSpec,
    EncoderSpec,
    ModelDefinition,
    TrainingParams,
)
from .encoders import DEFAULT_ENCODERS
from .errors import ConfigError, SchemaError
from .features import (
    MISSING_STRATEGIES,
    NORMALIZATIONS,
    OUTPUT_TYPES,
    SUPPORTED_TYPES,
    TOKENIZERS,
    TYPE_PREPROC_DEFAULTS,
    TYPE_PREPROC_KEYS,
)
from .graph import build_dependency_order
from .optim import ADAM_DEFAULT_BETA1, ADAM_DEFAULT_BETA2, ADAM_DEFAULT_EPSILON, ADAM_DEFAULT_LR, SGD_DEFAULT_LR
from .registry import Registries

TOP_LEVEL_KEYS = ("input_features", "combiner", "output_features", "preprocessing", "training")
_INPUT_RESERVED = frozenset({"name", "type", "encoder", "preprocessing"})
_OUTPUT_RESERVED = frozenset({"name", "type", "decoder", "loss", "loss_weight",
                              "dependencies", "dependency_payload", "preprocessing"})

TRAINING_DEFAULTS = {
    "epochs": 100,
    "batch_size": 128,
    "optimizer": "adam",
    "decay": 1.0,
    "patience": 5,
    "seed": 42,
    "split": [0.7, 0.1, 0.2],
}


@dataclass
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def parse_model_definition(text: str) -> ModelDefinition:
    doc = yamlish.loads(text)
    if not isinstance(doc, dict):
        raise SchemaError("model definition must be a mapping at the top level")
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise SchemaError(f"unknown key {key!r} at top level; "
                              f"expected one of {', '.join(TOP_LEVEL_KEYS)}")
    inputs = _parse_features(doc.get("input_features"), "input_features", is_output=False)
    outputs = _parse_features(doc.get("output_features"), "output_features", is_output=True)
    combiner = _parse_combiner(doc.get("combiner"))
    preprocessing = _parse_preprocessing_section(doc.get("preprocessing"))
    training = _parse_training(doc.get("training"))
    return ModelDefinition(input_features=inputs, combiner=combiner, output_features=outputs,
                           preprocessing=preprocessing, training=training)


def _parse_features(section, path: str, is_output: bool):
    if section is None:
        raise SchemaError(f"missing required section {path!r}")
    if not isinstance(section, list) or not section:
        raise SchemaError(f"{path} must be a non-empty list of feature definitions")
    reserved = _OUTPUT_RESERVED if is_output else _INPUT_RESERVED
    features = []
    for i, entry in enumerate(section):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: each feature must be a mapping")
        name = entry.get("name")
        ftype = entry.get("type")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}: feature requires a non-empty 'name'")
        if not isinstance(ftype, str):
            raise SchemaError(f"{where} ({name}): feature requires a 'type'")
        if ftype not in SUPPORTED_TYPES:
            raise SchemaError(f"{where} ({name}): unknown type {ftype!r}; "
                              f"supported: {', '.join(SUPPORTED_TYPES)}")
        if is_output and ftype not in OUTPUT_TYPES:
            raise SchemaError(f"{where} ({name}): type {ftype!r} cannot be an output feature")
        preprocessing = _parse_feature_preprocessing(entry.get("preprocessing"), ftype, f"{where}.preprocessing")
        params = {k: v for k, v in entry.items() if k not in reserved}
        if is_output:
            deps = entry.get("dependencies", [])
            if deps is None:
                deps = []
            if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
                raise SchemaError(f"{where} ({name}): dependencies must be a list of feature names")
            payload = entry.get("dependency_payload")
            if payload is not None and payload not in PAYLOAD_KINDS:
                raise SchemaError(f"{where} ({name}): dependency_payload must be one of "
                                  f"{', '.join(PAYLOAD_KINDS)}")
            loss = entry.get("loss")
            if loss is not None and not isinstance(loss, str):
                raise SchemaError(f"{where} ({name}): loss must be a string")
            weight = entry.get("loss_weight")
            if weight is not None and not isinstance(weight, (int, float)):
                raise SchemaError(f"{where} ({name}): loss_weight must be a number")
            decoder = entry.get("decoder")
            if decoder is not None and not isinstance(decoder, str):
                raise SchemaError(f"{where} ({name}): decoder must be a string")
            features.append(DecoderSpec(name=name, type=ftype, decoder=decoder, params=params,
                                        loss=loss,
                                        loss_weight=float(weight) if weight is not None else None,
                                        dependencies=list(deps), dependency_payload=payload,
                                        preprocessing=preprocessing))
        else:
            encoder = entry.get("encoder")
            if encoder is not None and not isinstance(encoder, str):
                raise SchemaError(f"{where} ({name}): encoder must be a string")
            features.append(EncoderSpec(name=name, type=ftype, encoder=encoder, params=params,
                                        preprocessing=preprocessing))
    return features


def _parse_feature_preprocessing(section, ftype: str, path: str) -> dict:
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise SchemaError(f"{path}: preprocessing must be a mapping")
    allowed = TYPE_PREPROC_KEYS[ftype]
    for key in section:
        if key not in allowed:
            raise SchemaError(f"{path}: unknown preprocessing key {key!r} for type {ftype!r}; "
                              f"allowed: {', '.join(sorted(allowed))}")
    return dict(section)


def _parse_combiner(section) -> CombinerSpec:
    if section is None:
        return CombinerSpec()
    if not isinstance(section, dict):
        raise SchemaError("combiner section must be a mapping")
    name = section.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("combiner.name must be a string")
    params = {k: v for k, v in section.items() if k != "name"}
    return CombinerSpec(name=name, params=params)


def _parse_preprocessing_section(section) -> dict:
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise SchemaError("preprocessing section must be a mapping")
    out = {}
    for ftype, params in section.items():
        if ftype not in SUPPORTED_TYPES:
            raise SchemaError(f"preprocessing: unknown feature type {ftype!r}")
        out[ftype] = _parse_feature_preprocessing(params, ftype, f"preprocessing.{ftype}")
    return out


_TRAINING_TYPES = {
    "epochs": int, "batch_size": int, "optimizer": str, "learning_rate": (int, float),
    "beta1": (int, float), "beta2": (int, float), "epsilon": (int, float),
    "decay": (int, float), "patience": int, "seed": int, "split": list,
    "split_column": str, "validation_feature": str, "validation_metric": str,
}


def _parse_training(section) -> TrainingParams:
    if section is None:
        return TrainingParams()
    if not isinstance(section, dict):
        raise SchemaError("training section must be a mapping")
    kwargs = {}
    for key, value in section.items():
        if key not in TrainingParams.FIELDS:
            raise SchemaError(f"training: unknown key {key!r}; "
                              f"expected one of {', '.join(TrainingParams.FIELDS)}")
        expected = _TRAINING_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise SchemaError(f"training.{key}: expected "
                              f"{expected.__name__ if isinstance(expected, type) else 'a number'},"
                              f" got {value!r}")
        if key == "split":
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                raise SchemaError("training.split: fractions must be numbers")
            value = [float(v) for v in value]
        if key in ("learning_rate", "beta1", "beta2", "epsilon", "decay"):
            value = float(value)
        kwargs[key] = value
    return TrainingParams(**kwargs)


def serialize_model_definition(definition: ModelDefinition) -> str:
    return yamlish.dumps(definition.to_dict())


# ---------------------------------------------------------------------------
# defaults resolution
# ---------------------------------------------------------------------------

def resolve_defaults(definition: ModelDefinition, registries: Registries) -> ModelDefinition:
    """Fill every absent value from component default tables.

    Pure completion: user-provided values always survive verbatim, unknown
    component names are left for ``validate`` to report, and resolving an
    already-resolved definition is the identity.
    """
    out = copy.deepcopy(definition)
    for spec in out.input_features:
        if spec.encoder is None:
            spec.encoder = DEFAULT_ENCODERS[spec.type]
        if registries.encoders.has(spec.encoder, scope=spec.type):
            cls = registries.encoders.lookup(spec.encoder, scope=spec.type)
            spec.params = _merge_params(getattr(cls, "DEFAULTS", {}), spec.params)
        spec.preprocessing = _merge_params(
            _merge_params(TYPE_PREPROC_DEFAULTS[spec.type],
                          out.preprocessing.get(spec.type, {})),
            spec.preprocessing)

    if out.combiner.name is None:
        out.combiner.name = "concat"
    if registries.combiners.has(out.combiner.name):
        cls = registries.combiners.lookup(out.combiner.name)
        out.combiner.params = _merge_params(getattr(cls, "DEFAULTS", {}), out.combiner.params)

    for spec in out.output_features:
        if spec.decoder is None:
            spec.decoder = DEFAULT_DECODERS.get(spec.type)
        if spec.decoder is not None and registries.decoders.has(spec.decoder, scope=spec.type):
            cls = registries.decoders.lookup(spec.decoder, scope=spec.type)
            spec.params = _merge_params(getattr(cls, "DEFAULTS", {}), spec.params)
        if spec.loss is None:
            spec.loss = DEFAULT_LOSSES.get(spec.type)
        if spec.loss_weight is None:
            spec.loss_weight = 1.0
        spec.preprocessing = _merge_params(
            _merge_params(TYPE_PREPROC_DEFAULTS[spec.type],
                          out.preprocessing.get(spec.type, {})),
            spec.preprocessing)

    tr = out.training
    for key, value in TRAINING_DEFAULTS.items():
        if key == "split":
            continue
        if getattr(tr, key) is None:
            setattr(tr, key, copy.deepcopy(value))
    if tr.learning_rate is None:
        tr.learning_rate = ADAM_DEFAULT_LR if tr.optimizer == "adam" else SGD_DEFAULT_LR
    if tr.beta1 is None:
        tr.beta1 = ADAM_DEFAULT_BETA1
    if tr.beta2 is None:
        tr.beta2 = ADAM_DEFAULT_BETA2
    if tr.epsilon is None:
        tr.epsilon = ADAM_DEFAULT_EPSILON
    if tr.split is None and tr.split_column is None:
        tr.split = list(TRAINING_DEFAULTS["split"])
    if tr.validation_feature is None:
        tr.validation_feature = out.output_features[0].name
    if tr.validation_metric is None:
        tr.validation_metric = "loss"
    return out


def _merge_params(base: dict, override: dict) -> dict:
    merged = {k: copy.deepcopy(v) for k, v in base.items()}
    for k, v in override.items():
        merged[k] = copy.deepcopy(v)
    return merged


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(definition: ModelDefinition, header: list[str],
             registries: Registries) -> list[Diagnostic]:
    """Check a resolved definition against a dataset header and registries.

    Problems are collected exhaustively and returned in document order; this
    function never raises on bad configuration.
    """
    diags: list[Diagnostic] = []
    header_set = set(header)
    seen_names: set[str] = set()
    output_names = [spec.name for spec in definition.output_features]

    for spec in definition.input_features:
        path = f"input_features.{spec.name}"
        if spec.name in seen_names:
            diags.append(Diagnostic(path, "duplicate feature name"))
        seen_names.add(spec.name)
        if spec.name not in header_set:
            diags.append(Diagnostic(path, f"column {spec.name!r} not found in dataset header"))
        if not registries.encoders.has(spec.encoder, scope=spec.type):
            names = ", ".join(registries.encoders.names(spec.type)) or "(none)"
            diags.append(Diagnostic(path, f"unknown encoder {spec.encoder!r} for type "
                                          f"{spec.type!r}; registered: {names}"))
        else:
            cls = registries.encoders.lookup(spec.encoder, scope=spec.type)
            diags.extend(_check_keywords(path, spec.params, cls))
        diags.extend(_check_preprocessing(path, spec.type, spec.preprocessing))

    for spec in definition.output_features:
        path = f"output_features.{spec.name}"
        if spec.name in seen_names:
            diags.append(Diagnostic(path, "duplicate feature name"))
        seen_names.add(spec.name)
        if spec.name not in header_set:
            diags.append(Diagnostic(path, f"column {spec.name!r} not found in dataset header"))
        if not registries.decoders.has(spec.decoder, scope=spec.type):
            names = ", ".join(registries.decoders.names(spec.type)) or "(none)"
            diags.append(Diagnostic(path, f"unknown decoder {spec.decoder!r} for type "
                                          f"{spec.type!r}; registered: {names}"))
        else:
            cls = registries.decoders.lookup(spec.decoder, scope=spec.type)
            diags.extend(_check_keywords(path, spec.params, cls))
        if spec.loss != DEFAULT_LOSSES.get(spec.type):
            diags.append(Diagnostic(path, f"loss {spec.loss!r} is not valid for type "
                                          f"{spec.type!r}; expected {DEFAULT_LOSSES.get(spec.type)!r}"))
        if spec.loss_weight is not None and spec.loss_weight <= 0:
            diags.append(Diagnostic(path, f"loss_weight must be positive, got {spec.loss_weight}"))
        for dep in spec.dependencies:
            if dep == spec.name:
                diags.append(Diagnostic(path, "feature depends on itself"))
            elif dep not in output_names:
                diags.append(Diagnostic(path, f"dependency {dep!r} is not a declared output feature"))
            else:
                origin = definition.output_by_name(dep)
                if spec.dependency_payload == "probabilities" and origin.type == "sequence":
                    diags.append(Diagnostic(path, f"dependency {dep!r}: sequence origins only "
                                                  "provide last_hidden payloads"))
        diags.extend(_check_preprocessing(path, spec.type, spec.preprocessing))

    try:
        build_dependency_order(definition.output_features)
    except ConfigError as exc:
        if "cycle" in str(exc):
            diags.append(Diagnostic("output_features", str(exc)))

    diags.extend(_check_tagger(definition))
    diags.extend(_check_combiner(definition, registries))
    diags.extend(_check_training(definition, header_set, output_names))
    return diags


def _check_keywords(path: str, params: dict, cls) -> list[Diagnostic]:
    accepted = getattr(cls, "ACCEPTED", None)
    if accepted is None:
        return []
    out = []
    for key in params:
        if key not in accepted:
            out.append(Diagnostic(f"{path}.{key}",
                                  f"keyword {key!r} is not accepted by {cls.__name__}; "
                                  f"accepted: {', '.join(sorted(accepted))}"))
    if "fc_sizes" in params and _bad_size_list(params["fc_sizes"]):
        out.append(Diagnostic(f"{path}.fc_sizes",
                              f"fc_sizes must be a list of positive integers, got {params['fc_sizes']!r}"))
    if "filter_widths" in params:
        widths = params["filter_widths"]
        if _bad_size_list(widths) or any(w % 2 == 0 for w in widths if isinstance(w, int)):
            out.append(Diagnostic(f"{path}.filter_widths",
                                  f"filter widths must be odd positive integers, got {widths!r}"))
    return out


def _bad_size_list(value) -> bool:
    return not isinstance(value, list) or any(
        not isinstance(v, int) or isinstance(v, bool) or v <= 0 for v in value)


def _check_preprocessing(path: str, ftype: str, params: dict) -> list[Diagnostic]:
    out = []
    strategy = params.get("missing_strategy")
    if strategy is not None and strategy not in MISSING_STRATEGIES:
        out.append(Diagnostic(f"{path}.preprocessing", f"unknown missing_strategy {strategy!r}; "
                                                       f"available: {', '.join(MISSING_STRATEGIES)}"))
    if strategy == "fill_mean" and ftype != "numerical":
        out.append(Diagnostic(f"{path}.preprocessing",
                              "missing_strategy fill_mean is only valid for numerical features"))
    norm = params.get("normalization")
    if norm is not None and norm not in NORMALIZATIONS:
        out.append(Diagnostic(f"{path}.preprocessing", f"unknown normalization {norm!r}; "
                                                       f"available: {', '.join(NORMALIZATIONS)}"))
    tok = params.get("tokenizer")
    if tok is not None and tok not in TOKENIZERS:
        out.append(Diagnostic(f"{path}.preprocessing", f"unknown tokenizer {tok!r}; "
                                                       f"available: {', '.join(sorted(TOKENIZERS))}"))
    for key in ("max_sequence_length", "vocab_size"):
        value = params.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 1):
            out.append(Diagnostic(f"{path}.preprocessing", f"{key} must be a positive integer"))
    return out


def _check_tagger(definition: ModelDefinition) -> list[Diagnostic]:
    out = []
    taggers = [spec for spec in definition.output_features if spec.type == "sequence"]
    if not taggers:
        return out
    seq_inputs = [spec for spec in definition.input_features if spec.type in ("sequence", "text")]
    if len(seq_inputs) == 0:
        for spec in taggers:
            out.append(Diagnostic(f"output_features.{spec.name}",
                                  "sequence tagging requires a sequence or text input feature"))
        return out
    if len(seq_inputs) > 1:
        for spec in taggers:
            out.append(Diagnostic(f"output_features.{spec.name}",
                                  "sequence tagging over multiple sequence inputs is not supported; "
                                  "declare exactly one sequence or text input"))
        return out
    source = seq_inputs[0]
    for spec in taggers:
        src_cap = source.preprocessing.get("max_sequence_length")
        dst_cap = spec.preprocessing.get("max_sequence_length")
        if src_cap is not None and dst_cap is not None and src_cap != dst_cap:
            out.append(Diagnostic(f"output_features.{spec.name}",
                                  f"tagger max_sequence_length {dst_cap} must match input feature "
                                  f"{source.name!r} ({src_cap})"))
    return out


def _check_combiner(definition: ModelDefinition, registries: Registries) -> list[Diagnostic]:
    name = definition.combiner.name
    if name is None:
        return []
    if not registries.combiners.has(name):
        return [Diagnostic("combiner", f"unknown combiner {name!r}; "
                                       f"registered: {', '.join(registries.combiners.names())}")]
    cls = registries.combiners.lookup(name)
    return _check_keywords("combiner", definition.combiner.params, cls)


def _check_training(definition: ModelDefinition, header_set: set, output_names: list) -> list[Diagnostic]:
    out = []
    tr = definition.training
    if tr.epochs is not None and tr.epochs < 0:
        out.append(Diagnostic("training.epochs", "epochs must be >= 0"))
    if tr.batch_size is not None and tr.batch_size < 1:
        out.append(Diagnostic("training.batch_size", "batch_size must be >= 1"))
    if tr.optimizer is not None and tr.optimizer not in ("sgd", "adam"):
        out.append(Diagnostic("training.optimizer", f"unknown optimizer {tr.optimizer!r}; "
                                                    "available: sgd, adam"))
    if tr.learning_rate is not None and tr.learning_rate <= 0:
        out.append(Diagnostic("training.learning_rate", "learning_rate must be positive"))
    if tr.decay is not None and not (0 < tr.decay <= 1):
        out.append(Diagnostic("training.decay", "decay must lie in (0, 1]"))
    if tr.patience is not None and tr.patience < 0:
        out.append(Diagnostic("training.patience", "patience must be >= 0 (0 disables early stopping)"))
    if tr.split is not None and tr.split_column is not None:
        out.append(Diagnostic("training.split", "provide either split fractions or split_column, not both"))
    if tr.split is not None:
        if len(tr.split) != 3:
            out.append(Diagnostic("training.split", "split needs exactly three fractions "
                                                    "(train, validation, test)"))
        elif any(f <= 0 for f in tr.split):
            out.append(Diagnostic("training.split", "split fractions must be positive"))
        elif abs(sum(tr.split) - 1.0) > 1e-9:
            out.append(Diagnostic("training.split", f"split fractions must sum to 1, got {sum(tr.split)}"))
    if tr.split_column is not None and tr.split_column not in header_set:
        out.append(Diagnostic("training.split_column",
                              f"split column {tr.split_column!r} not found in dataset header"))
    if tr.validation_feature is not None and tr.validation_feature not in output_names:
        out.append(Diagnostic("training.validation_feature",
                              f"{tr.validation_feature!r} is not an output feature"))
    elif tr.validation_metric is not None and tr.validation_metric != "loss":
        from .features import TYPE_METRICS
        feature = next((s for s in definition.output_features
                        if s.name == tr.validation_feature), None)
        if feature is not None and tr.validation_metric not in TYPE_METRICS.get(feature.type, ()):
            out.append(Diagnostic("training.validation_metric",
                                  f"metric {tr.validation_metric!r} is not valid for "
                                  f"type {feature.type!r}"))
    return out
