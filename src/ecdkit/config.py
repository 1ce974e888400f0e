"""Parsing, default resolution, and validation of model definitions.

The definition document has exactly five top-level sections —
``input_features``, ``combiner``, ``output_features``, ``preprocessing``,
and ``training`` — of which only the two feature lists are mandatory. The
schema is strict: unknown structural keys are rejected at parse time, while
component hyperparameters (an open keyword set) are checked against the
keywords the named component declares during validation, so typos surface
either way.

Each key is declared once, and parsing, ``resolve_defaults`` and
``validate`` read that declaration: a training key is a field of
``definition.TrainingParams``, a preprocessing key a field of
``features.PreprocParams`` (``features.TYPE_PREPROC_DEFAULTS`` names the
keys each type takes), and a component keyword a key of its component's
``DEFAULTS``, bounded by name in ``_KEYWORD_CHECKS``.

``validate`` never throws mid-run; it returns an ordered list of diagnostics
so a single invocation reports every problem in the file.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

from . import yamlish
from .autodiff import UNARY_KINDS
from .decoders import DECODERS, DEFAULT_LOSSES
from .definition import (
    OPTIMIZERS,
    PAYLOAD_KINDS,
    CombinerSpec,
    DecoderSpec,
    EncoderSpec,
    ModelDefinition,
    TrainingParams,
    choice,
    positive_int,
    positive_ints,
)
from .encoders import ENCODERS
from .errors import ConfigError, SchemaError
from .features import (
    OUTPUT_TYPES,
    SUPPORTED_TYPES,
    TYPE_METRICS,
    TYPE_PREPROC_DEFAULTS,
    PreprocParams,
)
from .graph import build_dependency_order
from .registry import Registries

TOP_LEVEL_KEYS = ("input_features", "combiner", "output_features", "preprocessing", "training")
#: a feature's own keys; every other key is a component keyword
_INPUT_RESERVED = frozenset(f.name for f in fields(EncoderSpec)) - {"params"}
_OUTPUT_RESERVED = frozenset(f.name for f in fields(DecoderSpec)) - {"params"}

#: diagnostic for a value that ``resolve_defaults`` would have set
_MISSING = "missing value"

_TRAINING_KEYS = {f.name: f.metadata for f in fields(TrainingParams)}
_PREPROC_KEYS = {f.name: f.metadata for f in fields(PreprocParams)}

#: the bound of a component keyword, by name, whichever component takes it
_KEYWORD_CHECKS = {
    **{name: {"bound": positive_int,
              "message": f"{name} must be a positive integer, got {{value!r}}"}
       for name in ("embedding_size", "state_size", "num_filters")},
    "fc_sizes": {"bound": positive_ints,
                 "message": "fc_sizes must be a list of positive integers, got {value!r}"},
    "filter_widths": {"bound": lambda v: positive_ints(v) and bool(v) and all(w % 2 for w in v),
                      "message": "filter widths must be odd positive integers, got {value!r}"},
    "activation": choice("activation", UNARY_KINDS),
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
    """Parse a definition written in the YAML subset of ``yamlish``."""
    return definition_from_dict(yamlish.loads(text))


def definition_from_dict(doc) -> ModelDefinition:
    """Walk a parsed document through the strict schema.

    Both a user's YAML definition and the JSON one a model directory stores
    pass through here, so both get the same checks.
    """
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
    allowed = TYPE_PREPROC_DEFAULTS[ftype]
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


def _parse_training(section) -> TrainingParams:
    if section is None:
        return TrainingParams()
    if not isinstance(section, dict):
        raise SchemaError("training section must be a mapping")
    kwargs = {}
    for key, value in section.items():
        if key not in _TRAINING_KEYS:
            raise SchemaError(f"training: unknown key {key!r}; "
                              f"expected one of {', '.join(_TRAINING_KEYS)}")
        kind = _TRAINING_KEYS[key]["kind"]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise SchemaError(f"training.{key}: expected "
                              f"{'a number' if kind is float else kind.__name__}, got {value!r}")
        if kind is list:
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                raise SchemaError(f"training.{key}: fractions must be numbers")
            value = [_finite(v, key) for v in value]
        kwargs[key] = _finite(value, key) if kind is float else value
    return TrainingParams(**kwargs)


def _finite(number: int | float, key: str) -> float:
    """``number`` as a finite float: an infinite or nan training value, or an
    integer too large for a float, would train on updates that are all 0 or
    all non-finite."""
    try:
        value = float(number)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"training.{key}: expected a finite number, got {value}")
    return value


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
            spec.encoder = next(iter(ENCODERS[spec.type]))
        if registries.encoders.has(spec.encoder, scope=spec.type):
            cls = registries.encoders.lookup(spec.encoder, scope=spec.type)
            spec.params = _merged(getattr(cls, "DEFAULTS", {}), spec.params)

    if out.combiner.name is None:
        out.combiner.name = "concat"
    if registries.combiners.has(out.combiner.name):
        cls = registries.combiners.lookup(out.combiner.name)
        out.combiner.params = _merged(getattr(cls, "DEFAULTS", {}), out.combiner.params)

    for spec in out.output_features:
        if spec.decoder is None:
            spec.decoder = next(iter(DECODERS.get(spec.type, ())), None)
        if spec.decoder is not None and registries.decoders.has(spec.decoder, scope=spec.type):
            cls = registries.decoders.lookup(spec.decoder, scope=spec.type)
            spec.params = _merged(getattr(cls, "DEFAULTS", {}), spec.params)
        if spec.loss is None:
            spec.loss = DEFAULT_LOSSES.get(spec.type)
        if spec.loss_weight is None:
            spec.loss_weight = 1.0

    for spec in out.input_features + out.output_features:
        spec.preprocessing = _merged(TYPE_PREPROC_DEFAULTS[spec.type],
                                     out.preprocessing.get(spec.type, {}), spec.preprocessing)

    tr = out.training
    for key, declared in _TRAINING_KEYS.items():
        if getattr(tr, key) is None and (key != "split" or tr.split_column is None):
            setattr(tr, key, copy.deepcopy(declared["default"]))
    if tr.learning_rate is None:
        # an unknown optimizer, which validate reports, gets sgd's rate
        tr.learning_rate = OPTIMIZERS.get(tr.optimizer, OPTIMIZERS["sgd"])
    if tr.validation_feature is None:
        tr.validation_feature = out.output_features[0].name
    return out


def _merged(*layers: dict) -> dict:
    """A copy of every layer's keys, a later layer's value winning."""
    return copy.deepcopy({k: v for layer in layers for k, v in layer.items()})


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
        diags.extend(_check_feature(path, spec, spec.encoder, registries.encoders,
                                    seen_names, header_set))
        diags.extend(_check_preprocessing(path, spec.type, spec.preprocessing))

    for spec in definition.output_features:
        path = f"output_features.{spec.name}"
        diags.extend(_check_feature(path, spec, spec.decoder, registries.decoders,
                                    seen_names, header_set))
        if spec.loss != DEFAULT_LOSSES.get(spec.type):
            diags.append(Diagnostic(path, f"loss {spec.loss!r} is not valid for type "
                                          f"{spec.type!r}; expected {DEFAULT_LOSSES.get(spec.type)!r}"))
        if spec.loss_weight is None or spec.loss_weight <= 0:
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


def _check_feature(path: str, spec, component, registry, seen_names: set,
                   header_set: set) -> list[Diagnostic]:
    """What an input and an output feature share: its name, its column, and
    its encoder or decoder with that component's keywords."""
    out = []
    if spec.name in seen_names:
        out.append(Diagnostic(path, "duplicate feature name"))
    seen_names.add(spec.name)
    if spec.name not in header_set:
        out.append(Diagnostic(path, f"column {spec.name!r} not found in dataset header"))
    if not registry.has(component, scope=spec.type):
        names = ", ".join(registry.names(spec.type)) or "(none)"
        out.append(Diagnostic(path, f"unknown {registry.kind} {component!r} for type "
                                    f"{spec.type!r}; registered: {names}"))
    else:
        out.extend(_check_keywords(path, spec.params, registry.lookup(component, scope=spec.type)))
    return out


def _check_keywords(path: str, params: dict, cls) -> list[Diagnostic]:
    declared = getattr(cls, "DEFAULTS", None)
    if declared is None:
        return []
    out = [Diagnostic(f"{path}.{key}", _MISSING) for key in declared if key not in params]
    for key in params:
        if key not in declared:
            out.append(Diagnostic(f"{path}.{key}",
                                  f"keyword {key!r} is not accepted by {cls.__name__}; "
                                  f"accepted: {', '.join(sorted(declared))}"))
    for key, check in _KEYWORD_CHECKS.items():
        if key in params and not check["bound"](params[key]):
            out.append(Diagnostic(f"{path}.{key}", check["message"].format(value=params[key])))
    return out


def _check_preprocessing(path: str, ftype: str, params: dict) -> list[Diagnostic]:
    out = [Diagnostic(f"{path}.preprocessing.{key}", _MISSING)
           for key in TYPE_PREPROC_DEFAULTS[ftype] if params.get(key) is None]
    # fill_mean passes missing_strategy's bound, so this keeps the document order
    if params.get("missing_strategy") == "fill_mean" and ftype != "numerical":
        out.append(Diagnostic(f"{path}.preprocessing",
                              "missing_strategy fill_mean is only valid for numerical features"))
    for key, declared in _PREPROC_KEYS.items():
        value = params.get(key)
        if value is not None and not declared["bound"](value):
            out.append(Diagnostic(f"{path}.preprocessing", declared["message"].format(value=value)))
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
    if not registries.combiners.has(name):
        return [Diagnostic("combiner", f"unknown combiner {name!r}; "
                                       f"registered: {', '.join(registries.combiners.names())}")]
    cls = registries.combiners.lookup(name)
    return _check_keywords("combiner", definition.combiner.params, cls)


def _check_training(definition: ModelDefinition, header_set: set, output_names: list) -> list[Diagnostic]:
    tr = definition.training
    # every field but split_column is set once resolved; split only without it
    out = [Diagnostic(f"training.{key}", _MISSING) for key in _TRAINING_KEYS
           if getattr(tr, key) is None and key != "split_column"
           and (key != "split" or tr.split_column is None)]
    for key, declared in _TRAINING_KEYS.items():
        value = getattr(tr, key)
        if value is not None and declared["bound"] is not None and not declared["bound"](value):
            out.append(Diagnostic(f"training.{key}", declared["message"].format(value=value)))
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
        feature = next((s for s in definition.output_features
                        if s.name == tr.validation_feature), None)
        if feature is not None and tr.validation_metric not in TYPE_METRICS.get(feature.type, ()):
            out.append(Diagnostic("training.validation_metric",
                                  f"metric {tr.validation_metric!r} is not valid for "
                                  f"type {feature.type!r}"))
    return out
