"""Declarative, type-based deep learning toolkit.

Declare input and output features by name and type in a configuration file;
the toolkit builds, trains, evaluates, and serves the corresponding
encoder-combiner-decoder model with no user code.
"""

from .autodiff import Parameter, ParameterStore, Tape
from .config import Diagnostic, parse_model_definition, resolve_defaults, validate
from .definition import CombinerSpec, DecoderSpec, EncoderSpec, ModelDefinition, TrainingParams
from .graph import ECDModel, build_dependency_order, combined_loss
from .pipelines import TrainingStats, ValidationFailed, experiment, load_model, predict, save_model, train
from .registry import Registries, Registry, build_default_registries, register_component
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "CombinerSpec",
    "DecoderSpec",
    "Diagnostic",
    "ECDModel",
    "EncoderSpec",
    "ModelDefinition",
    "Parameter",
    "ParameterStore",
    "Registries",
    "Registry",
    "Tape",
    "Tensor",
    "TrainingParams",
    "TrainingStats",
    "ValidationFailed",
    "build_default_registries",
    "build_dependency_order",
    "combined_loss",
    "experiment",
    "load_model",
    "parse_model_definition",
    "predict",
    "register_component",
    "resolve_defaults",
    "save_model",
    "train",
    "validate",
]
