"""Persisted model artifacts: weights file, metadata, resolved definition.

A model directory contains exactly three files — ``metadata.json``,
``model_definition.yaml``, ``weights.bin`` — and is relocatable (no absolute
paths inside). Weights use the record container of ``cache`` (one record
per parameter, float64 round-tripped exactly) with magic ``ECDW`` and an
empty header. This is weights version 2; a model saved with version 1
(FNV-1a trailer) is rejected by its version field and must be retrained.
Loading an artifact reproduces forward outputs bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore
from .cache import read_container, write_container
from .config import parse_model_definition, serialize_model_definition
from .definition import ModelDefinition
from .errors import ArtifactError
from .features import FeatureMetadata, metadata_from_dict, metadata_to_dict

WEIGHTS_MAGIC = b"ECDW"
WEIGHTS_VERSION = 2

METADATA_FILE = "metadata.json"
DEFINITION_FILE = "model_definition.yaml"
WEIGHTS_FILE = "weights.bin"


def write_weights(path: str | Path, store: ParameterStore) -> None:
    write_container(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, b"",
                    {param.name: param.tensor.array for param in store})


def read_weights(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"weights file not found: {path}")
    return read_container(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, 0, "weights")[1]


def save_artifact(model_dir: str | Path, metadata: dict[str, FeatureMetadata],
                  definition: ModelDefinition, store: ParameterStore) -> Path:
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    write_metadata(model_dir / METADATA_FILE, metadata)
    (model_dir / DEFINITION_FILE).write_text(serialize_model_definition(definition),
                                             encoding="utf-8")
    write_weights(model_dir / WEIGHTS_FILE, store)
    return model_dir


def load_artifact(model_dir: str | Path):
    """Read all three artifact files; any missing one fails loudly."""
    model_dir = Path(model_dir)
    if not model_dir.is_dir():
        raise ArtifactError(f"model directory not found: {model_dir}")
    missing = [name for name in (METADATA_FILE, DEFINITION_FILE, WEIGHTS_FILE)
               if not (model_dir / name).exists()]
    if missing:
        raise ArtifactError(f"model directory {model_dir} is incomplete; "
                            f"missing: {', '.join(missing)}")
    metadata = read_metadata(model_dir / METADATA_FILE)
    definition = parse_model_definition((model_dir / DEFINITION_FILE).read_text(encoding="utf-8"))
    weights = read_weights(model_dir / WEIGHTS_FILE)
    return metadata, definition, weights


def write_metadata(path: str | Path, metadata: dict[str, FeatureMetadata]) -> None:
    payload = {name: metadata_to_dict(meta) for name, meta in metadata.items()}
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_metadata(path: str | Path) -> dict[str, FeatureMetadata]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {name: metadata_from_dict(entry) for name, entry in payload.items()}
