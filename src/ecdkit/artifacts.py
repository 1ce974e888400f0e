"""Persisted model artifacts: weights file, metadata, resolved definition.

A model directory contains exactly three files — ``metadata.json``,
``model_definition.json``, ``weights.bin`` — and is relocatable (no absolute
paths inside). The definition is stored resolved and read back through the
schema walk of a user's YAML definition. Every JSON file goes through
``write_json``. ``metadata.json`` stores each vocabulary once, as
``id2token``; the token-to-id map is derived from it on load. Weights use
the record container of ``cache`` (one record per parameter, float64
round-tripped exactly, sealed by the SHA-256-based ``digest64``) with magic
``ECDW`` and an empty header. This is weights version 3. A model saved with
version 2 (BLAKE2b-64 trailer) or version 1 (FNV-1a trailer), or with a
``model_definition.yaml``, must be retrained. Every load reads and verifies
all three files, and reproduces forward outputs bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore
from .cache import read_container, write_container
from .config import definition_from_dict
from .data import read_text
from .definition import ModelDefinition
from .errors import ArtifactError, DataError, SchemaError
from .features import FeatureMetadata, metadata_from_dict, metadata_to_dict

WEIGHTS_MAGIC = b"ECDW"
WEIGHTS_VERSION = 3

METADATA_FILE = "metadata.json"
DEFINITION_FILE = "model_definition.json"
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
    write_json(model_dir / DEFINITION_FILE, definition.to_dict())
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
    definition_path = model_dir / DEFINITION_FILE
    try:
        definition = definition_from_dict(read_json(definition_path))
    except SchemaError as exc:
        raise ArtifactError(f"{definition_path}: {exc}") from None
    weights = read_weights(model_dir / WEIGHTS_FILE)
    return metadata, definition, weights


def write_json(path: str | Path, payload) -> None:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def read_json(path: Path):
    """The one JSON reader; bad content is an ArtifactError naming the file."""
    text = read_text(path, ArtifactError, "model file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from None


def write_metadata(path: str | Path, metadata: dict[str, FeatureMetadata]) -> None:
    write_json(path, {name: metadata_to_dict(meta) for name, meta in metadata.items()})


def read_metadata(path: str | Path) -> dict[str, FeatureMetadata]:
    """Per-feature metadata; any malformed content is an ArtifactError naming the file."""
    path = Path(path)
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path} must hold an object keyed by feature name, "
                            f"got {type(payload).__name__}")
    metadata = {}
    for name, entry in payload.items():
        try:
            metadata[name] = metadata_from_dict(entry)
        except DataError as exc:
            raise ArtifactError(f"{path}: feature {name!r}: {exc}") from None
    return metadata
