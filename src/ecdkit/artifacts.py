"""Persisted model artifacts: weights file, metadata, resolved definition.

A model directory contains exactly three files — ``metadata.json``,
``model_definition.yaml``, ``weights.bin`` — and is relocatable (no absolute
paths inside). Weights use a binary format that round-trips float64 exactly:
magic ``ECDW``, version (u16), record count (u32), then per-parameter
records of (name, rank, dims, little-endian float64 payload), and a trailing
64-bit BLAKE2b digest (``cache.digest64``). This is weights version 2; a model
saved with version 1 (FNV-1a trailer) is rejected by its version field and
must be retrained. Loading an artifact reproduces forward outputs
bit-identically.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore
from .cache import digest64
from .config import parse_model_definition, serialize_model_definition
from .definition import ModelDefinition
from .errors import ArtifactError, CorruptionError, FormatVersionError
from .features import FeatureMetadata, metadata_from_dict, metadata_to_dict

WEIGHTS_MAGIC = b"ECDW"
WEIGHTS_VERSION = 2

METADATA_FILE = "metadata.json"
DEFINITION_FILE = "model_definition.yaml"
WEIGHTS_FILE = "weights.bin"


def write_weights(path: str | Path, store: ParameterStore) -> None:
    body = bytearray()
    body += WEIGHTS_MAGIC
    body += struct.pack("<H", WEIGHTS_VERSION)
    body += struct.pack("<I", len(store))
    for param in store:
        encoded = param.name.encode("utf-8")
        arr = np.ascontiguousarray(param.tensor.array, dtype=np.float64)
        body += struct.pack("<H", len(encoded)) + encoded
        body += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            body += struct.pack("<I", extent)
        body += arr.tobytes(order="C")
    body += struct.pack("<Q", digest64(body))
    Path(path).write_bytes(body)


def read_weights(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"weights file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(WEIGHTS_MAGIC) + 2 + 4 + 8:
        raise CorruptionError(f"weights file {path} is truncated")
    if raw[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise CorruptionError(f"weights file {path} has wrong magic bytes")
    offset = len(WEIGHTS_MAGIC)
    version = struct.unpack_from("<H", raw, offset)[0]
    offset += 2
    if version != WEIGHTS_VERSION:
        raise FormatVersionError(f"weights file {path} has format version {version}, "
                                 f"expected {WEIGHTS_VERSION}")
    if digest64(memoryview(raw)[:-8]) != struct.unpack("<Q", raw[-8:])[0]:
        raise CorruptionError(f"weights file {path} failed its integrity digest")
    count = struct.unpack_from("<I", raw, offset)[0]
    offset += 4
    weights: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            name_len = struct.unpack_from("<H", raw, offset)[0]
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            rank = struct.unpack_from("<B", raw, offset)[0]
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            n = int(np.prod(dims))
            weights[name] = np.frombuffer(raw, dtype="<f8", count=n,
                                          offset=offset).reshape(dims).copy()
            offset += n * 8
    except struct.error:
        raise CorruptionError(f"weights file {path} is truncated") from None
    return weights


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
