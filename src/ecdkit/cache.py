"""Binary container for preprocessed tensors, keyed by a run fingerprint.

Layout: magic ``ECDC``, format version (u16), fingerprint (u64), block count
(u32), then per-block records of (name length + utf-8 name, dtype tag, rank,
dims, little-endian float64 payload), and a trailing 64-bit BLAKE2b digest
(``digest64``) of everything before it. Block names are ``<split>/<feature>``.
This is format version 2; version 1 files carried an FNV-1a trailer and are
rejected by their version field before the digest is checked.

The fingerprint hashes the dataset bytes together with the canonical
preprocessing parameters, split policy, and seed, so any change that could
alter the tensors invalidates the cache. A corrupt or mismatched file is
never trusted: readers report it and callers recompute.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .definition import ModelDefinition
from .errors import CorruptionError, DataError, FormatVersionError

MAGIC = b"ECDC"
FORMAT_VERSION = 2
_DTYPE_F64 = 0


def digest64(*chunks: bytes) -> int:
    """BLAKE2b-64 of the concatenated chunks, as a little-endian u64."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def compute_fingerprint(dataset_bytes: bytes, definition: ModelDefinition, seed: int) -> int:
    """Digest of everything preprocessing depends on."""
    recipe = {
        "features": [
            {"name": s.name, "type": s.type, "preprocessing": s.preprocessing}
            for s in list(definition.input_features) + list(definition.output_features)
        ],
        "split": definition.training.split,
        "split_column": definition.training.split_column,
        "seed": seed,
    }
    return digest64(dataset_bytes, json.dumps(recipe, sort_keys=True).encode("utf-8"))


def write_cache(path: str | Path, fingerprint: int,
                blocks: dict[str, dict[str, np.ndarray]]) -> None:
    """Persist per-split per-feature arrays; atomic via temp file + rename."""
    body = bytearray()
    body += MAGIC
    body += struct.pack("<H", FORMAT_VERSION)
    body += struct.pack("<Q", fingerprint)
    entries = [(f"{split}/{feature}", array)
               for split, features in blocks.items()
               for feature, array in features.items()]
    body += struct.pack("<I", len(entries))
    for name, array in entries:
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(array, dtype=np.float64)
        body += struct.pack("<H", len(encoded)) + encoded
        body += struct.pack("<B", _DTYPE_F64)
        body += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            body += struct.pack("<I", extent)
        body += arr.tobytes(order="C")
    body += struct.pack("<Q", digest64(body))
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(body)
    tmp.replace(path)


def read_cache(path: str | Path, fingerprint: int) -> dict[str, dict[str, np.ndarray]] | None:
    """Load a cache file; ``None`` when the fingerprint does not match.

    Corruption (bad magic, truncation, digest mismatch) and a foreign format
    version raise, so callers can warn and recompute rather than silently
    trusting stale tensors. The version is checked before the digest, whose
    algorithm it determines.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 2 + 8 + 4 + 8:
        raise CorruptionError(f"cache file {path} is truncated")
    if raw[: len(MAGIC)] != MAGIC:
        raise CorruptionError(f"cache file {path} has wrong magic bytes")
    offset = len(MAGIC)
    version = struct.unpack_from("<H", raw, offset)[0]
    offset += 2
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"cache file {path} has format version {version}, "
                                 f"expected {FORMAT_VERSION}")
    if digest64(memoryview(raw)[:-8]) != struct.unpack("<Q", raw[-8:])[0]:
        raise CorruptionError(f"cache file {path} failed its integrity digest")
    stored_fingerprint = struct.unpack_from("<Q", raw, offset)[0]
    offset += 8
    if stored_fingerprint != fingerprint:
        return None
    count = struct.unpack_from("<I", raw, offset)[0]
    offset += 4
    blocks: dict[str, dict[str, np.ndarray]] = {}
    try:
        for _ in range(count):
            name_len = struct.unpack_from("<H", raw, offset)[0]
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            dtype_tag, rank = struct.unpack_from("<BB", raw, offset)
            offset += 2
            if dtype_tag != _DTYPE_F64:
                raise CorruptionError(f"cache file {path}: unknown dtype tag {dtype_tag}")
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            size = int(np.prod(dims)) * 8
            array = np.frombuffer(raw, dtype="<f8", count=int(np.prod(dims)),
                                  offset=offset).reshape(dims).copy()
            offset += size
            split, _, feature = name.partition("/")
            if not feature:
                raise CorruptionError(f"cache file {path}: malformed block name {name!r}")
            blocks.setdefault(split, {})[feature] = array
    except struct.error:
        raise CorruptionError(f"cache file {path} is truncated") from None
    return blocks


def cache_path_for(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".ecdc")


def dataset_bytes(path: str | Path) -> bytes:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return path.read_bytes()
