"""Binary record container, and the preprocessed-tensor cache built on it.

``write_container`` and ``read_container`` are the one writer and reader of
the record format shared by the cache (``<dataset>.ecdc``) and the weights
file (``weights.bin``, see ``artifacts``). Layout, all little-endian:

    magic (4 bytes) | version (u16) | fixed-size header | count (u32)
    count x [name length (u16) | utf-8 name | rank (u8) | dims (rank x u32)
             | float64 payload]
    digest64 of everything before it (u64)

The cache's header is the run fingerprint (u64) and its record names are
``<split>/<feature>``; it is format version 3 (magic ``ECDC``). Version 2
carried a per-record dtype byte and version 1 an FNV-1a trailer; both are
rejected by their version field, which is checked before the digest whose
algorithm it determines.

The fingerprint hashes the dataset bytes together with the canonical
preprocessing parameters, split policy, and seed, so any change that could
alter the tensors invalidates the cache. A corrupt or mismatched file is
never trusted: readers report it and callers recompute.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .definition import ModelDefinition
from .errors import CorruptionError, DataError, FormatVersionError

MAGIC = b"ECDC"
FORMAT_VERSION = 3


def digest64(*chunks: bytes) -> int:
    """BLAKE2b-64 of the concatenated chunks, as a little-endian u64."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def write_container(path: str | Path, magic: bytes, version: int, header: bytes,
                    arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays as one container; atomic via temp file + rename."""
    body = bytearray(magic)
    body += struct.pack("<H", version)
    body += header
    body += struct.pack("<I", len(arrays))
    for name, array in arrays.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(array, dtype="<f8")
        body += struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                            len(encoded), encoded, arr.ndim, *arr.shape)
        body += arr.tobytes()
    body += struct.pack("<Q", digest64(body))
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(body)
    tmp.replace(path)


def read_container(path: str | Path, magic: bytes, version: int, header_size: int,
                   what: str) -> tuple[bytes, dict[str, np.ndarray]]:
    """Parse a container into ``(header, arrays)``.

    Bad magic, a digest mismatch and any record that does not exactly fill
    the body raise ``CorruptionError``; a foreign version raises
    ``FormatVersionError``. ``what`` names the file kind in messages.
    """
    raw = Path(path).read_bytes()
    start = len(magic) + 2
    if len(raw) < start + header_size + 4 + 8:
        raise CorruptionError(f"{what} file {path} is truncated")
    if raw[: len(magic)] != magic:
        raise CorruptionError(f"{what} file {path} has wrong magic bytes")
    found = struct.unpack_from("<H", raw, len(magic))[0]
    if found != version:
        raise FormatVersionError(f"{what} file {path} has format version {found}, "
                                 f"expected {version}")
    body = memoryview(raw)[:-8]
    if digest64(body) != struct.unpack_from("<Q", raw, len(body))[0]:
        raise CorruptionError(f"{what} file {path} failed its integrity digest")
    header = raw[start : start + header_size]
    offset = start + header_size
    arrays: dict[str, np.ndarray] = {}
    try:
        count = struct.unpack_from("<I", body, offset)[0]
        offset += 4
        for _ in range(count):
            name_len = struct.unpack_from("<H", body, offset)[0]
            encoded, rank = struct.unpack_from(f"<{name_len}sB", body, offset + 2)
            offset += 3 + name_len
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            size = math.prod(dims)
            if offset + 8 * size > len(body):
                raise CorruptionError(f"{what} file {path}: a record overruns the file")
            name = encoded.decode("utf-8")
            if name in arrays:
                raise CorruptionError(f"{what} file {path}: duplicate record {name!r}")
            arrays[name] = np.frombuffer(body, dtype="<f8", count=size,
                                         offset=offset).reshape(dims).copy()
            offset += 8 * size
    except (struct.error, UnicodeDecodeError):
        raise CorruptionError(f"{what} file {path} has a malformed record") from None
    if offset != len(body):
        raise CorruptionError(f"{what} file {path} has {len(body) - offset} trailing bytes")
    return header, arrays


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
    """Persist per-split per-feature arrays under the run fingerprint."""
    arrays = {f"{split}/{feature}": array
              for split, features in blocks.items()
              for feature, array in features.items()}
    write_container(path, MAGIC, FORMAT_VERSION, struct.pack("<Q", fingerprint), arrays)


def read_cache(path: str | Path, fingerprint: int) -> dict[str, dict[str, np.ndarray]] | None:
    """Load a cache file; ``None`` when the fingerprint does not match.

    Corruption and a foreign format version raise (see ``read_container``),
    so callers can warn and recompute rather than silently trusting stale
    tensors.
    """
    header, arrays = read_container(path, MAGIC, FORMAT_VERSION, 8, "cache")
    if struct.unpack("<Q", header)[0] != fingerprint:
        return None
    blocks: dict[str, dict[str, np.ndarray]] = {}
    for name, array in arrays.items():
        split, _, feature = name.partition("/")
        if not feature:
            raise CorruptionError(f"cache file {path}: malformed block name {name!r}")
        blocks.setdefault(split, {})[feature] = array
    return blocks


def cache_path_for(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".ecdc")


def dataset_bytes(path: str | Path) -> bytes:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return path.read_bytes()
