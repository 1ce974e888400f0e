"""Binary record container, and the preprocessed-tensor cache built on it.

``write_container`` and ``read_container`` are the one writer and reader of
the record format shared by the cache (``<dataset>.ecdc``) and the weights
file (``weights.bin``, see ``artifacts``). Layout, all little-endian:

    magic (4 bytes) | version (u16) | header | count (u32)
    count x [name length (u16) | utf-8 name | rank (u8) | dims (rank x u32)
             | payload]
    digest64 of everything before it (u64)

Every payload of a file has the one float dtype its kind and version fix,
which the caller passes to both functions: float64 (``<f8``) for the cache,
float32 (``<f4``) for the weights. The weights' header is empty, and
``read_container`` reads a header of fixed size; the cache's header holds
its metadata, so ``read_cache`` reads it with the same checks and record
parser.

``digest64`` is SHA-256 cut to its first 8 bytes, read little-endian, and it
is checked on every read.

The cache (magic ``ECDC``) is format version 6. Its header is the run
fingerprint (u64), then the training metadata as UTF-8 JSON, one
``metadata_to_dict`` object per feature as ``metadata.json`` holds it,
after its byte length (u32); its record names are ``<split>/<feature>``,
and they hold the preprocessed arrays in float64, as preprocessing makes
them; a model casts them once, as its tape takes them in. A numerical
column's array holds its raw values, which the model normalizes. So a hit
needs nothing of the dataset but its bytes, for the fingerprint, and its
header record, for validation: the metadata, the arrays and each split's
row count are all in the cache. Version 5 had no metadata, version 4 held
numerical arrays normalized, version 3 had a BLAKE2b-64 trailer, version 2
also a per-record dtype byte, and version 1 an FNV-1a trailer; all are
rejected by their version field, which is checked before the digest whose
algorithm it determines.

The fingerprint hashes the dataset bytes together with the canonical
preprocessing parameters, split policy, seed, and the float32 range check
preprocessing applies, so any change that could alter the tensors, or let
through one that the check rejects, invalidates the cache. A corrupt or
mismatched file is never trusted: readers report it and callers recompute.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from . import data
from .definition import ModelDefinition
from .errors import ArtifactError, CorruptionError, DataError, FormatVersionError
from .features import FeatureMetadata, metadata_from_dict, metadata_to_dict

MAGIC = b"ECDC"
FORMAT_VERSION = 6


def digest64(*chunks: bytes) -> int:
    """The first 8 bytes of the SHA-256 of the concatenated chunks, as a
    little-endian u64."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest()[:8], "little")


def write_container(path: str | Path, magic: bytes, version: int, header: bytes,
                    arrays: dict[str, np.ndarray], dtype: str) -> None:
    """Write named arrays as one container with ``dtype`` payloads (``<f8``
    or ``<f4``); atomic via temp file + rename.

    A failed write or rename removes the temp file and raises ``ArtifactError``.
    """
    body = bytearray(magic)
    body += struct.pack("<H", version)
    body += header
    body += struct.pack("<I", len(arrays))
    for name, array in arrays.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(array, dtype=dtype)
        body += struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                            len(encoded), encoded, arr.ndim, *arr.shape)
        body += arr.tobytes()
    body += struct.pack("<Q", digest64(body))
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(body)
        tmp.replace(path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise ArtifactError(f"cannot write {path}: {exc.strerror}") from None


def read_container(path: str | Path, magic: bytes, version: int, header_size: int,
                   what: str, dtype: str) -> tuple[bytes, dict[str, np.ndarray]]:
    """Parse a container of ``dtype`` payloads into ``(header, arrays)``.

    Bad magic, a digest mismatch and any record that does not exactly fill
    the body raise ``CorruptionError``; a foreign version raises
    ``FormatVersionError``. ``what`` names the file kind in messages. Each
    record is copied once out of the file's bytes, into an array of its own.
    """
    body = _checked_body(path, magic, version, header_size, what)
    start = len(magic) + 2
    header = bytes(body[start : start + header_size])
    return header, _records(body, start + header_size, path, what, dtype)


def _checked_body(path: str | Path, magic: bytes, version: int, header_size: int,
                  what: str) -> memoryview:
    """A container's bytes less its digest, once its magic, version and
    digest are checked and it is long enough for a ``header_size`` header."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptionError(f"cannot read {what} file {path}: {exc.strerror}") from None
    if len(raw) < len(magic) + 2 + header_size + 4 + 8:
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
    return body


def _records(body: memoryview, offset: int, path: str | Path, what: str,
             dtype: str) -> dict[str, np.ndarray]:
    """The records from ``offset``, which must fill the body exactly."""
    itemsize = np.dtype(dtype).itemsize
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
            if offset + itemsize * size > len(body):
                raise CorruptionError(f"{what} file {path}: a record overruns the file")
            name = encoded.decode("utf-8")
            if name in arrays:
                raise CorruptionError(f"{what} file {path}: duplicate record {name!r}")
            arrays[name] = np.frombuffer(body, dtype=dtype, count=size,
                                         offset=offset).reshape(dims).copy()
            offset += itemsize * size
    except (struct.error, UnicodeDecodeError):
        raise CorruptionError(f"{what} file {path} has a malformed record") from None
    if offset != len(body):
        raise CorruptionError(f"{what} file {path} has {len(body) - offset} trailing bytes")
    return arrays


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
        # preprocessing rejects values that float32 cannot hold, so a cache
        # written before it did so is not reused
        "fits": "float32",
    }
    return digest64(dataset_bytes, json.dumps(recipe, sort_keys=True).encode("utf-8"))


def write_cache(path: str | Path, fingerprint: int, metadata: dict[str, FeatureMetadata],
                blocks: dict[str, dict[str, np.ndarray]]) -> None:
    """Persist the training metadata and per-split per-feature arrays under
    the run fingerprint."""
    encoded = json.dumps({name: metadata_to_dict(meta) for name, meta in metadata.items()},
                         sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrays = {f"{split}/{feature}": array
              for split, features in blocks.items()
              for feature, array in features.items()}
    write_container(path, MAGIC, FORMAT_VERSION,
                    struct.pack("<QI", fingerprint, len(encoded)) + encoded, arrays, "<f8")


def read_cache(path: str | Path, fingerprint: int
               ) -> tuple[dict[str, FeatureMetadata], dict[str, dict[str, np.ndarray]]] | None:
    """Load a cache file's ``(metadata, blocks)``; ``None`` when the
    fingerprint does not match.

    Corruption, metadata that ``metadata_from_dict`` rejects and a foreign
    format version raise (see ``read_container``), so callers can warn and
    recompute rather than silently trusting stale tensors.
    """
    body = _checked_body(path, MAGIC, FORMAT_VERSION, 12, "cache")
    start = len(MAGIC) + 2 + 12
    found, size = struct.unpack_from("<QI", body, start - 12)
    if found != fingerprint:
        return None
    if start + size > len(body):
        raise CorruptionError(f"cache file {path}: its metadata overruns the file")
    try:
        payload = json.loads(str(body[start : start + size], "utf-8"))
        if not isinstance(payload, dict):
            raise DataError("not an object keyed by feature name")
        metadata = {name: metadata_from_dict(entry) for name, entry in payload.items()}
    except (UnicodeDecodeError, json.JSONDecodeError, DataError) as exc:
        raise CorruptionError(f"cache file {path} has malformed metadata: {exc}") from None
    blocks: dict[str, dict[str, np.ndarray]] = {}
    for name, array in _records(body, start + size, path, "cache", "<f8").items():
        split, _, feature = name.partition("/")
        if not feature:
            raise CorruptionError(f"cache file {path}: malformed block name {name!r}")
        blocks.setdefault(split, {})[feature] = array
    return metadata, blocks


def cache_path_for(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".ecdc")


#: the bytes a fingerprint hashes, read with ``load_dataset``'s checks
dataset_bytes = data.dataset_bytes
