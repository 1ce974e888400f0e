"""Binary cache and weights formats: integrity, versioning, round-trips."""

import hashlib
import struct

import numpy as np
import pytest

from ecdkit.artifacts import WEIGHTS_MAGIC, WEIGHTS_VERSION, read_weights, write_weights
from ecdkit.autodiff import ParameterStore
from ecdkit.cache import (
    FORMAT_VERSION,
    MAGIC,
    compute_fingerprint,
    digest64,
    read_cache,
    write_cache,
)
from ecdkit.config import parse_model_definition, resolve_defaults
from ecdkit.errors import ArtifactError, CorruptionError, FormatVersionError
from ecdkit.registry import build_default_registries


def sample_blocks():
    return {
        "train": {"x": np.arange(6.0).reshape(3, 2), "y": np.ones((3, 1))},
        "validation": {"x": np.zeros((0, 2)), "y": np.zeros((0, 1))},
        "test": {"x": np.full((2, 2), 7.0), "y": np.zeros((2, 1))},
    }


def record(name: bytes, dims: tuple, payload: bytes) -> bytes:
    """One container record, with a payload that need not match its dims."""
    return struct.pack(f"<H{len(name)}sB{len(dims)}I", len(name), name, len(dims), *dims) + payload


ONE_VALUE = struct.pack("<d", 1.5)

# Record sections (count + records + extra bytes) that no writer produces.
MALFORMED = {
    "overrun": struct.pack("<I", 1) + record(b"t/x", (1000,), ONE_VALUE),
    "bad_name": struct.pack("<I", 1) + record(b"t/\xff", (), ONE_VALUE),
    "trailing": struct.pack("<I", 1) + record(b"t/x", (1,), ONE_VALUE) + bytes(16),
    "duplicate": struct.pack("<I", 2) + record(b"t/x", (1,), ONE_VALUE) * 2,
}

CONTAINERS = {
    "cache": (MAGIC, FORMAT_VERSION, struct.pack("<Q", 1), lambda path: read_cache(path, 1)),
    "weights": (WEIGHTS_MAGIC, WEIGHTS_VERSION, b"", read_weights),
}


def signed(body: bytes) -> bytes:
    return body + struct.pack("<Q", digest64(body))


class TestMalformedContainers:

    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_digest_valid_malformed_records_are_corruption(self, tmp_path, kind, defect):
        magic, version, header, read = CONTAINERS[kind]
        path = tmp_path / "container"
        path.write_bytes(signed(magic + struct.pack("<H", version) + header + MALFORMED[defect]))
        with pytest.raises(CorruptionError, match=f"{kind} file"):
            read(path)

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    def test_well_formed_hand_built_container_reads(self, tmp_path, kind):
        magic, version, header, read = CONTAINERS[kind]
        path = tmp_path / "container"
        records = struct.pack("<I", 1) + record(b"t/x", (1,), ONE_VALUE)
        path.write_bytes(signed(magic + struct.pack("<H", version) + header + records))
        loaded = read(path)
        value = loaded["t"]["x"] if kind == "cache" else loaded["t/x"]
        np.testing.assert_array_equal(value, [1.5])


class TestDigest:

    def test_known_vector(self):
        # hashlib.blake2b(b"abc", digest_size=8).digest() == d8bb14d833d59559, read little-endian
        assert digest64(b"abc") == 0x5995D533D814BBD8

    def test_chunks_match_whole(self):
        data = bytes(range(256)) * 3
        assert digest64(data[:1], data[1:500], b"", data[500:]) == digest64(data)


class TestCache:

    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "data.csv.ecdc"
        blocks = sample_blocks()
        write_cache(path, 1234, blocks)
        loaded = read_cache(path, 1234)
        for split, features in blocks.items():
            for name, arr in features.items():
                np.testing.assert_array_equal(loaded[split][name], arr)
                assert loaded[split][name].dtype == np.float64

    def test_fingerprint_mismatch_returns_none(self, tmp_path):
        path = tmp_path / "c.ecdc"
        write_cache(path, 1, sample_blocks())
        assert read_cache(path, 2) is None

    def test_flipped_byte_is_corruption(self, tmp_path):
        path = tmp_path / "c.ecdc"
        write_cache(path, 1, sample_blocks())
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            read_cache(path, 1)

    def test_truncation_is_corruption(self, tmp_path):
        path = tmp_path / "c.ecdc"
        write_cache(path, 1, sample_blocks())
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CorruptionError):
            read_cache(path, 1)

    def test_version_bump_is_version_error(self, tmp_path):
        path = tmp_path / "c.ecdc"
        write_cache(path, 1, sample_blocks())
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, FORMAT_VERSION + 1)
        body = bytes(raw[:-8])
        path.write_bytes(body + struct.pack("<Q", digest64(body)))
        with pytest.raises(FormatVersionError,
                           match=f"version {FORMAT_VERSION + 1}, expected {FORMAT_VERSION}"):
            read_cache(path, 1)


class TestFingerprint:

    def definition(self, extra=""):
        text = ("input_features:\n  - name: t\n    type: text\n"
                "output_features:\n  - name: y\n    type: category\n" + extra)
        return resolve_defaults(parse_model_definition(text), build_default_registries())

    def test_sensitive_to_dataset_bytes(self):
        d = self.definition()
        assert compute_fingerprint(b"a,b\n1,2\n", d, 1) != compute_fingerprint(b"a,b\n1,3\n", d, 1)

    def test_sensitive_to_preprocessing_params(self):
        base = self.definition()
        changed = self.definition("preprocessing:\n  text:\n    max_sequence_length: 5\n")
        assert compute_fingerprint(b"x", base, 1) != compute_fingerprint(b"x", changed, 1)

    def test_sensitive_to_seed_and_stable_otherwise(self):
        d = self.definition()
        assert compute_fingerprint(b"x", d, 1) != compute_fingerprint(b"x", d, 2)
        assert compute_fingerprint(b"x", d, 1) == compute_fingerprint(b"x", self.definition(), 1)

    def test_insensitive_to_encoder_choice(self):
        # swapping encoders must reuse the same cached tensors
        base = self.definition()
        swapped = self.definition()
        swapped.input_features[0].encoder = "cnn"
        assert compute_fingerprint(b"x", base, 1) == compute_fingerprint(b"x", swapped, 1)


class TestWeights:

    def store(self):
        store = ParameterStore()
        store.create("encoders.t.embedding", np.linspace(-1, 1, 12).reshape(4, 3))
        store.create("decoders.y.proj.weight", np.array([[0.1], [0.2], [0.3]]))
        store.create("decoders.y.proj.bias", np.zeros(1))
        return store

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "weights.bin"
        store = self.store()
        write_weights(path, store)
        loaded = read_weights(path)
        assert set(loaded) == set(store.names())
        for name in store.names():
            np.testing.assert_array_equal(loaded[name], store[name].tensor.array)

    def test_truncated_file_is_corruption_error(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, self.store())
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptionError):
            read_weights(path)

    def test_digest_mismatch_is_corruption_error(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, self.store())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            read_weights(path)

    def test_version_mismatch_is_version_error(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_weights(path, self.store())
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, WEIGHTS_VERSION + 1)
        body = bytes(raw[:-8])
        path.write_bytes(body + struct.pack("<Q", digest64(body)))
        with pytest.raises(FormatVersionError,
                           match=f"version {WEIGHTS_VERSION + 1}, expected {WEIGHTS_VERSION}"):
            read_weights(path)

    def test_layout_is_pinned(self, tmp_path):
        # SHA-256 of the weights version 2 bytes for this store; a changed
        # writer must not move a byte of an existing model's file
        path = tmp_path / "weights.bin"
        write_weights(path, self.store())
        raw = path.read_bytes()
        assert len(raw) == 237
        assert hashlib.sha256(raw).hexdigest() == (
            "cbd91c4cb69b3140536b8768d0c8e4d33b446e2a1f0038e4538b108f73e7f837")
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_is_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_weights(tmp_path / "absent.bin")
