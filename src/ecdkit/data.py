"""Tabular dataset ingestion and train/validation/test splitting. A dataset
stores each CSV column once, and a split takes the same rows from each."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, ToolkitError
from .rng import SALT_SPLIT, Lcg, mix_seed

SPLIT_NAMES = ("train", "validation", "test")


@dataclass
class Dataset:
    """A CSV file's cells, one list per column in header order; ``lines[i]``
    is the file line of each column's ``i``-th cell."""

    source: str
    columns: dict[str, list[str]]
    lines: list[int]

    @property
    def header(self) -> list[str]:
        return list(self.columns)

    def __len__(self) -> int:
        return len(self.lines)

    def column(self, name: str) -> list[str]:
        if name not in self.columns:
            raise DataError(f"dataset {self.source!r} has no column {name!r}")
        return self.columns[name]  # the stored cells, not a copy: never write to them

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(self.source,
                       {name: [cells[i] for i in indices] for name, cells in self.columns.items()},
                       [self.lines[i] for i in indices])


def read_text(path: Path, error: type[ToolkitError], what: str) -> str:
    """The UTF-8 text of ``path``, less a leading byte-order mark. A file that
    cannot be read, such as a directory, or is not UTF-8 raises ``error``
    naming ``what`` and the file, and for bad bytes their file offsets."""
    return _decode(_read_bytes(path, error, what), path, error, what)


def _read_bytes(path: Path, error: type[ToolkitError], what: str) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None


def _decode(raw: bytes, path: Path, error: type[ToolkitError], what: str) -> str:
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{what} {path} is not UTF-8: line {line}, "
                    f"byte offset {exc.start}") from None


def dataset_bytes(path: str | Path) -> bytes:
    """A dataset file's bytes; a missing or unreadable file is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    return _read_bytes(path, DataError, "dataset file")


def read_header(path: str | Path, raw: bytes) -> list[str]:
    """The header record of the dataset file ``path`` whose bytes are
    ``raw``, with ``load_dataset``'s checks of the bytes and the header."""
    return _header(_reader(Path(path), raw), Path(path))


def load_dataset(path: str | Path, raw: bytes | None = None) -> Dataset:
    """Read a CSV file with a header row; every row must match its width.
    ``raw`` is the file's bytes, when the caller has read them already."""
    path = Path(path)
    reader = _reader(path, dataset_bytes(path) if raw is None else raw)
    header = _header(reader, path)
    records, lines = [], []
    for number, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise DataError(f"row {number} has {len(record)} cells, expected {len(header)}")
        records.append(record)
        lines.append(number)
    if not records:
        raise DataError(f"dataset file {path} has a header but no rows")
    return Dataset(str(path), dict(zip(header, map(list, zip(*records)))), lines)


def _reader(path: Path, raw: bytes):
    return csv.reader(io.StringIO(_decode(raw, path, DataError, "dataset file"), newline=""))


def _header(reader, path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"dataset file {path} is empty") from None
    if len(set(header)) != len(header):
        raise DataError(f"dataset header has duplicate column names: {header}")
    return header


def split_dataset(dataset: Dataset, split, split_column: str | None,
                  seed: int) -> dict[str, Dataset]:
    """Partition rows into train/validation/test.

    With a split column, rows are routed exactly as labeled. With fractions,
    a seeded shuffle is followed by a contiguous cut, so the partition is a
    pure function of (row order, seed) and never of cell contents.
    """
    if split_column is not None:
        buckets: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
        for i, label in enumerate(dataset.column(split_column)):
            if label not in buckets:
                raise DataError(f"split column {split_column!r} row {dataset.lines[i]}: "
                                f"unknown value {label!r}; expected one of {SPLIT_NAMES}")
            buckets[label].append(i)
        return {name: dataset.subset(indices) for name, indices in buckets.items()}

    indices = list(range(len(dataset)))
    Lcg(mix_seed(seed, SALT_SPLIT)).shuffle(indices)
    n = len(indices)
    n_train = int(n * split[0])
    n_val = int(n * split[1])
    return {
        "train": dataset.subset(indices[:n_train]),
        "validation": dataset.subset(indices[n_train : n_train + n_val]),
        "test": dataset.subset(indices[n_train + n_val :]),
    }
