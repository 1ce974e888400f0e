"""Tabular dataset ingestion and train/validation/test splitting."""

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
    """CSV rows by column name; ``lines[i]`` is the file line of ``rows[i]``."""

    source: str
    header: list[str]
    rows: list[dict[str, str]]
    lines: list[int]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[str]:
        if name not in self.header:
            raise DataError(f"dataset {self.source!r} has no column {name!r}")
        return [row[name] for row in self.rows]

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(self.source, list(self.header), [self.rows[i] for i in indices],
                       [self.lines[i] for i in indices])


def read_text(path: Path, error: type[ToolkitError], what: str) -> str:
    """The UTF-8 text of ``path``. A file that cannot be read, such as a
    directory, or that is not UTF-8 raises ``error`` naming ``what`` and the
    file, and for bad bytes their line and byte offset."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{what} {path} is not UTF-8: line {line}, "
                    f"byte offset {exc.start}") from None


def load_dataset(path: str | Path) -> Dataset:
    """Read a CSV file with a header row; every row must match its width."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    reader = csv.reader(io.StringIO(read_text(path, DataError, "dataset file"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"dataset file {path} is empty") from None
    if len(set(header)) != len(header):
        raise DataError(f"dataset header has duplicate column names: {header}")
    rows = []
    lines = []
    for number, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise DataError(f"row {number} has {len(record)} cells, expected {len(header)}")
        rows.append(dict(zip(header, record)))
        lines.append(number)
    if not rows:
        raise DataError(f"dataset file {path} has a header but no rows")
    return Dataset(str(path), header, rows, lines)


def split_dataset(dataset: Dataset, split, split_column: str | None,
                  seed: int) -> dict[str, Dataset]:
    """Partition rows into train/validation/test.

    With a split column, rows are routed exactly as labeled. With fractions,
    a seeded shuffle is followed by a contiguous cut, so the partition is a
    pure function of (row order, seed) and never of cell contents.
    """
    if split_column is not None:
        buckets: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
        for i, row in enumerate(dataset.rows):
            label = row.get(split_column, "")
            if label not in buckets:
                raise DataError(f"split column {split_column!r} row {dataset.lines[i]}: "
                                f"unknown value {label!r}; expected one of {SPLIT_NAMES}")
            buckets[label].append(i)
        return {name: dataset.subset(indices) for name, indices in buckets.items()}

    indices = list(range(len(dataset.rows)))
    Lcg(mix_seed(seed, SALT_SPLIT)).shuffle(indices)
    n = len(indices)
    n_train = int(n * split[0])
    n_val = int(n * split[1])
    return {
        "train": dataset.subset(indices[:n_train]),
        "validation": dataset.subset(indices[n_train : n_train + n_val]),
        "test": dataset.subset(indices[n_train + n_val :]),
    }
