"""Seeded synthetic workloads for the ecdkit benchmark.

Each workload is a model definition plus a generator that writes two CSV
files: the workload dataset (inputs and targets) and a 16-row request file
(inputs only) for the serving loop. The generator is a pure function of
(workload, seed, rows), so one seed always yields byte-identical files. The
program under test only ever sees the files.

The generator records the input properties the program's behaviour depends
on (rows, bytes, vocabulary sizes, longest sequence, share of padded
positions), so a claim that a change helps only long or padded inputs can
cite the measured share. It deliberately keeps the long tail of the text
workload: trimming it would hide the padding defect.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REQUEST_ROWS = 16

TEXT_VOCAB = [f"w{i:03d}" for i in range(400)]
TEXT_KEYWORD = "quartz"
TEXT_LONG_SHARE = 0.02
TEXT_MAX_TOKENS = 40
# the first few long rows take the maximum length, so the training split
# is all but certain to contain one and max_sequence_length is 40
TEXT_FORCED_MAX_ROWS = 8

TAG_VOCAB = [f"k{i:02d}" for i in range(60)]
TAG_NAMES = ["noun", "verb", "adj", "adv", "det"]

STORES = [f"s{i:03d}" for i in range(1000)]
BASKET_ITEMS = [f"b{i:02d}" for i in range(50)]


def _text_rows(rng: np.random.Generator, n: int, with_targets: bool) -> tuple[list, list]:
    rows = []
    long_rows = 0
    for i in range(n):
        if rng.random() < TEXT_LONG_SHARE:
            long_rows += 1
            length = TEXT_MAX_TOKENS if long_rows <= TEXT_FORCED_MAX_ROWS \
                else int(rng.integers(13, TEXT_MAX_TOKENS + 1))
        else:
            length = int(rng.integers(4, 13))
        words = [TEXT_VOCAB[j] for j in rng.integers(len(TEXT_VOCAB), size=length)]
        hit = i % 2 == 0
        if hit:
            words[int(rng.integers(length))] = TEXT_KEYWORD
        row = [" ".join(words)]
        if with_targets:
            row.append("hit" if hit else "miss")
        rows.append(row)
    header = ["text", "label"] if with_targets else ["text"]
    return header, rows


def _tagger_rows(rng: np.random.Generator, n: int, with_targets: bool) -> tuple[list, list]:
    rows = []
    for _ in range(n):
        length = int(rng.integers(4, 25))
        ids = rng.integers(len(TAG_VOCAB), size=length)
        row = [" ".join(TAG_VOCAB[j] for j in ids)]
        if with_targets:
            row.append(" ".join(TAG_NAMES[j % len(TAG_NAMES)] for j in ids))
        rows.append(row)
    header = ["tokens", "tags"] if with_targets else ["tokens"]
    return header, rows


def _tabular_rows(rng: np.random.Generator, n: int, with_targets: bool) -> tuple[list, list]:
    rows = []
    while len(rows) < n:
        x1, x2 = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        if abs(x1) < 0.1 or abs(x2) < 0.1:
            continue
        store = int(rng.integers(len(STORES)))
        size = int(rng.integers(1, 7))
        items = sorted(int(j) for j in rng.choice(len(BASKET_ITEMS), size=size, replace=False))
        row = [repr(x1), repr(x2), STORES[store], " ".join(BASKET_ITEMS[j] for j in items)]
        if with_targets:
            amount = 3.0 * x1 - 2.0 * x2 + 0.1 * (store % 7) + 0.2 * size \
                + float(rng.normal(0.0, 0.05))
            row += [f"q{int(x1 < 0) * 2 + int(x2 < 0)}",
                    "true" if (x1 > 0) == (x2 > 0) else "false",
                    repr(amount)]
        rows.append(row)
    header = ["x1", "x2", "store", "basket"]
    if with_targets:
        header += ["quadrant", "same_sign", "amount"]
    return header, rows


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    definition: str
    make_rows: Callable[[np.random.Generator, int, bool], tuple[list, list]]
    sequence_column: str | None
    # (output feature, metric) whose test-split value is the quality guard
    score: tuple[str, str]


_TEXT_RNN = """\
input_features:
  - name: text
    type: text
    encoder: rnn
output_features:
  - name: label
    type: category
training:
  epochs: 3
  batch_size: 128
  patience: 0
"""

_TAGGER_CNN = """\
input_features:
  - name: tokens
    type: sequence
    encoder: cnn
    filter_widths: [3, 5, 7]
output_features:
  - name: tags
    type: sequence
    decoder: tagger
training:
  epochs: 3
  batch_size: 128
  learning_rate: 0.01
  patience: 0
"""

_TABULAR = """\
input_features:
  - name: x1
    type: numerical
  - name: x2
    type: numerical
  - name: store
    type: category
  - name: basket
    type: set
output_features:
  - name: quadrant
    type: category
  - name: same_sign
    type: binary
    dependencies: [quadrant]
    dependency_payload: probabilities
  - name: amount
    type: numerical
training:
  epochs: 3
  batch_size: 32
  learning_rate: 0.03
  patience: 0
"""

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("text_rnn_longtail",
             "rnn text classifier on a long-tailed length mix: the per-timestep tape "
             "path (select, rnn_step, concat) and ~79% padded positions",
             3000, _TEXT_RNN, _text_rows, "text", ("label", "accuracy")),
    Workload("tagger_cnn",
             "sequence tagger with a 3/5/7 cnn encoder: conv1d, per-position softmax "
             "and whole-split evaluation memory; no recurrence",
             1500, _TAGGER_CNN, _tagger_rows, "tokens", ("tags", "token_accuracy")),
    Workload("tabular_multitask",
             "three outputs with a dependency over numerical, 1000-value category and "
             "set inputs: per-op and per-batch overhead, no sequence ops",
             4000, _TABULAR, _tabular_rows, None, ("same_sign", "accuracy")),
)}


def training_seed(seed: int) -> int:
    """The seed handed to ``experiment``, derived from the benchmark seed."""
    return (seed * 7919 + 1) % (2**31 - 1)


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def generate(workload: Workload, seed: int, rows: int | None = None) -> dict[str, str]:
    """CSV text of the workload dataset and the request file for one seed."""
    index = list(WORKLOADS).index(workload.name)
    n = workload.rows if rows is None else rows
    data = workload.make_rows(np.random.default_rng([seed, index, 0]), n, True)
    request = workload.make_rows(np.random.default_rng([seed, index, 1]), REQUEST_ROWS, False)
    return {"dataset": _csv_text(*data), "request": _csv_text(*request)}


def input_properties(workload: Workload, dataset_csv: str) -> dict:
    """Measured properties of one generated dataset."""
    reader = csv.DictReader(io.StringIO(dataset_csv))
    records = list(reader)
    props = {"rows": len(records), "csv_bytes": len(dataset_csv.encode("utf-8")),
             "vocab_sizes": {}, "max_sequence_length": 0, "pad_share": 0.0}
    for column in reader.fieldnames:
        cells = [r[column] for r in records]
        try:
            [float(c) for c in cells]
            continue
        except ValueError:
            pass
        tokens = {tok for cell in cells for tok in cell.lower().split()}
        props["vocab_sizes"][column] = len(tokens)
    if workload.sequence_column is not None:
        lengths = [len(r[workload.sequence_column].split()) for r in records]
        longest = max(lengths)
        props["max_sequence_length"] = longest
        props["pad_share"] = 1.0 - sum(lengths) / (len(lengths) * longest)
    return props


def write_workload(workload: Workload, seed: int, directory: Path,
                   rows: int | None = None) -> dict[str, Path]:
    """Write the dataset and request CSVs into ``directory``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, text in generate(workload, seed, rows).items():
        path = directory / f"{workload.name}.{kind}.csv"
        path.write_text(text, encoding="utf-8")
        paths[kind] = path
    return paths
