#!/usr/bin/env python3
"""One cold prepare of a benchmark workload, meant to run in a fresh interpreter.

Usage: python3 benchmark/cold_prepare.py <workload> <dataset.csv> <training seed>

Imports ecdkit (from ``PYTHONPATH``), then parses, loads, splits, collects
metadata, preprocesses on a cache miss (writing the cache) and builds the
model. The caller times the whole process.
"""

import sys
from pathlib import Path

from phases import cold_prepare
from workloads import WORKLOADS

if __name__ == "__main__":
    name, dataset, seed = sys.argv[1:]
    cold_prepare(WORKLOADS[name].definition, Path(dataset), int(seed))
