"""Each benchmark workload writes the pinned bytes for seeds 1 and 2.

``experiment()`` on a cache miss and again on a hit, one bulk ``predict()``
and one request ``predict()`` at the benchmark's size give the SHA-256 of
every file they write; the pins live in ``artifact_pins.json`` and
``scripts/pin_artifacts.py`` rewrites them. They hold for one BLAS thread
and this BLAS build, as the ``PINNED`` digests of ``test_components.py`` do.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((Path(__file__).parent / "artifact_pins.json").read_text(encoding="utf-8"))


def load_pin_script():
    spec = importlib.util.spec_from_file_location("pin_artifacts",
                                                  ROOT / "scripts" / "pin_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pin_artifacts = load_pin_script()
workloads = pin_artifacts.load_workloads()


@pytest.mark.parametrize("seed", pin_artifacts.SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_artifacts_have_their_pinned_bytes(name, seed, tmp_path):
    digests = pin_artifacts.artifact_digests(workloads, name, seed, tmp_path)
    assert digests == PINS[name][str(seed)]
    # a cache hit trains the model a miss trains
    for key in ("metrics.json", "weights.bin"):
        assert digests[f"warm {key}"] == digests[key]
