"""The demo scripts run end to end on a small synthetic dataset."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scripts")
    out = run_script("make_synthetic_data.py", "-n", 200, "-o", tmp / "data", cwd=tmp)
    for name in ("keyword_text", "token_tags", "quadrant"):
        assert f"wrote 200 rows to {tmp / 'data' / name}.csv" in out
    return tmp / "data"


def test_encoder_comparison_prints_one_row_per_encoder(data_dir, tmp_path):
    out = run_script("run_encoder_comparison.py", "-d", data_dir / "keyword_text.csv",
                     "-o", tmp_path / "cmp", "--epochs", 1, cwd=tmp_path)
    table = out[out.index("encoder  ") :].splitlines()[1:]
    assert [row.split()[0] for row in table] == ["embed", "cnn", "rnn"]
    for row in table:
        accuracy, loss = map(float, row.split()[1:])
        assert 0.0 <= accuracy <= 1.0 and loss > 0.0


def test_multitask_dependency_prints_both_variants(data_dir, tmp_path):
    out = run_script("run_multitask_dependency.py", "-d", data_dir / "quadrant.csv",
                     "-o", tmp_path / "mt", cwd=tmp_path)
    rows = re.findall(r"^(without dependency|with dependency) +test accuracy on same_sign: "
                      r"([0-9.]+)$", out, flags=re.M)
    assert [label for label, _ in rows] == ["without dependency", "with dependency"]
    assert all(0.0 <= float(acc) <= 1.0 for _, acc in rows)
