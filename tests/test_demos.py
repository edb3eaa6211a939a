"""Each demo prints exactly what it printed when its output was recorded.

A demo runs in its own interpreter with ``PYTHONPATH=src`` from the
repository root, and the sha256 of its standard output is compared with
the recorded one.  A change that alters any printed verdict, witness or
count fails here; a change that means to alter a demo's output records
the new digest along with it.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_spaces.py": "972a5131ffa845f6cd9bf72b866bb80ea44ef0df46c0885f0c8ca706eb507354",
    "02_operations.py": "a60666a9e41b0619b4d756fe6c3d5ecd2e33bd728577357db425402cb05b2c21",
    "03_pair_families.py": "7954ae334a712fcd883bf84c8433476465ecef56ad8c8e5483d75e5f2c52d949",
    "04_filters.py": "492b3fae3021b80f355555947fc085d432db820cbcf46414f2798a7899e08548",
    "05_compactness.py": "fa57b3a99335483c880879ade7a51062e29e5ccdb33f8c9526f0558b1f69f3cd",
    "06_harness_and_mining.py": "db118a99698cbbe78901b9a71d5456178d7d8d295dfca9789a148bf7dc5556d0",
}


def test_every_demo_is_recorded():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=300, check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[demo], run.stdout.decode()[-2000:]
