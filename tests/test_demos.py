"""Smoke test: every demo script and every python block of the README runs
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gtsystems

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(argv):
    src = str(Path(gtsystems.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_all_three_readme_blocks_found():
    assert len(README_BLOCKS) == 3


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.split("\n")[0][:40])
def test_readme_block_runs(block):
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
