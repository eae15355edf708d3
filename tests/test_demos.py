"""Smoke test: every narrative demo that exercises the public API runs to
completion, and so does every Python block of the README."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bitbit.data import make_synthetic
from tests.conftest import write_dataset_csv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# (indent, code) of each ```python block, the indented ones in list items included.
README_BLOCKS = re.findall(r"^( *)```python\n(.*?)^\1```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.M | re.S)


def test_every_demo_is_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(temp.iterdir()) == []  # no temporary files left behind


def test_every_readme_block_is_found():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, tmp_path):
    # The streaming block reads train.csv and test.csv from its working directory.
    for name, seed in (("train.csv", 0), ("test.csv", 1)):
        write_dataset_csv(tmp_path / name, make_synthetic(200, 3, 2, 2.0, seed))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(README_BLOCKS[index][1])],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
