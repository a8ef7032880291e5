"""Smoke tests of the user-facing surface: every README walkthrough in demos/
and every ``python`` block of README.md runs to completion, and every name
``dghm`` exports resolves."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dghm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


def test_demos_found():
    assert DEMOS


def assert_python_runs(args, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    assert_python_runs([str(demo)], tmp_path, timeout=300)


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    assert_python_runs(["-c", block], tmp_path, timeout=60)


def test_every_export_resolves():
    missing = [name for name in dghm.__all__ if not hasattr(dghm, name)]
    assert not missing
    assert "Detections" in dghm.__all__
