"""Smoke tests of the user-facing surface: every README walkthrough in demos/
runs to completion, and every name ``dghm`` exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dghm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    missing = [name for name in dghm.__all__ if not hasattr(dghm, name)]
    assert not missing
    assert "Detections" in dghm.__all__
