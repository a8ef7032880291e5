"""Smoke tests of the user-facing surface: every README walkthrough in demos/
and every ``python`` block of README.md runs to completion, the README's one
``json`` block is the default config, and every name ``dghm`` exports
resolves."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dghm
from dghm.experiments import ExperimentConfig, config_to_dict

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


def test_demos_found():
    assert DEMOS


def assert_python_runs(args, cwd, timeout):
    """Run python with args and return its stdout, which it must exit 0 after."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: the demos a test below pins whole: it asserts their exit 0 and full stdout
PINNED_DEMOS = ("01_weighting_walkthrough.py", "03_train_and_inspect.py")


@pytest.mark.parametrize("demo", [d for d in DEMOS if d.name not in PINNED_DEMOS],
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    assert_python_runs([str(demo)], tmp_path, timeout=300)


#: demos/01's stdout: the densities (20 and 10) and weights (0.4 under unit
#: exponents, 0.04 once squared) that its closing text explains.
WALKTHROUGH_STDOUT = """\
per-partition histograms (10 unit regions over [0, 1]):
  clean  counts = [2 0 0 0 0 1 0 0 0 0]
  noisy  counts = [0 0 0 0 0 0 0 0 0 1]

gradient densities (count in bin / clipped region length):
  g = 0.05 [clean ]  GD =  20.00
  g = 0.05 [clean ]  GD =  20.00
  g = 0.55 [clean ]  GD =  10.00
  g = 0.95 [noisy ]  GD =  10.00

beta with mu_n=1.0, mu_c=1.0 (plain inverse density (GHM-style)):
  g = 0.05 [clean ]  gamma = 1.0  beta =  0.200
  g = 0.05 [clean ]  gamma = 1.0  beta =  0.200
  g = 0.55 [clean ]  gamma = 1.0  beta =  0.400
  g = 0.95 [noisy ]  gamma = 1.0  beta =  0.400

beta with mu_n=2.0, mu_c=0.5 (decoupled outlier exponents):
  g = 0.05 [clean ]  gamma = 1.0  beta =  0.200
  g = 0.05 [clean ]  gamma = 1.0  beta =  0.200
  g = 0.55 [clean ]  gamma = 1.0  beta =  0.400
  g = 0.95 [noisy ]  gamma = 2.0  beta =  0.040

The noisy outlier at g = 0.95 keeps weight 0.4 under unit exponents
but is crushed to 0.04 once its density is squared: a confident
contradiction of a possibly-missing annotation stops dominating the step.
"""


def test_weighting_walkthrough_output_is_pinned(tmp_path):
    demo = ROOT / "demos" / "01_weighting_walkthrough.py"
    assert assert_python_runs([str(demo)], tmp_path, timeout=60) == WALKTHROUGH_STDOUT


#: demos/03's stdout: both models' headline metrics and the clean/noisy
#: histograms of each trained model over its training pool, whose CE noisy top
#: bin (57 anchors) its closing text explains.
TRAIN_AND_INSPECT_STDOUT = """\
ce      froc=0.427 recall=0.145 precision=0.200 t_recall=0.393 r_recall=0.175
dghm_c  froc=0.552 recall=0.345 precision=0.200 t_recall=0.738 r_recall=0.427

converged gradient-norm histograms over the training pool (counts per bin):

  ce:
    clean  [9403 1803  881  487  322  220  145   99   57   31]
    noisy  [8545 1876  881  546  337  241  193  138  106   57]

  dghm_c:
    clean  [1469 5756 4040 1570  429  117   31   35    1    0]
    noisy  [1161 5182 4008 1783  637  124   25    0    0    0]

CE noisy-partition mass in the top bin (g >= 0.9): 57 anchors.
Those are real objects whose annotation was dropped: the model recognizes
them, the label contradicts it, and plain CE keeps hammering them toward 0.
The decoupled loss squashes exactly that mass and recovers more of the
removed objects (higher R-recall).
"""


def test_train_and_inspect_output_is_pinned(tmp_path):
    demo = ROOT / "demos" / "03_train_and_inspect.py"
    assert assert_python_runs([str(demo)], tmp_path, timeout=120) == TRAIN_AND_INSPECT_STDOUT


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    assert_python_runs(["-c", block], tmp_path, timeout=60)


def test_readme_json_block_is_the_default_config():
    blocks = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == config_to_dict(ExperimentConfig())


def test_every_export_resolves():
    missing = [name for name in dghm.__all__ if not hasattr(dghm, name)]
    assert not missing
    assert "Detections" in dghm.__all__
