"""Tests of the benchmark itself, on toy-sized workloads (seconds each)."""

from __future__ import annotations

import dataclasses
import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--toy", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    proc = bench("--workload", "train_heavy", "--seed", "1", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    lines = proc.stdout.splitlines()
    for name, unit in want.items():
        line = next(line for line in lines if line.split()[:1] == [name])
        assert unit in line.split() and "median of" in line
    assert any(line.startswith("failed_frac") for line in lines)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_digests_hold(name):
    proc = bench("--workload", name, "--seconds", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    # correct covers both the golden digests and equal counts across traced runs
    assert result["correct"] and result["failed"] == 0, proc.stderr
    traced = int(re.search(r"iterations=\d+\+(\d+) traced", proc.stdout).group(1))
    assert traced >= 2, proc.stdout


def test_a_traced_run_without_two_traced_iterations_reports_nothing(monkeypatch, capsys):
    real = run.run_child

    def traced_fails(args, timeout):
        if args[-2:] == ["--trace", "1"]:
            raise run.ChildFailed("traced worker stopped")
        return real(args, timeout)

    monkeypatch.setattr(run, "run_child", traced_fails)
    code = run.main(["--toy", "--workload", "train_heavy", "--seconds", "1", "--trace", "1"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_self_times_never_exceed_the_parent_span():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "trend_slice",
         "--run-seed", "0", "--toy", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with gzip.open(worker.OUT_DIR / "spans-trend_slice-toy.json.gz", "rt") as fh:
        cols = json.load(fh)
    start, end, parent, run_id = cols["start"], cols["end"], cols["parent"], cols["run"]
    assert len(start) > 100
    self_s = tracer.self_times(start, end, parent)
    for i, p in enumerate(parent):
        assert -1e-9 <= self_s[i] <= end[i] - start[i] + 1e-9
        if p >= 0:
            assert start[p] <= start[i] <= end[i] <= end[p] and run_id[p] == run_id[i]
            assert self_s[p] <= end[p] - start[p]


def test_self_time_subtracts_children():
    # a(0-10) holds b(1-4) and d(5-9); b holds c(2-3)
    assert tracer.self_times([0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0],
                             [-1, 0, 1, 0]) == [3.0, 2.0, 1.0, 4.0]


def test_a_perturbed_row_is_caught_by_the_digest_check():
    golden = json.loads(run.GOLDEN_PATH.read_text())["toy"]["trend_slice"]["0"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "trend_slice",
         "--run-seed", "0", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert run.count_failures(result, golden) == 0
    csv_bytes = (worker.OUT_DIR / "trend_slice-toy-seed0.csv").read_bytes()
    lines = csv_bytes.splitlines(keepends=True)
    fields = lines[2].split(b",")
    fields[5] = fields[5] + b"1"  # one more digit in the second run's precision
    lines[2] = b",".join(fields)
    sha, rows = worker.row_digests(b"".join(lines))
    assert run.count_failures(dict(result, sha256=sha, rows=rows), golden) == 1
    missing = dict(result, rows=[None] + result["rows"][1:])
    assert run.count_failures(missing, golden) == 1


def test_peak_rss_leaves_out_the_spawning_process():
    import numpy as np

    held = np.ones(64 << 17)  # 64 MiB resident in this process while it spawns
    proc = subprocess.run(
        [sys.executable, "-c", "import worker; print(worker.peak_rss_kb())"],
        cwd=HERE, env={"PYTHONPATH": f"{ROOT / 'src'}"}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < held.nbytes // 1024


def test_guard_refuses_a_pool_below_the_positive_quota(monkeypatch):
    eight = dataclasses.replace(workloads.TOY_OVERRIDES["corpus"], n_ap=8, n_np=8)
    monkeypatch.setitem(workloads.TOY_OVERRIDES, "corpus", eight)
    with pytest.raises(workloads.InvalidWorkload, match="below the batch quota"):
        workloads.check_positive_quota(workloads.WORKLOADS["trend_slice"], 0, toy=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trend_slice",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_code_metrics_and_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER
