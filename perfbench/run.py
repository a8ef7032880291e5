"""Benchmark entry point: times one workload of the dghm pipeline end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_heavy --seed 0 --seconds 55 --trace 0

Every iteration runs in a fresh ``worker.py`` process with BLAS/OpenMP
threads pinned to 1, on the one CPU this process is pinned to.  With
``--trace 0``, 16 set-up probes (processes that stop when set-up ends), run in
groups before and between the iterations, give ``setup_s`` its samples, and a
fixed reference kernel is timed after every iteration and every group of
probes.  The host's speed drifts by up to 1.5x in phases of tens of seconds
to minutes, which no run is long enough to average out; so every time is
reported at the reference speed, multiplied by ``REFERENCE_S`` over the
run's median reference time.  Iterations repeat while the next one is
expected to end within ``--seconds`` of the start; at least one runs, and
with ``--trace 1`` at least one untraced and two traced, so that the traced
counts are always compared between two iterations.  Every run's CSV row is
checked against the golden digests in ``golden.json``.

Prints one line per metric with its unit and sample count, then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

#: Thread pools pinned to one thread: unpinned BLAS is slower and noisier here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Set-up probes per run, in groups before and between iterations and the
#: rest at the end, so that they sample several of the host's phases.
SETUP_PROBES = 16
PROBES_PER_GAP = 4
#: Nominal seconds of one ``reference_s()`` pass: times are scaled to it.
REFERENCE_S = 0.4
REFERENCE_REPS = 16
#: The whole benchmark must end within 180 s; children get what is left.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_s.p50": "s", "peak_rss_mb": "MiB"}


class ChildFailed(RuntimeError):
    pass


def run_child(args, timeout: float) -> tuple[float, dict]:
    """Run worker.py with ``args``; returns (monotonic spawn time, its JSON)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker {args} printed no result")
    return spawned, json.loads(lines[-1])


def count_failures(result: dict, golden: dict) -> int:
    """Runs that raised or whose CSV row differs from the golden digest."""
    failed = sum(row is None or row != want
                 for row, want in zip(result["rows"], golden["rows"]))
    failed += abs(len(result["rows"]) - len(golden["rows"]))
    if failed == 0 and result["sha256"] != golden["sha256"]:
        failed = len(result["rows"])  # header or framing changed: no row is trusted
    return failed


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal((20_000, 16)), rng.standard_normal((16, 32)),
            rng.standard_normal(2_000_000), rng.integers(0, 2_000_000, 500_000))


def reference_s() -> float:
    """Seconds for one pass of a fixed kernel that calls no dghm code.

    It mixes what the pipeline does (small matrix products and sorts, passes
    over arrays larger than the cache, gathers, interpreter loops), so that
    the host's slow phases slow it down much as they slow the pipeline.
    """
    import numpy as np

    x, w, big, index = _reference_inputs()
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        h = np.maximum(x @ w, 0.0)
        acc += float(h[np.argsort(h[:, 0], kind="stable")[:100]].sum())
        acc += float(np.sqrt(big * big + 1.0).sum() + big[index].sum())
        for i in range(2000):
            acc += i * 0.5
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    bench_start = time.monotonic()
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="criterion-9-sized inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dghm" / "__init__.py").is_file():
        print(f"no dghm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The reference passes must run on the workers' core: the host slows its
    # cores down independently, so another core's speed says little.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    golden_all = json.loads(GOLDEN_PATH.read_text())["toy" if args.toy else "full"]
    golden_by_seed = golden_all[workload.name]
    # the workload seed picks one of the run seeds whose outputs are on record
    run_seed = sorted(int(s) for s in golden_by_seed)[args.seed % len(golden_by_seed)]
    golden = golden_by_seed[str(run_seed)]
    try:
        positives = workloads.check_positive_quota(workload, run_seed, args.toy)
    except workloads.InvalidWorkload as exc:
        print(f"refusing seed {args.seed}: {exc}", file=sys.stderr)
        return 3

    child_args = ["--workload", workload.name, "--run-seed", str(run_seed)]
    if args.toy:
        child_args.append("--toy")

    def remaining():
        return DEADLINE_S - (time.monotonic() - bench_start)

    setup, untraced, traced, crashes, refs = [], [], [], [], []

    def reference():
        if not args.trace:
            refs.append(reference_s())

    def probe_setup(count):
        count = min(count, SETUP_PROBES - len(setup))
        for _ in range(count):
            spawned, probe = run_child([*child_args, "--probe"], remaining())
            setup.append(probe["t_first"] - spawned)
        if count > 0:
            reference()

    try:
        start = time.monotonic()
        if not args.trace:
            reference_s()  # the first pass also pays for page faults and caches
            reference()
            probe_setup(PROBES_PER_GAP)
        longest = 0.0
        while True:
            # U T T U T U ...: two traced iterations as early as possible
            trace = bool(args.trace) and bool(untraced) and len(traced) <= len(untraced)
            t0 = time.monotonic()
            try:
                _, result = run_child([*child_args, "--trace", str(int(trace))],
                                      remaining())
            except ChildFailed as exc:
                print(exc, file=sys.stderr)
                crashes.append(str(exc))
                break
            result["failed"] = count_failures(result, golden)
            (traced if trace else untraced).append(result)
            reference()
            if not args.trace:
                probe_setup(PROBES_PER_GAP)
            longest = max(longest, time.monotonic() - t0)
            need_more = not untraced or (args.trace and len(traced) < 2)
            elapsed = time.monotonic() - start
            if not need_more and (elapsed + longest > args.seconds
                                  or remaining() < 2 * longest):
                break
        if not args.trace:
            probe_setup(SETUP_PROBES)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if not untraced:
        print("no complete iteration; nothing to report", file=sys.stderr)
        return 1
    if args.trace and len(traced) < 2:
        print(f"{len(traced)} traced iteration(s) completed; the counts need two "
              "to be compared", file=sys.stderr)
        return 1

    iterations = untraced + traced
    crashed_runs = len(crashes) * len(workloads.tasks(workload, run_seed, args.toy))
    attempted = sum(len(r["rows"]) for r in iterations) + crashed_runs
    failed = sum(r["failed"] for r in iterations) + crashed_runs
    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} run_seed={run_seed} "
          f"trace={args.trace} toy={int(args.toy)} positives={positives} "
          f"iterations={len(untraced)}+{len(traced)} traced")
    print("env " + json.dumps(env, sort_keys=True))

    correct = failed == 0 and not crashes
    if args.trace:
        layer_runs = [r["layers"] for r in traced]
        for name in tracing.COUNTS:
            values = {run[name] for run in layer_runs}
            if len(values) > 1:
                print(f"count {name} differs between traced iterations: {sorted(values)}",
                      file=sys.stderr)
                correct = False
        # counts are equal across traced iterations (checked above): keep them whole
        values = {name: layer_runs[0][name] if name in tracing.COUNTS
                  else statistics.median([run[name] for run in layer_runs])
                  for name in layer_runs[0]}
        values["process.cpu_util"] = statistics.median(
            [r["cpu_s"] / r["wall_s"] for r in untraced])
        values["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                      - statistics.median([r["wall_s"] for r in untraced]))
        units = tracing.PER_LAYER
        samples = {name: len(traced) for name in units}
        samples["process.cpu_util"] = len(untraced)
    else:
        run_s = [t for r in untraced for t in r["run_s"]]
        times = {"setup_s": statistics.median(setup),
                 "wall_s": statistics.median([r["wall_s"] for r in untraced]),
                 "run_s.p50": statistics.median(run_s)}
        scale = REFERENCE_S / statistics.median(refs)
        print(f"reference pass {statistics.median(refs):.6g} s (median of {len(refs)}); "
              f"times below are scaled by {REFERENCE_S} / that = {scale:.6g}; unscaled: "
              + ", ".join(f"{name} {t:.6g} s" for name, t in times.items()))
        values = {
            **{name: t * scale for name, t in times.items()},
            "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024 for r in untraced]),
        }
        units = END_TO_END
        samples = {"setup_s": len(setup), "wall_s": len(untraced),
                   "run_s.p50": len(run_s), "peak_rss_mb": len(untraced)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, unit in units.items():
        print(f"{name:<48} {values[name]:>14.6g} {unit:<6} (median of {samples[name]})")
    print(f"{'failed_frac':<48} {failed / attempted:>14.6g} {'ratio':<6} "
          f"({failed} of {attempted} runs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
