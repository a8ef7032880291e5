"""One workload iteration in a fresh process; prints one JSON line.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1.  Reports the
monotonic time at which set-up ended (imports and config built, first task
about to start), the task list's wall time, each ``run_single`` time, the
digest of the ``write_run_rows`` CSV and of each of its rows, the process's
peak RSS and its CPU time from ``resource.getrusage``.  With
``--trace 1`` it installs the span recorder first and adds the per-layer
metrics.  With ``--probe`` it stops once set-up has ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from dghm import experiments  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_digests(csv_bytes: bytes):
    """(whole-file digest, one digest per data row in record order)."""
    lines = csv_bytes.splitlines(keepends=True)
    return sha256(csv_bytes), [sha256(line) for line in lines[1:]]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` would do, except that Linux carries into it the peak RSS of
    the image that ``exec`` replaced, which is the spawning ``run.py``'s.
    """
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_iteration(workload, run_seed: int, toy: bool, tracer=None) -> dict:
    """Run the workload's task list, then write and digest its CSV rows."""
    tasks = workloads.tasks(workload, run_seed, toy)
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{workload.name}{'-toy' if toy else ''}-seed{run_seed}.csv"
    records, errors, run_s = [], [], []
    t_first = time.monotonic()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            records.append(experiments.run_single(*task))
            errors.append(None)
        except Exception as exc:  # a failed run is counted, the rest still run
            errors.append(f"{type(exc).__name__}: {exc}")
        run_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.run_id = -1
    experiments.write_run_rows(csv_path, records)
    wall_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu0
    file_sha, ok_rows = row_digests(csv_path.read_bytes())
    rows = iter(ok_rows)
    return {
        "t_first": t_first,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "run_s": run_s,
        "errors": errors,
        "sha256": file_sha,
        "rows": [None if err else next(rows, None) for err in errors],
        "peak_rss_kb": peak_rss_kb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--run-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if not Path(experiments.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dghm imported from {experiments.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.probe:
        workloads.tasks(workload, args.run_seed, args.toy)
        print(json.dumps({"t_first": time.monotonic()}))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = run_iteration(workload, args.run_seed, args.toy, tracer)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(OUT_DIR / f"spans-{workload.name}{'-toy' if args.toy else ''}.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
