"""Record the golden CSV digests that ``run.py`` checks every run against.

Run from the root of a checkout, on the commit whose outputs are the
reference; it rewrites ``golden.json`` next to this file:

    python3 perfbench/make_golden.py

Only regenerate when a change is meant to alter the CSVs; a change that must
keep them byte-identical is checked against the digests already on record.
"""

from __future__ import annotations

import json
import sys

import run

#: Run seeds on record; the benchmark's ``--seed`` picks one by its remainder.
RUN_SEEDS = range(8)


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    import workloads

    golden = {}
    for mode in ("full", "toy"):
        toy = ["--toy"] if mode == "toy" else []
        for name, workload in workloads.WORKLOADS.items():
            for seed in RUN_SEEDS:
                workloads.check_positive_quota(workload, seed, toy=bool(toy))
                _, result = run.run_child(
                    ["--workload", name, "--run-seed", str(seed), *toy], timeout=600)
                if any(result["errors"]):
                    raise SystemExit(f"{name} seed {seed}: {result['errors']}")
                golden.setdefault(mode, {}).setdefault(name, {})[str(seed)] = {
                    "sha256": result["sha256"], "rows": result["rows"]}
                print(mode, name, seed, result["sha256"], flush=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
