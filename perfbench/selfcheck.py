"""Second-seed self-check: every workload, traced, at two seeds.

    python3 perfbench/selfcheck.py

Runs ``run.py --trace 1`` once per workload and seed with the shortest
measuring time, so each run makes its minimum of two traced passes and one
untraced pass.  The seed changes the seminorm subsample and the random
polygons; every assertion must still pass, traced and untraced CSVs must
agree, and the work counts must repeat within each run.  Exits 1 if any
run reports a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEEDS = (0, 1)


def main() -> int:
    bad = 0
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", "1"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0}
            ok = proc.returncode == 0 and result["correct"]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:7s} seed={seed} "
                  f"{result['failed']}/{result['attempted']} failed")
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
