"""Print every metric of every workload, end to end and per layer.

    python3 bench/report.py --seed 1 --seconds 20

Runs bench/run.py once per workload with --trace 0 (end-to-end metrics) and
once with --trace 1 (per-layer table with each layer's share of self time,
and the per-layer metrics), one run after another, and prints their reports.
Exits non-zero if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(workloads.BENCH_DIR, "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                print(f"error: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
