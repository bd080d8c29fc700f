"""Record the expected stdout and exit code of every paper-cli invocation.

    python3 bench/record_paper_cli.py

Writes bench/paper_cli_expected.json from the projvf under src/. The file
committed with the benchmark was recorded from the original code; re-record
only when a change is meant to alter the command line's output.
"""

from __future__ import annotations

import json
import os
import sys

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(workloads.BENCH_DIR), "src"))


def main() -> None:
    pv = workloads.import_projvf()
    cases = []
    for argv in workloads.paper_cli_argvs():
        code, stdout = workloads.run_cli(pv.cli, workloads.resolve(argv))
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(workloads.EXPECTED_CLI, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(cases)} invocations in {workloads.EXPECTED_CLI}")


if __name__ == "__main__":
    main()
