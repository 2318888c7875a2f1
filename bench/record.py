"""Record the output digests the benchmark checks its recorded seeds against.

    python3 bench/record.py

Runs one untraced full-scale pass of every workload for each recorded seed
and writes ``bench/expected.json``.  Re-record only for a change that is meant
to alter outputs, and say so where the change is described.
"""

import json
import sys
import time

from run import BENCH, WORK, WORKLOADS, run_worker

RECORDED_SEEDS = (0, 1)


def main() -> int:
    WORK.mkdir(exist_ok=True)
    expected: dict = {}
    for workload in WORKLOADS:
        for seed in RECORDED_SEEDS:
            p = run_worker(workload, seed, 1, time.monotonic() + 600)
            if p["error"]:
                print(f"{workload} seed {seed}: {p['error']}", file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[str(seed)] = {"digests": p["digests"], **p["facts"]}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
