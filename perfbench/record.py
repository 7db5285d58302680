"""Record the simulated statistics every benchmark run is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py            # all workloads
    python3 perfbench/record.py tcp-churn  # just one

Runs each workload untraced at the default and the held-out seed and
writes ``perfbench/expected.json``.  Re-record only in a change that is
*meant* to alter simulated results (a model change), never in one that
claims a host-time gain: those must reproduce the recording exactly.
"""

import json
import os
import sys

from run import EXPECTED_PATH, run_cell
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh)
    for name in names:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            sim = run_cell(name, seed, "plain")["sim"]
            expected.setdefault(name, {})[str(seed)] = sim
            print(f"{name} seed {seed}: "
                  f"{sim['sim_throughput_ops_s']:.0f} ops/s, "
                  f"{sim['calls_completed']} calls completed")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
