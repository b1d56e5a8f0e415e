"""Write ``reference.json``, the stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every op of every workload once and stores its outputs, keyed as the
ops key them, with the tolerances the checks apply.  For the chains it
stores the exact moments from the enumerated law, because the chain
estimates depend on the seed.  Regenerate only when a change to the
program is meant to change these outputs, and say so with the change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import workloads as w  # noqa: E402
from run import WORKLOADS  # noqa: E402

TOLERANCES = {
    # d_K, the moments and the covariances are exact computations; the slack
    # covers a change of summation order, not a change of method
    "d_k": {"rtol": 1e-9, "atol": 1e-15},
    "moment": {"rtol": 1e-9, "atol": 1e-15},
    # the covariance is a difference of O(1) terms that cancel to O(1/n)
    "covariance": {"rtol": 1e-6, "atol": 1e-15},
    "chain_stderr_factor": 4.0,
    "hs_check_limit": 1e-3,
}


def main() -> int:
    os.makedirs(w.OUT_DIR, exist_ok=True)
    ops = {}
    for name in WORKLOADS:
        for op in w.build(name, 0):
            ops.update((op.reference or op.run)())
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump({"tolerances": TOLERANCES, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} reference entries to {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
