"""The benchmark's own check.

    python3 perfbench/selfcheck.py

For every workload: a tiny traced run (the first ops of each kind of one
worker, untraced and traced) must pass every output check and find every
traced function in the package; then the same tiny run with one
deliberately wrong answer fed through the workload's checker must report a
failed op.  Across the workloads, every per-layer metric of BENCHMARK.json
but those in ALWAYS_ZERO must read non-zero at least once, so that a
function renamed or left unwrapped shows here instead of as a fall in its
layer's figures.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import declared, run
from workloads import WORKLOADS

TINY_OPS = 2  # per kind of op
# Per-layer metrics that read 0 on every input at this commit, and why.
ALWAYS_ZERO = {
    # power_prefix_len_direct is conclusive on every family word at n <= 8.
    "attractors.power_prefix_len_direct.inconclusive",
}


def main() -> int:
    ok = True
    seen: set[str] = set()
    for name in WORKLOADS:
        clean = run(name, seed=1, seconds=0, trace=True, limit=TINY_OPS,
                    min_processes=1)
        wrong = run(name, seed=1, seconds=0, trace=False, limit=TINY_OPS,
                    min_processes=1, corrupt=True)["result"]
        result = clean["result"]
        seen |= {key for key, m in result["metrics"].items() if m["value"]}
        passed = (result["failed"] == 0 and not clean["untraced"]
                  and wrong["failed"] > 0)
        print(f"{name}: tiny run failed_ops {result['failed']} of "
              f"{result['attempted']}, untraced functions {clean['untraced']}; "
              f"with one wrong answer failed_ops {wrong['failed']} of "
              f"{wrong['attempted']}: {'ok' if passed else 'FAIL'}")
        ok = ok and passed
    zero = [key for key in declared("per_layer")
            if key not in seen and key not in ALWAYS_ZERO]
    print(f"per-layer metrics zero on every workload: {zero or 'none'}")
    return 0 if ok and not zero else 1


if __name__ == "__main__":
    sys.exit(main())
