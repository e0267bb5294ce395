#!/usr/bin/env python3
"""Show that the output check catches a changed cell and lets rounding through.

    python3 perfbench/selftest.py [workload ...]

For each workload the worker runs twice at the default seed with one
reference cell scaled: by (1 + 1e-12), a rounding-level change that every
pass must accept, and by (1 + 1e-6), a real change that every pass must
reject (failed_frac = 1). Exits non-zero if either expectation fails.
"""

from __future__ import annotations

import sys
import time

import run


def main(names: list[str]) -> int:
    ok = True
    for name in names or run.WORKLOADS:
        for perturb, expect_fail in ((1e-12, False), (1e-6, True)):
            res = run.call_worker(
                ["--workload", name, "--seed", str(run.DEFAULT_SEED),
                 "--mode", "run", "--seconds", "0", "--perturb", str(perturb)],
                time.monotonic() + run.DEADLINE_S)
            frac = res["failed"] / res["attempted"]
            good = frac == (1.0 if expect_fail else 0.0)
            ok &= good
            print(f"{name:15} perturb {perturb:g}: failed_frac = {frac:g} "
                  f"({res['failed']}/{res['attempted']}) "
                  f"{'as expected' if good else 'UNEXPECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
