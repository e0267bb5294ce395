#!/usr/bin/env python3
"""Regenerate every headline result table into results/ (or a given directory).

Runs the CLI end to end: the unknown-vs-known bound table under both
amplitude conventions, the bound-vs-looks and bound-vs-sampling sweeps,
the triangle-wave overlap curve, and a seeded Monte Carlo achievability
run. All outputs are CSV plus a JSON twin with per-cell method tags.
"""

import pathlib
import sys

from ddcrb.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

RUNS = [
    ("table1", ["table1", "--amp-convention", "both"]),
    ("sweep_L", ["sweep", "--sweep", "L=1:100"]),
    ("sweep_np", ["sweep", "--sweep", "n_p=10:20", "--Tp", "4", "--Q", "1",
                  "--tau0", "0.5", "--sigma2", "0.1", "--f0", "2.0"]),
    ("sweep_a", ["sweep", "--sweep", "a=0.5:4:0.25"]),
    ("overlap_m16", ["overlap", "--M", "16", "--P", "1", "--sigma2", "1"]),
    ("montecarlo", ["montecarlo", "--np", "64", "--delta", "0.25", "--Q", "1",
                    "--center", "8", "--width2", "9", "--tau0", "3.0",
                    "--f0", "0.3", "--sigma2", "1e-4", "--trials", "500",
                    "--seed", "42", "--fspan", "0.05", "--fpoints", "41"]),
]


def run_all(out_dir: pathlib.Path = RESULTS) -> int:
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    for name, args in RUNS:
        for fmt in ("csv", "json"):
            out = out_dir / f"{name}.{fmt}"
            code = main([*args, "--format", fmt, "--out", str(out)])
            if code != 0:
                print(f"FAILED ({code}): {name} [{fmt}]", file=sys.stderr)
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
