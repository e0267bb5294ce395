#!/usr/bin/env python3
"""Summarize one benchmark result file, or compare two, written by `run.py --out`.

    python3 perfbench/compare.py runs.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

With one file it prints, for every workload and end-to-end metric, the
median over the runs and the quartile spread (q3 - q1) / median next to the
metric's bound. With two files, for every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles over the runs in the file, the change of the
median relative to the first file, and a verdict:

  worse       the second median is worse by more than the metric's bound
  unresolved  the first file's own quartile spread is wider than the bound
              and the second side does not beat every run of the first
  better      the medians differ by more than the first side's quartile
              spread, in the metric's good direction
  same        none of the above

It also prints the failed/attempted passes of each side; a change that fails
passes the parent did not is a regression whatever its speed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): [values]} over untraced runs, plus pass counts."""
    values = defaultdict(list)
    passes = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            passes[rec["workload"]][0] += rec["failed"]
            passes[rec["workload"]][1] += rec["attempted"]
            for name, m in rec["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
    return {"values": values, "passes": passes}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        return worse_by, "worse"
    if (qa3 - qa1) / ma > bound and not b_beats_all:
        return worse_by, "unresolved"
    if -sign * (mb - ma) > (qa3 - qa1):
        return worse_by, "better"
    return worse_by, "same"


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def spreads(spec: dict, a: dict) -> int:
    print(f"{'workload':15} {'metric':12} {'median [q1, q3]':>32} {'spread':>8}  bound")
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = a["values"].get((wl["name"], metric["name"]))
            if values:
                q = quartiles(values)
                print(f"{wl['name']:15} {metric['name']:12} {_fmt(q):>32} "
                      f"{(q[2] - q[0]) / q[1]:>8.1%}  {metric['bound']:.0%} "
                      f"(n={len(values)})")
        fa, ta = a["passes"].get(wl["name"], (0, 0))
        if ta:
            print(f"{wl['name']:15} failed passes: {fa}/{ta}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        return spreads(spec, load(argv[0]))
    a, b = load(argv[0]), load(argv[1])
    regressions = 0
    print(f"{'workload':15} {'metric':12} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'worse by':>9}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        for metric in spec["end_to_end"]:
            key = (name, metric["name"])
            if key not in a["values"] or key not in b["values"]:
                continue
            va, vb = a["values"][key], b["values"][key]
            worse_by, word = verdict(va, vb, metric["better"], metric["bound"])
            regressions += word == "worse"
            print(f"{name:15} {metric['name']:12} {_fmt(quartiles(va)):>32} "
                  f"{_fmt(quartiles(vb)):>32} {worse_by:>+9.1%}  {word} "
                  f"(bound {metric['bound']:.0%}, n={len(va)}/{len(vb)})")
        fa, ta = a["passes"].get(name, (0, 0))
        fb, tb = b["passes"].get(name, (0, 0))
        if ta or tb:
            print(f"{name:15} failed passes: A {fa}/{ta}, B {fb}/{tb}")
            regressions += fb > fa
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
