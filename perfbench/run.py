#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out bench.jsonl

Run from anywhere inside a ddcrb checkout; the program is imported from the
checkout's src/. Each workload runs in fresh worker processes with BLAS held
to one thread: SETUP_PROBES processes that only set up (for setup_s), then
one that sets up and runs the passes. The last line on stdout is one JSON
object {correct, attempted, failed, metrics}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. --out appends the
full record of each run (metrics, sample counts, environment) as one JSON
line, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
from statistics import median
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "montecarlo", "sweeps", "nuisance_bases")
# the seed the reference snapshot was taken at; equal to workloads.DEFAULT_SEED,
# repeated here because this process never imports the program
DEFAULT_SEED = 42
SETUP_PROBES = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float,
                 spans_dir: pathlib.Path) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setup_only = [] if trace else [call_worker([*base, "--mode", "setup"], deadline)
                                   for _ in range(SETUP_PROBES)]
    run_args = [*base, "--mode", "run", "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir.mkdir(exist_ok=True)
        run_args += ["--spans-out", str(spans_dir / f"{name}.spans.jsonl")]
    res = call_worker(run_args, deadline)
    setups = [*setup_only, res]
    passes = res["pass_s"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "setup_samples": [(p["setup_s"], p["setup_probe_ms"]) for p in setups],
        "warmup_s": res["warmup_s"],
        "pass_samples": list(zip(passes, res["pass_probe_ms"])),
        "items_per_pass": res["items"] / len(passes), "env": res["env"],
    }
    if trace:
        record["metrics"] = layer_metrics(res["traced"], passes)
        return record
    setup_ref = [p["setup_ref_s"] for p in setups]
    passes_ref = res["pass_ref_s"]
    record["raw"] = {"setup_s": median([p["setup_s"] for p in setups]),
                     "pass_s.p50": median(passes), "items_per_s": res["items"] / sum(passes)}
    record["metrics"] = {
        "setup_s": {"value": median(setup_ref), "unit": "s", "n": len(setups)},
        "pass_s.p50": {"value": median(passes_ref), "unit": "s", "n": len(passes)},
        "items_per_s": {"value": res["items"] / sum(passes_ref), "unit": "items/s",
                        "n": len(passes)},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB", "n": 1},
    }
    return record


def layer_metrics(traced: list[dict], plain: list[float]) -> dict:
    """Median over traced passes of each per-layer figure, plus tracing overhead."""
    out = {}
    for key in traced[0]:
        if key == "pass_s":
            continue
        unit = ("s" if key.endswith("_s") or key.endswith(".s")
                else "ratio" if key.endswith("_frac") else "count")
        pick = statistics.median_low if unit == "count" else median
        out[key] = {"value": pick([t[key] for t in traced]), "unit": unit,
                    "n": len(traced)}
    traced_p50 = median([t["pass_s"] for t in traced])
    out["trace.pass_s.p50"] = {"value": traced_p50, "unit": "s", "n": len(traced)}
    out["trace.overhead_s"] = {"value": traced_p50 - median(plain), "unit": "s",
                               "n": len(traced)}
    return out


def print_report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}"
          f"  trace={record['trace']}  commit={record['env']['commit'][:12]}")
    print(f"   failed_frac = {record['failed_frac']:.4g} ratio "
          f"({record['failed']}/{record['attempted']} passes)")
    probes = record["env"]["speed_probe_ms"]
    print(f"   warm-up pass = {record['warmup_s']:.4g} s raw (excluded); speed probe "
          f"median {median(probes):.3g} ms, range {min(probes):.3g}-{max(probes):.3g} ms "
          f"(reference {record['env']['reference_probe_ms']} ms)")
    raw = record.get("raw", {})
    for key, m in record["metrics"].items():
        extra = f"; raw {raw[key]:.6g}" if key in raw else ""
        print(f"   {key} = {m['value']:.6g} {m['unit']} (n={m['n']}{extra})")
    if record["trace"]:
        print_module_shares(record)


def print_module_shares(record: dict) -> None:
    """Self time per ddcrb module as a share of the traced pass."""
    total = record["metrics"]["trace.pass_s.p50"]["value"]
    modules = {}
    for key, m in record["metrics"].items():
        if key.endswith(".self_s") and not key.startswith("pass."):
            mod = key.split(".", 1)[0]
            modules[mod] = modules.get(mod, 0.0) + m["value"]
    shares = ", ".join(f"{mod} {val / total:.1%}" for mod, val in
                       sorted(modules.items(), key=lambda kv: -kv[1]) if val > 0)
    print(f"   self-time share of traced pass: {shares}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="append one JSON line per workload run to this file")
    args = parser.parse_args()

    if not (ROOT / "src" / "ddcrb" / "__init__.py").is_file():
        print(f"no ddcrb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    spans_dir = ROOT / ".perfbench_out"
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline,
                                  spans_dir)
            records.append(record)
            print_report(record)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    prefix = len(records) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + key: {"value": m["value"],
                                                                "unit": m["unit"]}
               for r in records for key, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
