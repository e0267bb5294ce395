"""One fresh process of the benchmark: set up a workload, then run its passes.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
limited to one thread. Prints one JSON object on stdout at the end; the
library's own output is captured inside each pass.

  --mode setup   import ddcrb and ddcrb.cli, build the inputs, report the time
                 and a host-speed probe taken right after
  --mode run     the same, then one untimed warm-up pass and timed passes until
                 --seconds have passed since the warm-up began (at least
                 MIN_TIMED_PASSES); a host-speed probe follows every pass; with
                 --trace 1 the timed passes alternate between untraced and traced
"""

import argparse
import fnmatch
import json
import math
import pathlib
import resource
import sys
import time

# even when one pass outlasts --seconds (table1), its median is over two
MIN_TIMED_PASSES = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="self-test: scale one reference cell by (1 + PERTURB)")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import ddcrb  # noqa: F401
    import ddcrb.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    setup_s = time.perf_counter() - t0
    import environment
    setup_probe = environment.speed_probe()
    setup = {"setup_s": setup_s, "setup_probe_ms": setup_probe,
             "setup_ref_s": environment.at_reference_speed(setup_s, setup_probe)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    env = environment.record(args.seed)
    if env["blas_threads_max"] > env["nproc"]:
        print(f"BLAS uses {env['blas_threads_max']} threads, more than nproc="
              f"{env['nproc']}", file=sys.stderr)
        return 3

    checker = Checker(wl, args.seed, args.perturb)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    def one_pass(traced: bool):
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.reset_counts()
            tracer.install()
            root = tracer.open("pass")
        t0 = time.perf_counter()
        try:
            raw = wl.run(inputs)
            error = None
        except Exception as exc:  # a raising pass is a failed pass, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        cells = wl.cells(raw) if error is None else {}
        problems = [error] if error else checker.check(cells)
        for line in problems[:5]:
            print(f"[{wl.name}] pass failed: {line}", file=sys.stderr)
        summary = tracer.summarize(first_span) if traced else None
        return elapsed, not problems, wl.items(cells), summary

    warmup_s, ok, _, _ = one_pass(False)
    probes = [environment.speed_probe()]
    attempted, failed = 1, int(not ok)
    window_t0 = time.perf_counter() - warmup_s
    plain, plain_probes, traced, items = [], [], [], 0
    while True:
        use_trace = bool(tracer) and len(traced) < len(plain)
        probe_before = probes[-1]
        elapsed, ok, n_items, summary = one_pass(use_trace)
        probes.append(environment.speed_probe())
        attempted += 1
        failed += not ok
        if use_trace:
            traced.append(summary | {"pass_s": elapsed})
        else:
            plain.append(elapsed)
            plain_probes.append(0.5 * (probe_before + probes[-1]))
            items += n_items
        done = len(plain) >= MIN_TIMED_PASSES and (not tracer or len(traced) >= 1)
        typical = sorted(plain)[len(plain) // 2]
        if done and time.perf_counter() - window_t0 + typical > args.seconds:
            break

    env["speed_probe_ms"] = probes
    if wl.rescale_passes:
        plain_ref = list(map(environment.at_reference_speed, plain, plain_probes))
    else:
        plain_ref = plain
    result = setup | {
        "workload": wl.name, "seed": args.seed, "warmup_s": warmup_s,
        "pass_s": plain, "pass_probe_ms": plain_probes, "pass_ref_s": plain_ref,
        "items": items,
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer:
        result["traced"] = traced
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


class Checker:
    """Compares a pass's cells with the snapshot taken at the defining commit.

    Strings, booleans, ints and None must match exactly; floats within
    REL_TOL, which lets rounding-level changes through (BLAS order,
    reassociated sums) and catches any real change of a value. Cells the
    workload marks seed-dependent are compared with the snapshot only at the
    default seed; at other seeds the first pass must pass the workload's
    sanity test and later passes must repeat it.
    """

    REL_TOL = 1e-9

    def __init__(self, wl, seed: int, perturb: float = 0.0):
        import workloads
        path = pathlib.Path(__file__).resolve().parent / "reference" / f"{wl.name}.json"
        self.reference = json.loads(path.read_text())
        self.wl = wl
        self.at_default_seed = seed == workloads.DEFAULT_SEED
        self.first_pass = None
        if perturb:
            key = [k for k in sorted(self.reference)
                   if isinstance(self.reference[k], float) and not self._seeded(k)][-1]
            self.reference[key] *= 1.0 + perturb

    def _seeded(self, key: str) -> bool:
        return any(fnmatch.fnmatchcase(key, pat) for pat in self.wl.seed_dependent)

    def check(self, cells: dict) -> list[str]:
        problems = []
        missing = sorted(set(self.reference) - set(cells))
        extra = sorted(set(cells) - set(self.reference))
        problems += [f"missing cell {k}" for k in missing]
        problems += [f"unexpected cell {k}" for k in extra]
        seeded_first = self.first_pass
        if not self.at_default_seed and seeded_first is None:
            problems += self.wl.sanity(cells)
            self.first_pass = seeded_first = {k: v for k, v in cells.items()
                                              if self._seeded(k)}
        for key in sorted(set(cells) & set(self.reference)):
            if self._seeded(key) and not self.at_default_seed:
                expected = seeded_first[key]
            else:
                expected = self.reference[key]
            if not same(cells[key], expected):
                problems.append(f"{key}: got {cells[key]!r}, expected {expected!r}")
        return problems


def same(got, expected) -> bool:
    if isinstance(got, float) and isinstance(expected, float):
        if math.isnan(got) or math.isnan(expected):
            return math.isnan(got) and math.isnan(expected)
        return got == expected or math.isclose(got, expected, rel_tol=Checker.REL_TOL,
                                               abs_tol=0.0)
    return type(got) is type(expected) and got == expected


if __name__ == "__main__":
    sys.exit(main())
