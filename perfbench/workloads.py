"""The benchmark's four workloads: inputs from a seed, one pass, output cells.

A workload has three parts. `build(seed)` makes the inputs (this is part of
`setup_s`). `run(inputs)` is one timed pass and returns the raw outputs.
`cells(raw)` flattens those outputs, outside the timed region, into a dict of
named cells that is compared against the reference snapshot.

The CLI argument lists are copies of the `RUNS` entries in
`scripts/reproduce_results.py` as they were when this benchmark was defined,
so that the two sides of a comparison run the same work even if that script
changes later.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ddcrb import cli, covariance, fim, overlap, scaled, signals, structure

DEFAULT_SEED = 42

TABLE1 = ["table1", "--amp-convention", "both"]
MONTECARLO = ["montecarlo", "--np", "64", "--delta", "0.25", "--Q", "1",
              "--center", "8", "--width2", "9", "--tau0", "3.0",
              "--f0", "0.3", "--sigma2", "1e-4", "--trials", "500",
              "--fspan", "0.05", "--fpoints", "41"]
SWEEPS = [
    ("sweep_L", ["sweep", "--sweep", "L=1:100"]),
    # truncated pulse: the closed-form structured columns are used outside
    # their containment assumption here (a known defect); the snapshot holds
    # the values as the program computed them at the defining commit
    ("sweep_np", ["sweep", "--sweep", "n_p=10:20", "--Tp", "4", "--Q", "1",
                  "--tau0", "0.5", "--sigma2", "0.1", "--f0", "2.0"]),
    ("sweep_a", ["sweep", "--sweep", "a=0.5:4:0.25"]),
    ("overlap_m16", ["overlap", "--M", "16", "--P", "1", "--sigma2", "1"]),
    ("crb", ["crb"]),
]

# Monte Carlo MSE/bound ratios outside this band mean a broken estimator, not
# an unlucky seed: at 500 trials the ratio's relative spread is about 6 %
MC_RATIO_BAND = (0.5, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]
    run: Callable[[object], object]
    cells: Callable[[object], dict]
    items: Callable[[dict], int]
    # fnmatch patterns of cells whose value depends on the seed; they are
    # compared with the snapshot only at DEFAULT_SEED
    seed_dependent: tuple[str, ...] = ()
    sanity: Callable[[dict], list] = lambda cells: []
    # whether pass times are rescaled to the reference host speed (see
    # environment.speed_probe); a pass of many seconds spans several host
    # phases and averages them itself, so the probes at its ends only add noise
    rescale_passes: bool = True


# One reused buffer: click caches a wrapper per stdout object and keeps the
# object alive, so a fresh buffer per call would leak every output text and
# inflate peak_rss_mb with the number of passes
_STDOUT = io.StringIO()


def _cli_json(args: list[str]) -> tuple[int, str]:
    _STDOUT.seek(0)
    _STDOUT.truncate()
    with contextlib.redirect_stdout(_STDOUT):
        code = cli.main([*args, "--format", "json"])
    return code, _STDOUT.getvalue()


def _cli_cells(prefix: str, code: int, text: str) -> dict:
    out = {f"{prefix}/exit_code": code}
    if code != 0:
        return out
    for i, row in enumerate(json.loads(text)["rows"]):
        for part in ("values", "methods"):
            for key, value in row[part].items():
                out[f"{prefix}/{i}/{part}/{key}"] = value
    return out


def _row_count(cells: dict) -> int:
    return len({tuple(key.split("/")[:2]) for key in cells if key.count("/") == 3})


# ----------------------------------------------------------------- montecarlo

def _mc_items(cells: dict) -> int:
    return int(cells.get("montecarlo/0/values/trials", 0))


def _mc_sanity(cells: dict) -> list[str]:
    lo, hi = MC_RATIO_BAND
    return [f"{key}={value!r} outside [{lo}, {hi}]"
            for key, value in cells.items() if key.endswith("/values/ratio")
            and not (isinstance(value, float) and lo <= value <= hi)]


# --------------------------------------------------------------------- sweeps

def _sweeps_run(runs):
    return [(name, *_cli_json(args)) for name, args in runs]


def _sweeps_cells(raw):
    out = {}
    for name, code, text in raw:
        out.update(_cli_cells(name, code, text))
    return out


# ------------------------------------------------------------- nuisance_bases

@dataclass(frozen=True)
class NuisanceInputs:
    contained: signals.PulseTrain
    truncated: signals.PulseTrain
    samples: signals.SampledSignal
    sc_unit: signals.Scenario
    sc_scaled: signals.Scenario
    overlap_m: int
    sc_overlap: signals.Scenario
    cov_signal: signals.SampledSignal
    sc_cov: signals.Scenario
    sigma_cn: np.ndarray


def _nuisance_build(seed: int) -> NuisanceInputs:
    q = np.arange(200)
    b = np.exp(2j * np.pi * q / 7.0) * (1.0 + 0.5 * np.cos(q))
    # width2 0.5 keeps the pulse inside its 8-unit period (simplified blocks);
    # width2 4 centred at 7 cuts it off at the period edge (general blocks,
    # Gram-matrix nuisance block)
    contained = signals.gaussian_pulse_train(32, 0.25, 4.0, 0.5, b)
    truncated = signals.gaussian_pulse_train(32, 0.25, 7.0, 4.0, b)
    samples = signals.synthesize_pulse_train(
        signals.gaussian_pulse_train(32, 0.25, 4.0, 0.5, b[:24]))
    sc_unit = signals.Scenario(tau0=0.5, f0=2.0, looks_direct=2, looks_reflected=1,
                               sigma_w2=0.1)
    sc_scaled = signals.Scenario(tau0=0.5, f0=2.0, looks_direct=2, looks_reflected=1,
                                 sigma_w2=0.1, scale=1.5)
    sc_overlap = signals.Scenario(tau0=0.0, f0=0.0, looks_direct=1, looks_reflected=1,
                                  sigma_w2=1.0)
    cov_signal = signals.triangle_wave(40, 1.0)
    sc_cov = signals.Scenario(tau0=4.0, f0=0.05, looks_direct=1, looks_reflected=1,
                              sigma_w2=0.5)
    # correlated clutter: exponential correlation along the stacked record
    # plus a seeded random Hermitian PSD part
    dim = 2 * (4 + cov_signal.m)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lag = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    sigma = 0.5 * 0.6 ** lag + 0.05 * (g @ g.conj().T) / dim
    sigma_cn = 0.5 * (sigma + sigma.conj().T)
    return NuisanceInputs(contained, truncated, samples, sc_unit, sc_scaled, 128,
                          sc_overlap, cov_signal, sc_cov, sigma_cn)


def _eliminate(f: fim.FimMatrix):
    scale = float(np.max(np.abs(f.entries[:2, :2])))
    return f, fim.invert_bound_matrix(fim.schur_complement(f, 2), scale)


def _nuisance_run(x: NuisanceInputs):
    out = {}
    for tag, pt in (("contained", x.contained), ("truncated", x.truncated)):
        out[f"known_structure_{tag}"] = _eliminate(
            structure.fim_known_structure(pt, x.sc_unit))
        out[f"unknown_a_structure_{tag}"] = _eliminate(
            scaled.fim_unknown_a(pt, x.sc_scaled, structure=True))
    out["unknown_a_samples"] = _eliminate(scaled.fim_unknown_a(x.samples, x.sc_scaled))
    out["overlap"] = overlap.triangle_overlap_curve(x.overlap_m, x.sc_overlap)
    model = covariance.build_stacked(x.cov_signal, x.sc_cov, x.sigma_cn)
    out["covariance"] = covariance.crb_correlated(
        model, covariance.dc_list(model, x.cov_signal, x.sc_cov))
    return out


def _nuisance_cells(raw) -> dict:
    out = {}
    for name, value in raw.items():
        if name == "overlap":
            for row in value:
                for key in ("crb_tau0", "singular", "method", "regime"):
                    out[f"overlap/{row['n0']}/{key}"] = row[key]
        elif name == "covariance":
            out["covariance/singular"] = value.singular
            out["covariance/method"] = value.method
            out["covariance/null_directions"] = value.details["null_directions"]
            for key, v in value.values.items():
                out[f"covariance/{key}"] = float(v)
        else:
            f, inv = value
            out[f"{name}/dim"] = f.dim
            out[f"{name}/blocks"] = f.meta.get("blocks", "")
            out[f"{name}/singular"] = inv is None
            if inv is not None:
                out[f"{name}/tau0"] = float(inv[0, 0])
                out[f"{name}/f0"] = float(inv[1, 1])
    return out


def _nuisance_items(cells: dict) -> int:
    return len({key.rsplit("/", 1)[0] for key in cells
                if key.endswith("/singular")})


def _nuisance_sanity(cells: dict) -> list[str]:
    bad = [f"{key}={value!r} not positive finite" for key, value in cells.items()
           if key in ("covariance/tau0", "covariance/f0")
           and not (math.isfinite(value) and value > 0)]
    if cells.get("covariance/singular") is not False:
        bad.append("covariance/singular is not False")
    return bad


WORKLOADS = {
    w.name: w for w in (
        Workload("table1", build=lambda seed: TABLE1, run=_cli_json,
                 cells=lambda raw: _cli_cells("table1", *raw), items=_row_count,
                 rescale_passes=False),
        Workload("montecarlo", build=lambda seed: [*MONTECARLO, "--seed", str(seed)],
                 run=_cli_json, cells=lambda raw: _cli_cells("montecarlo", *raw),
                 items=_mc_items,
                 seed_dependent=("montecarlo/*/values/empirical_mse",
                                 "montecarlo/*/values/ratio",
                                 "montecarlo/*/values/seed"),
                 sanity=_mc_sanity),
        Workload("sweeps", build=lambda seed: SWEEPS, run=_sweeps_run,
                 cells=_sweeps_cells, items=_row_count),
        Workload("nuisance_bases", build=_nuisance_build, run=_nuisance_run,
                 cells=_nuisance_cells, items=_nuisance_items,
                 seed_dependent=("covariance/*",), sanity=_nuisance_sanity),
    )
}
