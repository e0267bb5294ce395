"""Command-line surface: bound tables, sweeps, overlap curves, Monte Carlo.

Subcommands emit machine-readable CSV or JSON rows. JSON output is an
object {config, rows, provenance} where every numeric cell carries a method
tag (closed_form | schur_numeric | oracle | monte_carlo); CSV carries the
same values. Exit codes: 0 success (singularity-flagged rows are data, not
errors), 1 usage error, 2 I/O error.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .bounds import fim_unknown_signal, signal_bounds
from .fim import (METHOD_CLOSED_FORM, METHOD_MONTE_CARLO, METHOD_SCHUR_NUMERIC,
                  invert_bound_matrix, schur_complement_2x2)
from .overlap import triangle_overlap_curve
from .scaled import jcrb_structure_known_a
from .signals import (PulseTrain, SampledSignal, Scenario, gaussian_pulse_train,
                      synthesize_pulse_train, triangle_wave)
from .verify import McConfig, monte_carlo_report

DEFAULTS = {
    "signal": "gaussian_pulse_train",
    "delta": 0.01,
    "np": 500,
    "Q": 2,
    "Tp": None,
    "tau0": 0.05,
    "f0": 20.0,
    "L": 1,
    "P": 1,
    "a": 1.0,
    "sigma2": 1.0,
    "amp_convention": "unit",
    "center": 4.0,
    "width2": 9.0,
    "M": 16,
    "format": "csv",
    "out": None,
    "seed": 42,
    "trials": 200,
    "sweep": None,
    "fspan": 0.05,
    "fpoints": 41,
    "tauspan": 5,
}

SWEEP_AXES = ("L", "P", "n_p", "n0", "a", "sigma_w2")
# the scenario field each single-field sweep axis sets (n0 sets tau0 = n0 delta)
_SWEEP_FIELDS = {"P": "looks_reflected", "n0": "tau0", "a": "scale", "sigma_w2": "sigma_w2"}


@contextlib.contextmanager
def _usage_errors():
    """Report a model constructor's ValueError (bad flag value) as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@dataclass
class RunConfig:
    """Merged defaults, config-file values and explicit flags for one run."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def scenario(self, **overrides) -> Scenario:
        params = {
            "tau0": self["tau0"], "f0": self["f0"],
            "looks_direct": int(self["L"]), "looks_reflected": int(self["P"]),
            "sigma_w2": self["sigma2"], "scale": self["a"],
        }
        params.update(overrides)
        with _usage_errors():
            return Scenario(**params)


def _amp_values(convention: str, q_pulses: int) -> np.ndarray:
    """Pulse amplitudes: |b_q|^2 = 1 (unit) or 2 (sqrt2), equal phases."""
    if convention == "unit":
        b = (1.0 + 1.0j) / np.sqrt(2.0)
    elif convention == "sqrt2":
        b = 1.0 + 1.0j
    else:
        raise click.UsageError(f"unknown amplitude convention {convention!r}")
    return np.full(q_pulses, b, dtype=complex)


def _resolve_delta(cfg: RunConfig, explicit: dict) -> float:
    """Sampling interval, optionally derived from a fixed pulse period."""
    t_p = cfg["Tp"]
    if t_p is None:
        return float(cfg["delta"])
    derived = float(t_p) / int(cfg["np"])
    if explicit.get("delta") is not None and abs(explicit["delta"] - derived) > 1e-12:
        raise click.UsageError("--delta conflicts with --Tp/--np; give only one")
    return derived


def _load_signal_file(path: str) -> SampledSignal:
    if path.endswith(".npz"):
        data = np.load(path)
        samples = np.asarray(data["samples"], dtype=complex)
        delta = float(data["delta"])
        if "deriv" in data:
            return SampledSignal(samples, delta, np.asarray(data["deriv"], complex))
        return SampledSignal.from_samples(samples, delta)
    with open(path) as fh:
        data = json.load(fh)
    samples = np.asarray(data["samples_real"], float) \
        + 1j * np.asarray(data.get("samples_imag", np.zeros(len(data["samples_real"]))), float)
    delta = float(data["delta"])
    if "deriv_real" in data:
        deriv = np.asarray(data["deriv_real"], float) \
            + 1j * np.asarray(data.get("deriv_imag", np.zeros(len(data["deriv_real"]))), float)
        return SampledSignal(samples, delta, deriv)
    return SampledSignal.from_samples(samples, delta)


def build_signal(cfg: RunConfig, delta: float,
                 convention: str | None = None) -> tuple[SampledSignal, PulseTrain | None]:
    """Signal selected by the config: pulse train, triangle, or file."""
    kind = cfg["signal"]
    with _usage_errors():
        if kind == "gaussian_pulse_train":
            b = _amp_values(convention or cfg["amp_convention"], int(cfg["Q"]))
            pt = gaussian_pulse_train(int(cfg["np"]), delta, cfg["center"], cfg["width2"], b)
            return synthesize_pulse_train(pt), pt
        if kind == "triangle":
            return triangle_wave(int(cfg["M"]), delta), None
        return _load_signal_file(kind), None


def _pair_columns(pairs) -> tuple[dict, list[str]]:
    """Columns for (tau_key, f_key, BoundPair) triples; singular pairs flagged, None."""
    row, flagged = {}, []
    for tau_key, f_key, pair in pairs:
        if pair.singular:
            row.update({tau_key: None, f_key: None})
            flagged += [tau_key, f_key]
        else:
            row.update({tau_key: pair.tau0, f_key: pair.f0})
    return row, flagged


def write_rows(rows: list[dict], methods: list[dict], cfg: RunConfig,
               fmt: str, out: str | None, seed) -> None:
    """Emit rows as CSV (values only) or JSON (values plus method tags)."""
    if fmt == "json":
        payload = {
            # the output path does not affect any value; leaving it out keeps
            # re-runs byte-identical wherever they are written
            "config": {k: cfg.values[k] for k in sorted(cfg.values, key=str)
                       if k != "out"},
            "rows": [{"values": row, "methods": tags}
                     for row, tags in zip(rows, methods)],
            "provenance": {"version": __version__, "seed": seed},
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if row[k] is None else row[k] for k in header])
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def common_options(fn):
    options = [
        click.option("--config", "config_path", type=str, default=None,
                     help="JSON config file; flags override its keys."),
        click.option("--signal", default=None,
                     help="gaussian_pulse_train | triangle | path to .npz/.json"),
        click.option("--delta", type=float, default=None, help="sampling interval"),
        click.option("--np", "n_p", type=int, default=None, help="samples per pulse"),
        click.option("--Q", "q_pulses", type=int, default=None, help="pulse count"),
        click.option("--Tp", "t_p", type=float, default=None,
                     help="pulse period; sets delta = Tp/np"),
        click.option("--tau0", type=float, default=None, help="reflected-path delay"),
        click.option("--f0", type=float, default=None, help="Doppler shift"),
        click.option("--L", "looks_l", type=int, default=None, help="direct-path looks"),
        click.option("--P", "looks_p", type=int, default=None, help="reflected-path looks"),
        click.option("--a", "scale_a", type=float, default=None,
                     help="reflected-path amplitude scale"),
        click.option("--sigma2", type=float, default=None,
                     help="clutter-plus-noise variance"),
        click.option("--amp-convention", "amp_convention",
                     type=click.Choice(["unit", "sqrt2", "both"]), default=None,
                     help="|b_q|^2 = 1, 2, or emit both"),
        click.option("--center", type=float, default=None, help="Gaussian pulse center"),
        click.option("--width2", type=float, default=None, help="Gaussian squared width"),
        click.option("--M", "m_samples", type=int, default=None,
                     help="triangle-wave sample count"),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None),
        click.option("--out", type=str, default=None, help="output path (default stdout)"),
        click.option("--seed", type=int, default=None, help="base RNG seed"),
        click.option("--trials", type=int, default=None, help="Monte Carlo trials"),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


_FLAG_KEYS = {
    "signal": "signal", "delta": "delta", "n_p": "np", "q_pulses": "Q",
    "t_p": "Tp", "tau0": "tau0", "f0": "f0", "looks_l": "L", "looks_p": "P",
    "scale_a": "a", "sigma2": "sigma2", "amp_convention": "amp_convention",
    "center": "center", "width2": "width2", "m_samples": "M", "fmt": "format",
    "out": "out", "seed": "seed", "trials": "trials", "sweep": "sweep",
    "fspan": "fspan", "fpoints": "fpoints", "tauspan": "tauspan",
}


def merge_config(config_path: str | None, **flags) -> tuple[RunConfig, dict]:
    merged = dict(DEFAULTS)
    if config_path:
        with open(config_path) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    explicit = {}
    for param, key in _FLAG_KEYS.items():
        if param in flags and flags[param] is not None:
            merged[key] = flags[param]
            explicit[key] = flags[param]
    return RunConfig(merged), explicit


@click.group()
def cli():
    """Delay/Doppler estimation bounds for unknown transmitted signals."""


@cli.command("crb")
@common_options
def cmd_crb(config_path, **flags):
    """One-shot bound evaluation for the configured scenario."""
    cfg, explicit = merge_config(config_path, **flags)
    delta = _resolve_delta(cfg, explicit)
    conventions = ["unit", "sqrt2"] if (cfg["amp_convention"] == "both"
                                        and cfg["signal"] == "gaussian_pulse_train") \
        else [cfg["amp_convention"]]
    rows, methods = [], []
    for convention in conventions:
        sig, pt = build_signal(cfg, delta, convention)
        sc = cfg.scenario()
        row = {"amp_convention": convention if pt is not None else None,
               "L": sc.looks_direct, "P": sc.looks_reflected, "a": sc.scale,
               "sigma_w2": sc.sigma_w2, "tau0": sc.tau0, "f0": sc.f0}
        cols, flagged = _pair_columns(_bound_pairs(sig, pt, sc))
        row.update(cols)
        row["singular"] = ";".join(flagged)
        rows.append(row)
        methods.append({k: METHOD_CLOSED_FORM for k in row
                        if k.startswith(("jcrb", "crb"))})
    write_rows(rows, methods, cfg, cfg["format"], cfg["out"], cfg["seed"])


def _schur_pair(sig: SampledSignal, sc: Scenario):
    fim = fim_unknown_signal(sig, sc)
    scale = float(np.max(np.abs(fim.submatrix(("tau0", "f0")))))
    inv = invert_bound_matrix(schur_complement_2x2(fim), scale)
    if inv is None:
        return None, None
    return float(inv[0, 0]), float(inv[1, 1])


@cli.command("table1")
@common_options
def cmd_table1(config_path, **flags):
    """Unknown- vs known-signal bounds for L in {1, 2, 100}, P = 1.

    Each row carries the closed-form bounds, the same bounds recomputed by
    numerically eliminating the 2M signal parameters from the full FIM, and
    the unknown/known ratio, which equals (L+P)/(L*P).
    """
    cfg, explicit = merge_config(config_path, **flags)
    delta = _resolve_delta(cfg, explicit)
    conventions = ["unit", "sqrt2"] if cfg["amp_convention"] == "both" \
        else [cfg["amp_convention"]]
    if cfg["signal"] != "gaussian_pulse_train":
        raise click.UsageError("table1 is defined for the gaussian_pulse_train signal")
    rows, methods = [], []
    for convention in conventions:
        sig, _ = build_signal(cfg, delta, convention)
        for looks in (1, 2, 100):
            sc = cfg.scenario(looks_direct=looks, looks_reflected=1, scale=1.0)
            known, unknown, _ = signal_bounds(sig, sc)
            schur_tau, schur_f = _schur_pair(sig, sc)
            rows.append({
                "amp_convention": convention,
                "L": looks,
                "jcrb_tau0_s": unknown.tau0,
                "jcrb_tau0": known.tau0,
                "jcrb_f0_s": unknown.f0,
                "jcrb_f0": known.f0,
                "jcrb_tau0_s_schur": schur_tau,
                "jcrb_f0_s_schur": schur_f,
                "ratio_tau0": unknown.tau0 / known.tau0,
                "ratio_f0": unknown.f0 / known.f0,
            })
            methods.append({k: METHOD_SCHUR_NUMERIC if k.endswith("_schur")
                            else METHOD_CLOSED_FORM for k in rows[-1]
                            if k.startswith(("jcrb", "ratio"))})
    write_rows(rows, methods, cfg, cfg["format"], cfg["out"], cfg["seed"])


def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    try:
        axis, rng = spec.split("=", 1)
        parts = rng.split(":")
        start, stop = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) > 2 else 1.0
    except (ValueError, IndexError) as exc:
        raise click.UsageError(f"bad sweep spec {spec!r}; use axis=start:stop[:step]") from exc
    axis = {"np": "n_p"}.get(axis, axis)
    if axis not in SWEEP_AXES:
        raise click.UsageError(f"sweep axis must be one of {SWEEP_AXES}")
    if step <= 0 or stop < start:
        raise click.UsageError("sweep range must be nonempty with positive step")
    values = np.arange(start, stop + step / 2, step)
    if axis in ("L", "P", "n_p", "n0"):
        values = values.astype(int)
    # the counts have a least value; a and sigma_w2 must be positive
    low = {"n_p": 1, "L": 0, "P": 0, "n0": 0}.get(axis)
    if (values[0] < low) if low is not None else (values[0] <= 0):
        need = f"at least {low}" if low is not None else "positive"
        raise click.UsageError(f"sweep axis {axis} must be {need}; got {values[0]}")
    return axis, values


def _bound_pairs(sig, pt, sc) -> list:
    """(tau_key, f_key, BoundPair) for the known-signal, unknown-signal
    joint and separate, and known-structure bounds. The known-signal
    reference is the single-look bound at the scenario's reflected scale,
    so the unknown/known ratio is the look factor exactly."""
    known, joint, separate = signal_bounds(sig, sc)
    pairs = [("jcrb_tau0", "jcrb_f0", known.scaled(1.0 / sc.scale ** 2)),
             ("jcrb_tau0_s", "jcrb_f0_s", joint), ("crb_tau0_s", "crb_f0_s", separate)]
    if pt is not None:
        pairs.append(("jcrb_tau0_b", "jcrb_f0_b", jcrb_structure_known_a(pt, sc)))
    return pairs


def _bound_triplet(sig, pt, sc) -> tuple[dict, list[str]]:
    """Known, unknown-signal, and known-structure bound columns."""
    row, flagged = _pair_columns(p for p in _bound_pairs(sig, pt, sc)
                                 if p[0] != "crb_tau0_s")
    if pt is None:
        row.update(jcrb_tau0_b=None, jcrb_f0_b=None)
    return row, flagged


@cli.command("sweep")
@click.option("--sweep", "sweep", type=str, default=None,
              help="axis=start:stop[:step]; axis in L|P|n_p|n0|a|sigma_w2")
@common_options
def cmd_sweep(config_path, sweep, **flags):
    """Bound curves along one swept axis.

    The L axis emits both the P=1 and the P=L families; the n_p axis
    rebuilds the pulse train per point (with delta = Tp/np when --Tp is
    given); other axes vary one scenario field.
    """
    cfg, explicit = merge_config(config_path, sweep=sweep, **flags)
    if not cfg["sweep"]:
        raise click.UsageError("sweep requires --sweep axis=start:stop[:step]")
    axis, values = _parse_sweep(cfg["sweep"])
    if axis != "n_p":
        # only the n_p axis changes the signal
        delta = _resolve_delta(cfg, explicit)
        sig, pt = build_signal(cfg, delta)
    rows, methods = [], []
    for value in values:
        if axis == "n_p":
            n_p = int(value)
            delta = float(cfg["Tp"]) / n_p if cfg["Tp"] is not None else float(cfg["delta"])
            local = RunConfig({**cfg.values, "np": n_p, "delta": delta})
            sig, pt = build_signal(local, delta)
            sc = local.scenario()
            row = {"n_p": n_p, "delta": delta}
            cols, flagged = _bound_triplet(sig, pt, sc)
        elif axis == "L":
            looks = int(value)
            row = {"L": looks}
            cols, flagged = {}, []
            for tag, p_val in (("p1", 1), ("pl", max(looks, 1))):
                sc = cfg.scenario(looks_direct=looks, looks_reflected=p_val)
                sub, bad = _bound_triplet(sig, pt, sc)
                if tag == "p1":
                    # the known-signal pair does not depend on the looks
                    cols.update(jcrb_tau0=sub["jcrb_tau0"], jcrb_f0=sub["jcrb_f0"])
                    flagged += [k for k in bad if k in cols]
                for key in ("jcrb_tau0_s", "jcrb_f0_s", "jcrb_tau0_b", "jcrb_f0_b"):
                    cols[f"{key}_{tag}"] = sub[key]
                flagged += [f"{k}_{tag}" for k in bad if k not in ("jcrb_tau0", "jcrb_f0")]
        else:
            point = value.item()
            row = {axis: point}
            if axis == "n0":
                row["tau0"] = point = point * delta
            sc = cfg.scenario(**{_SWEEP_FIELDS[axis]: point})
            cols, flagged = _bound_triplet(sig, pt, sc)
        row.update(cols)
        row["singular"] = ";".join(flagged)
        rows.append(row)
        methods.append({k: METHOD_CLOSED_FORM for k in cols})
    write_rows(rows, methods, cfg, cfg["format"], cfg["out"], cfg["seed"])


@cli.command("overlap")
@common_options
def cmd_overlap(config_path, **flags):
    """Delay bound versus overlap offset for the triangle wave."""
    cfg, _ = merge_config(config_path, **flags)
    m = int(cfg["M"])
    sc = cfg.scenario()
    # triangle_overlap_curve raises ValueError only for bad input, such as an odd M
    with _usage_errors():
        rows = triangle_overlap_curve(m, sc)
    out_rows, methods = [], []
    for row in rows:
        out_rows.append({"M": m, "n0": row["n0"], "crb_tau0": row["crb_tau0"],
                         "singular": row["singular"], "regime": row["regime"],
                         "crb_non": row["crb_non"]})
        methods.append({"crb_tau0": row["method"], "crb_non": METHOD_CLOSED_FORM})
    write_rows(out_rows, methods, cfg, cfg["format"], cfg["out"], cfg["seed"])


@cli.command("montecarlo")
@click.option("--fspan", type=float, default=None, help="Doppler search half-span")
@click.option("--fpoints", type=int, default=None, help="Doppler grid size")
@click.option("--tauspan", type=int, default=None, help="delay search half-span, samples")
@common_options
def cmd_montecarlo(config_path, **flags):
    """Empirical estimator MSE against the bounds (deterministic by seed)."""
    cfg, explicit = merge_config(config_path, **flags)
    if cfg["a"] != 1.0:
        raise click.UsageError("montecarlo profiles the signal with a = 1; --a must be 1")
    delta = _resolve_delta(cfg, explicit)
    sig, _ = build_signal(cfg, delta)
    with _usage_errors():
        # an off-grid --tau0 is an error, not snapped to the sample grid
        n0 = cfg.scenario().delay_samples(delta)
        span = int(cfg["tauspan"])
        tau_lo = max(0, n0 - span)
        sc = cfg.scenario(tau0=n0 * delta, record_length=n0 + span + sig.m)
        f_grid = np.linspace(cfg["f0"] - cfg["fspan"], cfg["f0"] + cfg["fspan"],
                             int(cfg["fpoints"]))
        mc = McConfig(trials=int(cfg["trials"]), seed=int(cfg["seed"]),
                      tau_grid=tuple(range(tau_lo, n0 + span + 1)),
                      f_grid=tuple(f_grid))
        mc.check_covers(n0, sc.f0)
    report = monte_carlo_report(sig, sc, mc)
    rows, methods = [], []
    for row in report.rows:
        rows.append({"parameter": row["parameter"], "estimator": row["estimator"],
                     "empirical_mse": row["empirical_mse"], "bound": row["bound"],
                     "ratio": row["ratio"], "trials": report.trials,
                     "seed": report.seed, "singular": row["singular"]})
        methods.append({"empirical_mse": METHOD_MONTE_CARLO, "bound": METHOD_CLOSED_FORM,
                        "ratio": METHOD_MONTE_CARLO})
    write_rows(rows, methods, cfg, cfg["format"], cfg["out"], cfg["seed"])


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
