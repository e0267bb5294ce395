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
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .bounds import fim_unknown_signal, signal_bounds
from .fim import (METHOD_CLOSED_FORM, METHOD_MONTE_CARLO, METHOD_SCHUR_NUMERIC,
                  invert_bound_matrix, schur_complement)
from .overlap import triangle_overlap_curve
from .scaled import jcrb_structure_known_a
from .signals import (PulseTrain, SampledSignal, Scenario, gaussian_pulse_train,
                      synthesize_pulse_train, triangle_wave)
from .verify import McConfig, monte_carlo_report


class _FiniteFloat(click.types.FloatParamType):
    """A float setting; inf and nan are usage errors."""

    def convert(self, value, param, ctx):
        out = super().convert(value, param, ctx)
        if not math.isfinite(out):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return out


FLOAT = _FiniteFloat()

# One row per setting: (flag, config key, click type, default, help). The
# config key is also the click parameter name and the key in the JSON
# output's config block; "all" rows go to every subcommand.
OPTIONS = {
    "all": (
        ("--signal", "signal", str, "gaussian_pulse_train",
         "gaussian_pulse_train | triangle | path to .npz/.json"),
        ("--delta", "delta", FLOAT, 0.01, "sampling interval"),
        ("--np", "np", int, 500, "samples per pulse"),
        ("--Q", "Q", int, 2, "pulse count"),
        ("--Tp", "Tp", FLOAT, None, "pulse period; sets delta = Tp/np"),
        ("--tau0", "tau0", FLOAT, 0.05, "reflected-path delay"),
        ("--f0", "f0", FLOAT, 20.0, "Doppler shift"),
        ("--L", "L", int, 1, "direct-path looks"),
        ("--P", "P", int, 1, "reflected-path looks"),
        ("--a", "a", FLOAT, 1.0, "reflected-path amplitude scale"),
        ("--sigma2", "sigma2", FLOAT, 1.0, "clutter-plus-noise variance"),
        ("--amp-convention", "amp_convention", click.Choice(["unit", "sqrt2", "both"]),
         "unit", "|b_q|^2 = 1, 2, or emit both (crb and table1 only)"),
        ("--center", "center", FLOAT, 4.0, "Gaussian pulse center"),
        ("--width2", "width2", FLOAT, 9.0, "Gaussian squared width"),
        ("--M", "M", int, 16, "triangle-wave sample count"),
        ("--format", "format", click.Choice(["csv", "json"]), "csv", None),
        ("--out", "out", str, None, "output path (default stdout)"),
        ("--seed", "seed", int, 42, "base RNG seed"),
        ("--trials", "trials", int, 200, "Monte Carlo trials"),
    ),
    "sweep": (
        ("--sweep", "sweep", str, None,
         "axis=start:stop[:step]; axis in L|P|n_p|n0|a|sigma_w2"),
    ),
    "montecarlo": (
        ("--fspan", "fspan", FLOAT, 0.05, "Doppler search half-span"),
        ("--fpoints", "fpoints", int, 41, "Doppler grid size"),
        ("--tauspan", "tauspan", int, 5, "delay search half-span, samples"),
    ),
}
_CONFIG_OPTION = ("--config", "config_path", str, None,
                  "JSON config file; flags override its keys.")
DEFAULTS = {key: default for rows in OPTIONS.values() for _, key, _, default, _ in rows}
_TYPES = {key: click.types.convert_type(kind)
          for rows in OPTIONS.values() for _, key, kind, _, _ in rows}

SWEEP_AXES = ("L", "P", "n_p", "n0", "a", "sigma_w2")
# every point is a row of output; a longer sweep is taken to be a typo
SWEEP_MAX_POINTS = 100_000
# the overlap curve costs O(M^2) (about 2.4 s at M = 8192) and prints M + 1 rows
OVERLAP_MAX_M = 8192
# Monte Carlo work grows with each of these settings (500 trials of the
# default grid take tens of milliseconds); a larger value is taken to be a typo
MONTECARLO_MAX = {"trials": 1_000_000, "fpoints": 10_000, "tauspan": 10_000}
# the scenario field each single-field sweep axis sets (n0 sets tau0 = n0 delta)
_SWEEP_FIELDS = {"P": "looks_reflected", "n0": "tau0", "a": "scale", "sigma_w2": "sigma_w2"}


@contextlib.contextmanager
def _usage_errors():
    """Report a model constructor's ValueError (bad flag value) as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _check_caps(cfg, caps: dict) -> None:
    """Usage error for any setting above its cap in caps ({config key: cap})."""
    for key, cap in caps.items():
        if cfg[key] > cap:
            raise click.UsageError(f"--{key} {cfg[key]} is above the cap of {cap}")


@dataclass
class RunConfig:
    """Merged defaults, config-file values and explicit flags for one run."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def scenario(self, **overrides) -> Scenario:
        params = {
            "tau0": self["tau0"], "f0": self["f0"],
            "looks_direct": self["L"], "looks_reflected": self["P"],
            "sigma_w2": self["sigma2"], "scale": self["a"],
        }
        params.update(overrides)
        with _usage_errors():
            return Scenario(**params)


# pulse amplitude b_q per convention: |b_q|^2 = 1 (unit) or 2 (sqrt2), equal phases
_AMPLITUDES = {"unit": (1.0 + 1.0j) / np.sqrt(2.0), "sqrt2": 1.0 + 1.0j}


def _resolve_delta(cfg: RunConfig, given: dict) -> float:
    """Sampling interval, optionally derived from a fixed pulse period."""
    if cfg["Tp"] is None:
        return cfg["delta"]
    derived = cfg["Tp"] / cfg["np"]
    if "delta" in given and abs(given["delta"] - derived) > 1e-12:
        raise click.UsageError("--delta conflicts with --Tp/--np; give only one")
    return derived


def _load_signal_file(path: str) -> SampledSignal:
    """Samples, delta and optional derivative from a .npz file (complex
    arrays) or a .json file (one object of real and optional imaginary
    parts)."""
    if path.endswith(".npz"):
        data, part = np.load(path), ""
    else:
        with open(path) as fh:
            try:
                data, part = json.load(fh), "_real"
            except ValueError as exc:
                raise click.UsageError(f"signal file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise click.UsageError(f"signal file {path} must hold one JSON object")
    for key in ("samples" + part, "delta"):
        if key not in data:
            raise click.UsageError(f"signal file {path} has no {key!r}")

    def array(key, dtype, ndim):
        try:
            arr = np.asarray(data[key], dtype)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != ndim:
            shape = "a number" if ndim == 0 else "a 1-D array of numbers"
            raise click.UsageError(f"signal file {path}: {key!r} must be {shape}")
        return arr

    def values(name):
        if not part:
            return array(name, complex, 1)
        real = array(name + part, float, 1)
        imag = array(name + "_imag", float, 1) if name + "_imag" in data else np.zeros(real.shape)
        if imag.shape != real.shape:
            raise click.UsageError(f"signal file {path}: {name + '_imag'!r} and "
                                   f"{name + part!r} differ in length")
        return real + 1j * imag

    samples, delta = values("samples"), float(array("delta", float, 0))
    if "deriv" + part in data:
        return SampledSignal(samples, delta, values("deriv"))
    return SampledSignal.from_samples(samples, delta)


def build_signal(cfg: RunConfig, delta: float,
                 convention: str | None = None) -> tuple[SampledSignal, PulseTrain | None]:
    """Signal selected by the config: pulse train, triangle, or file."""
    kind = cfg["signal"]
    with _usage_errors():
        if kind == "gaussian_pulse_train":
            convention = convention or cfg["amp_convention"]
            if convention not in _AMPLITUDES:
                # crb and table1 pass each convention of "both" in turn
                raise click.UsageError("--amp-convention both is expanded only by crb and "
                                       "table1; give unit or sqrt2")
            b = np.full(cfg["Q"], _AMPLITUDES[convention], dtype=complex)
            pt = gaussian_pulse_train(cfg["np"], delta, cfg["center"], cfg["width2"], b)
            return synthesize_pulse_train(pt), pt
        if kind == "triangle":
            return triangle_wave(cfg["M"], delta), None
        return _load_signal_file(kind), None


def _pair_columns(pairs: dict) -> tuple[dict, list[str]]:
    """Columns for {key pattern: BoundPair}, where {} in the pattern is tau0
    or f0; a singular pair gives None cells and is flagged, a None pair
    gives None cells."""
    row, flagged = {}, []
    for pattern, pair in pairs.items():
        keys = pattern.format("tau0"), pattern.format("f0")
        if pair is None or pair.singular:
            row.update(dict.fromkeys(keys))
            if pair is not None:
                flagged += keys
        else:
            row.update(zip(keys, (pair.tau0, pair.f0)))
    return row, flagged


# one compact C encoder per indent depth of write_rows' flat dicts: its item
# separator carries the newline and indent that json.dumps(indent=2) puts there
_JSON_ITEM_ENCODERS = {depth: json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))
                       for depth in (1, 3)}


def _json_flat_dict(d: dict, depth: int) -> str:
    """json.dumps(d, indent=2) of a dict of scalars, as nested depth deep."""
    if not d:
        return "{}"
    inner = _JSON_ITEM_ENCODERS[depth].encode(d)[1:-1]
    return "{\n" + "  " * (depth + 1) + inner + "\n" + "  " * depth + "}"


def _rows_json(config: dict, rows: list[dict], methods: list[dict],
               provenance: dict) -> str:
    """json.dumps(indent=2) of write_rows' payload, byte for byte.

    Every dict of the payload (config, provenance, each row's values and
    methods) holds scalars only, so each goes through the C encoder whole
    and only the brackets around them are written here.
    """
    items = [f'    {{\n      "values": {_json_flat_dict(row, 3)},\n'
             f'      "methods": {_json_flat_dict(tags, 3)}\n    }}'
             for row, tags in zip(rows, methods)]
    rows_text = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
    return (f'{{\n  "config": {_json_flat_dict(config, 1)},\n  "rows": {rows_text},\n'
            f'  "provenance": {_json_flat_dict(provenance, 1)}\n}}')


def write_rows(rows: list[dict], methods: list[dict], cfg: RunConfig) -> None:
    """Emit rows as CSV (values only) or JSON (values plus method tags)."""
    if cfg["format"] == "json":
        # the output path does not affect any value; leaving it out keeps
        # re-runs byte-identical wherever they are written
        config = {k: cfg.values[k] for k in sorted(cfg.values, key=str) if k != "out"}
        text = _rows_json(config, rows, methods,
                          {"version": __version__, "seed": cfg["seed"]}) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if row[k] is None else row[k] for k in header])
        text = buf.getvalue()
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _read_config(path: str) -> dict:
    """Config-file values, each converted as if typed after its flag; null
    counts as omitted."""
    with open(path) as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            raise click.UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise click.UsageError(f"config file {path} must hold one JSON object")
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    given = {}
    for key, value in values.items():
        if value is not None:
            try:
                given[key] = _TYPES[key].convert(str(value), None, None)
            except click.BadParameter as exc:
                raise click.UsageError(f"config key {key!r}: {exc.message}") from exc
    return given


def merge_config(config_path: str | None, **flags) -> tuple[RunConfig, dict]:
    """Defaults overridden by the config file, then by explicit flags; the
    second result holds the settings the file or a flag gave."""
    given = _read_config(config_path) if config_path else {}
    given.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig({**DEFAULTS, **given}), given


@click.group()
def cli():
    """Delay/Doppler estimation bounds for unknown transmitted signals."""


def _command(name: str):
    """A subcommand whose options are its own OPTIONS rows, --config, then
    the rows every subcommand takes."""
    rows = (*OPTIONS.get(name, ()), _CONFIG_OPTION, *OPTIONS["all"])

    def decorate(fn):
        for flag, key, kind, _, text in reversed(rows):
            fn = click.option(flag, key, type=kind, default=None, help=text)(fn)
        return cli.command(name)(fn)
    return decorate


@_command("crb")
def cmd_crb(config_path, **flags):
    """One-shot bound evaluation for the configured scenario."""
    cfg, given = merge_config(config_path, **flags)
    delta = _resolve_delta(cfg, given)
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
        # a signal without pulse structure has no known-structure columns
        cols, flagged = _pair_columns({key: pair for key, pair
                                       in _bound_pairs(sig, pt, sc).items() if pair is not None})
        row.update(cols)
        row["singular"] = ";".join(flagged)
        rows.append(row)
        methods.append({k: METHOD_CLOSED_FORM for k in row
                        if k.startswith(("jcrb", "crb"))})
    write_rows(rows, methods, cfg)


def _schur_pair(sig: SampledSignal, sc: Scenario):
    fim = fim_unknown_signal(sig, sc)
    scale = float(np.max(np.abs(fim.submatrix(("tau0", "f0")))))
    inv = invert_bound_matrix(schur_complement(fim), scale)
    if inv is None:
        return None, None
    return float(inv[0, 0]), float(inv[1, 1])


@_command("table1")
def cmd_table1(config_path, **flags):
    """Unknown- vs known-signal bounds for L in {1, 2, 100}, P = 1.

    Each row carries the closed-form bounds, the same bounds recomputed by
    numerically eliminating the 2M signal parameters from the full FIM, and
    the unknown/known ratio, which equals (L+P)/(L*P).
    """
    cfg, given = merge_config(config_path, **flags)
    delta = _resolve_delta(cfg, given)
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
            rows.append({"amp_convention": convention, "L": looks,
                         "jcrb_tau0_s": unknown.tau0, "jcrb_tau0": known.tau0,
                         "jcrb_f0_s": unknown.f0, "jcrb_f0": known.f0,
                         "jcrb_tau0_s_schur": schur_tau, "jcrb_f0_s_schur": schur_f,
                         "ratio_tau0": unknown.tau0 / known.tau0,
                         "ratio_f0": unknown.f0 / known.f0})
            methods.append({k: METHOD_SCHUR_NUMERIC if k.endswith("_schur")
                            else METHOD_CLOSED_FORM for k in rows[-1]
                            if k.startswith(("jcrb", "ratio"))})
    write_rows(rows, methods, cfg)


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
    bounds = (start, stop, step)
    if not all(map(math.isfinite, bounds)):
        raise click.UsageError(f"sweep range must be finite; got {spec!r}")
    counts = axis in ("L", "P", "n_p", "n0")
    if counts and any(x != int(x) for x in bounds):
        raise click.UsageError(f"sweep axis {axis} counts samples or looks; its "
                               f"start, stop and step must be integers")
    if step <= 0 or stop < start:
        raise click.UsageError("sweep range must be nonempty with positive step")
    # counted before np.arange allocates them; (stop - start) / step may be inf
    points = (stop - start) / step + 1.0
    if points > SWEEP_MAX_POINTS:
        raise click.UsageError(f"sweep {spec!r} has about {points:.6g} points; "
                               f"at most {SWEEP_MAX_POINTS} are allowed")
    values = np.arange(start, stop + step / 2, step)
    if counts:
        values = values.astype(int)
    # the counts have a least value; a and sigma_w2 must be positive
    low = {"n_p": 1, "L": 0, "P": 0, "n0": 0}.get(axis)
    if (values[0] < low) if low is not None else (values[0] <= 0):
        need = f"at least {low}" if low is not None else "positive"
        raise click.UsageError(f"sweep axis {axis} must be {need}; got {values[0]}")
    return axis, values


def _bound_pairs(sig, pt, sc, tag: str = "") -> dict:
    """{column pattern: BoundPair} for the known-signal, unknown-signal
    joint and separate, and known-structure bounds (None without a pulse
    train); tag suffixes all but the known-signal pattern. The known-signal
    reference is the single-look bound at the scenario's reflected scale,
    so the unknown/known ratio is the look factor exactly."""
    known, joint, separate = signal_bounds(sig, sc)
    return {"jcrb_{}": known.scaled(1.0 / sc.scale ** 2), f"jcrb_{{}}_s{tag}": joint,
            f"crb_{{}}_s{tag}": separate,
            f"jcrb_{{}}_b{tag}": None if pt is None else jcrb_structure_known_a(pt, sc)}


@_command("sweep")
def cmd_sweep(config_path, **flags):
    """Bound curves along one swept axis.

    The L axis emits both the P=1 and the P=L families; the n_p axis
    rebuilds the pulse train per point (with delta = Tp/np when --Tp is
    given); other axes vary one scenario field.
    """
    cfg, given = merge_config(config_path, **flags)
    if not cfg["sweep"]:
        raise click.UsageError("sweep requires --sweep axis=start:stop[:step]")
    axis, values = _parse_sweep(cfg["sweep"])
    if axis != "n_p":
        # only the n_p axis changes the signal
        delta = _resolve_delta(cfg, given)
        sig, pt = build_signal(cfg, delta)
    rows, methods = [], []
    for value in values:
        if axis == "n_p":
            local = RunConfig({**cfg.values, "np": int(value)})
            delta = _resolve_delta(local, given)
            sig, pt = build_signal(local, delta)
            row, scenarios = {"n_p": int(value), "delta": delta}, {"": local.scenario()}
        elif axis == "L":
            looks = int(value)
            row = {"L": looks}
            scenarios = {f"_{tag}": cfg.scenario(looks_direct=looks, looks_reflected=p_val)
                         for tag, p_val in (("p1", 1), ("pl", max(looks, 1)))}
        else:
            point = value.item()
            row = {axis: point}
            if axis == "n0":
                row["tau0"] = point = point * delta
            scenarios = {"": cfg.scenario(**{_SWEEP_FIELDS[axis]: point})}
        pairs = {}
        for tag, sc in scenarios.items():
            # sweeps omit the separate bounds; the known-signal pair does not
            # depend on the looks, so every tag gives the same one
            pairs.update((key, pair) for key, pair in _bound_pairs(sig, pt, sc, tag).items()
                         if not key.startswith("crb"))
        cols, flagged = _pair_columns(pairs)
        row.update(cols)
        row["singular"] = ";".join(flagged)
        rows.append(row)
        methods.append({k: METHOD_CLOSED_FORM for k in cols})
    write_rows(rows, methods, cfg)


@_command("overlap")
def cmd_overlap(config_path, **flags):
    """Delay bound versus overlap offset for the triangle wave."""
    cfg, _ = merge_config(config_path, **flags)
    _check_caps(cfg, {"M": OVERLAP_MAX_M})
    sc = cfg.scenario()
    # triangle_overlap_curve raises ValueError only for bad input, such as an odd M
    with _usage_errors():
        curve = triangle_overlap_curve(cfg["M"], sc)
    rows = [{"M": cfg["M"], "n0": row["n0"], "crb_tau0": row["crb_tau0"],
             "singular": row["singular"], "regime": row["regime"],
             "crb_non": row["crb_non"]} for row in curve]
    write_rows(rows, [{"crb_tau0": row["method"], "crb_non": METHOD_CLOSED_FORM}
                      for row in curve], cfg)


@_command("montecarlo")
def cmd_montecarlo(config_path, **flags):
    """Empirical estimator MSE against the bounds (deterministic by seed)."""
    cfg, given = merge_config(config_path, **flags)
    _check_caps(cfg, MONTECARLO_MAX)
    if cfg["a"] != 1.0:
        raise click.UsageError("montecarlo profiles the signal with a = 1; --a must be 1")
    delta = _resolve_delta(cfg, given)
    sig, _ = build_signal(cfg, delta)
    with _usage_errors():
        # an off-grid --tau0 is an error, not snapped to the sample grid
        n0 = cfg.scenario().delay_samples(delta)
        span = cfg["tauspan"]
        tau_lo = max(0, n0 - span)
        sc = cfg.scenario(tau0=n0 * delta, record_length=n0 + span + sig.m)
        f_grid = np.linspace(cfg["f0"] - cfg["fspan"], cfg["f0"] + cfg["fspan"],
                             cfg["fpoints"])
        mc = McConfig(trials=cfg["trials"], seed=cfg["seed"],
                      tau_grid=tuple(range(tau_lo, n0 + span + 1)),
                      f_grid=tuple(f_grid))
        mc.check_covers(n0, sc.f0)
    report = monte_carlo_report(sig, sc, mc)
    rows = [{"parameter": row["parameter"], "estimator": row["estimator"],
             "empirical_mse": row["empirical_mse"], "bound": row["bound"],
             "ratio": row["ratio"], "trials": report.trials,
             "seed": report.seed, "singular": row["singular"]} for row in report.rows]
    tags = {"empirical_mse": METHOD_MONTE_CARLO, "bound": METHOD_CLOSED_FORM,
            "ratio": METHOD_MONTE_CARLO}
    write_rows(rows, [tags] * len(rows), cfg)


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
