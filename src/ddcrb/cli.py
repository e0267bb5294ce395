"""Command-line surface: bound tables, sweeps, overlap curves, Monte Carlo.

Subcommands emit machine-readable CSV or JSON rows. JSON output is an
object {config, rows, provenance} where every numeric cell carries a method
tag (closed_form | schur_numeric | monte_carlo); a bound cell's tag is the
method of the BoundPair behind it, and a singular pair's cells are null.
CSV carries the same values. Exit codes: 0 success (singularity-flagged
rows are data, not errors), 1 usage error, 2 I/O error.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .bounds import fim_unknown_signal, signal_bound_columns
from .fim import (METHOD_CLOSED_FORM, METHOD_MONTE_CARLO, OVERFLOW_NOTE, PairColumns,
                  eliminated_pair)
from .overlap import triangle_overlap_curve
from .scaled import structure_bound_columns
from .signals import (PulseTrain, SampledSignal, Scenario, ScenarioColumns,
                      gaussian_pulse_train, load_signal_file, synthesize_pulse_train,
                      triangle_wave)
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
# samples n0 + tauspan + M of one look record, of which each trial keeps a few per look
MONTECARLO_MAX_RECORD = 1_000_000
# table1's bound columns in order: each unknown-signal bound by its known one
TABLE1_COLUMNS = ("jcrb_tau0_s", "jcrb_tau0", "jcrb_f0_s", "jcrb_f0",
                  "jcrb_tau0_s_schur", "jcrb_f0_s_schur", "ratio_tau0", "ratio_f0")
# the scenario field each single-field sweep axis sets (n0 sets tau0 = n0 delta)
_SWEEP_FIELDS = {"P": "looks_reflected", "n0": "tau0", "a": "scale", "sigma_w2": "sigma_w2"}


@contextlib.contextmanager
def _usage_errors():
    """Report a model constructor's ValueError (bad flag value) as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _check_caps(values, caps: dict) -> None:
    """Usage error for any of values (a config) above its cap in caps ({key: cap})."""
    for key, cap in caps.items():
        if values[key] > cap:
            raise click.UsageError(f"{key} = {values[key]:.6g} is above the cap of {cap}")


@dataclass
class RunConfig:
    """Merged defaults, config-file values and explicit flags for one run."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def scenario(self, **overrides) -> Scenario:
        params = {"tau0": self["tau0"], "f0": self["f0"], "looks_direct": self["L"],
                  "looks_reflected": self["P"], "sigma_w2": self["sigma2"], "scale": self["a"]}
        with _usage_errors():
            return Scenario(**{**params, **overrides})


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
        return load_signal_file(kind), None


def _rows(lead: dict, columns: dict, keys=None) -> tuple[list[dict], list[dict]]:
    """Rows of the lead cells ({key: one value per row, or one for all}),
    the cells of {key pattern: PairColumns} ({} is tau0 or f0) and the
    singular keys, as keys (default all) picks them; and each row's tags.
    A bound cell that is not finite and positive prints as None and is
    listed as singular; a note on stderr names those of pairs not singular."""
    n = max(col.tau0.size for col in columns.values())
    cells = {key: value if isinstance(value, list) else [value] * n
             for key, value in lead.items()}
    tags, bad, overflowed = {}, {}, []
    for pattern, col in columns.items():
        for part in ("tau0", "f0"):
            key, values = pattern.format(part), getattr(col, part)
            if values.size != n:  # one row stands for every row
                values = np.repeat(values, n)
            bad[key] = ~((values > 0.0) & (values < np.inf))
            cells[key], tags[key] = values.tolist(), col.method
            for i in np.flatnonzero(bad[key]):
                cells[key][i] = None
            overflowed += [key] * bool(np.any(bad[key] & (col.notes == "")))
    if overflowed:
        click.echo(f"note: {', '.join(overflowed)}: {OVERFLOW_NOTE}; printed as null", err=True)
    cells["singular"] = [";".join(itertools.compress(bad, row))
                         for row in zip(*(mask.tolist() for mask in bad.values()))]
    keys = keys or list(cells)
    tags = {key: tags[key] for key in keys if key in tags}
    return [dict(zip(keys, row)) for row in zip(*(cells[key] for key in keys))], [tags] * n


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
    and only the brackets around them are written here. Rows that share one
    tag dict (every row of a bound table) share its text.
    """
    shared = {id(tags): tags for tags in methods}
    tag_texts = {key: _json_flat_dict(tags, 3) for key, tags in shared.items()}
    items = [f'    {{\n      "values": {_json_flat_dict(row, 3)},\n'
             f'      "methods": {tag_texts[id(tags)]}\n    }}'
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
    signals = [build_signal(cfg, delta, convention) for convention in conventions]
    sc = cfg.scenario()
    lead = {"amp_convention": [c if pt is not None else None
                               for c, (_, pt) in zip(conventions, signals)],
            "L": sc.looks_direct, "P": sc.looks_reflected, "a": sc.scale,
            "sigma_w2": sc.sigma_w2, "tau0": sc.tau0, "f0": sc.f0}
    write_rows(*_rows(lead, _bound_columns(signals, ScenarioColumns.of(sc))), cfg)


@_command("table1")
def cmd_table1(config_path, **flags):
    """Unknown- vs known-signal bounds for L in {1, 2, 100}, P = 1.

    Each row carries the closed-form bounds, the same bounds recomputed by
    numerically eliminating the 2M signal parameters from the full FIM, and
    the unknown/known ratio, which equals (L+P)/(L*P).
    """
    cfg, given = merge_config(config_path, **flags)
    if cfg["signal"] != "gaussian_pulse_train":
        raise click.UsageError("table1 is defined for the gaussian_pulse_train signal")
    delta = _resolve_delta(cfg, given)
    conventions = ["unit", "sqrt2"] if cfg["amp_convention"] == "both" else [cfg["amp_convention"]]
    signals = {c: build_signal(cfg, delta, c)[0] for c in conventions}
    lead = {"amp_convention": [c for c in conventions for _ in range(3)],
            "L": [1, 2, 100] * len(conventions)}
    scenarios = [cfg.scenario(looks_direct=n, looks_reflected=1, scale=1.0) for n in lead["L"]]
    cols = _bound_columns([(signals[c], None) for c in lead["amp_convention"]],
                          ScenarioColumns.of(scenarios[0], looks_direct=lead["L"]))
    cols["ratio_{}"] = cols["jcrb_{}_s"].over(cols["jcrb_{}"])
    # the independent check: each row's FIM eliminated numerically
    cols["jcrb_{}_s_schur"] = PairColumns.stack(
        [eliminated_pair(fim_unknown_signal(signals[c], sc))
         for c, sc in zip(lead["amp_convention"], scenarios)])
    write_rows(*_rows(lead, cols, keys=("amp_convention", "L", *TABLE1_COLUMNS)), cfg)


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
    if not values.size:  # start == stop, and stop + step/2 rounded back to stop
        raise click.UsageError(f"sweep {spec!r} has no points at float precision")
    if counts:
        values = values.astype(int)
    # the counts have a least value; a and sigma_w2 must be positive
    low = {"n_p": 1, "L": 0, "P": 0, "n0": 0}.get(axis)
    if (values[0] < low) if low is not None else (values[0] <= 0):
        need = f"at least {low}" if low is not None else "positive"
        raise click.UsageError(f"sweep axis {axis} must be {need}; got {values[0]}")
    return axis, values


def _bound_columns(signals: list, pts: ScenarioColumns, tag: str = "") -> dict:
    """{column pattern: PairColumns} of the known-signal (at the row's scale,
    so the unknown/known ratio is the look factor), unknown-signal joint and
    separate and, given trains, known-structure bounds at every row of pts:
    each family once. signals: one (signal, train or None) per row and pts
    one delay, or one for every row; tag suffixes all but the known-signal
    pattern."""
    sigs, trains = zip(*signals)
    known, joint, separate = signal_bound_columns(sigs, pts)
    columns = {"jcrb_{}": known.scaled(1.0 / pts.scale2), f"jcrb_{{}}_s{tag}": joint,
               f"crb_{{}}_s{tag}": separate}
    if trains[0] is not None:
        columns[f"jcrb_{{}}_b{tag}"] = structure_bound_columns(trains, pts)
    return columns


@_command("sweep")
def cmd_sweep(config_path, **flags):
    """Bound curves along one swept axis.

    The L axis emits both the P=1 and the P=L families; the n_p axis
    rebuilds the pulse train per point (with delta = Tp/np when --Tp is
    given); other axes vary one scenario field. Each bound family is
    evaluated once over the axis.
    """
    cfg, given = merge_config(config_path, **flags)
    if not cfg["sweep"]:
        raise click.UsageError("sweep requires --sweep axis=start:stop[:step]")
    axis, values = _parse_sweep(cfg["sweep"])
    lead = {axis: values.tolist()}
    # only the n_p axis changes the signal: one train per row
    configs = [RunConfig({**cfg.values, "np": n}) for n in lead[axis]] if axis == "n_p" else [cfg]
    deltas = [_resolve_delta(local, given) for local in configs]
    signals = [build_signal(local, delta) for local, delta in zip(configs, deltas)]
    if axis == "n_p":
        lead["delta"] = deltas
    if axis == "n0":
        values = values * deltas[0]
        lead["tau0"] = values.tolist()
    families = {"": {_SWEEP_FIELDS[axis]: values} if axis in _SWEEP_FIELDS else {}}
    if axis == "L":
        families = {f"_{tag}": {"looks_direct": values, "looks_reflected": p_val}
                    for tag, p_val in (("p1", 1), ("pl", np.maximum(values, 1)))}
    columns = {}
    for tag, fields in families.items():
        with _usage_errors():
            pts = ScenarioColumns.of(cfg.scenario(), **fields)
        # sweeps omit the separate bounds; the known-signal pair does not
        # depend on the looks, so every tag gives the same one
        columns.update((key, col) for key, col in _bound_columns(signals, pts, tag).items()
                       if not key.startswith("crb"))
    write_rows(*_rows(lead, columns), cfg)


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
    record = "look record n0 + tauspan + M"  # tau0/delta may be inf
    _check_caps({record: cfg["tau0"] / delta + cfg["tauspan"] + sig.m},
                {record: MONTECARLO_MAX_RECORD})
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
    write_rows(rows, [{"empirical_mse": METHOD_MONTE_CARLO, "bound": row["method"],
                       "ratio": METHOD_MONTE_CARLO} for row in report.rows], cfg)


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
