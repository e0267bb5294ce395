"""Delay/Doppler bounds for unknown signals: tables, sweeps, overlap curves, Monte Carlo.

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


class UsageError(Exception):
    """A bad command line, config file or setting value: exit code 1."""


def _convert(kind, text: str, where: str):
    """The value of text typed after a flag of kind; where names it in a UsageError."""
    try:
        value = kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
        if kind is not float or math.isfinite(value):
            return value
        valid = "a finite number"
    except ValueError:
        valid = (f"one of {', '.join(map(repr, kind))}" if isinstance(kind, tuple)
                 else f"a valid {'integer' if kind is int else 'float'}")
    raise UsageError(f"{where}: {text!r} is not {valid}")


# the subcommands that read each setting: table1 fixes the pulse train, its
# looks and its scale, and the overlap curve reads only M, P and sigma2
_SCENARIO = ("crb", "sweep", "montecarlo")
_PULSE, _CURVE = ("table1", *_SCENARIO), ("overlap", *_SCENARIO)
_ALL = ("overlap", *_PULSE)
# One row per setting: (flag, config key, kind (int, float (finite), str or a tuple
# of choices), default, help, the subcommands that take it). The config key is also the
# callback's keyword and the key in the JSON output's config block, listing every setting.
OPTIONS = (
    ("--signal", "signal", str, "gaussian_pulse_train",
     "gaussian_pulse_train | triangle | path to .npz/.json", _SCENARIO),
    ("--delta", "delta", float, 0.01, "sampling interval", _PULSE),
    ("--np", "np", int, 500, "samples per pulse", _PULSE),
    ("--Q", "Q", int, 2, "pulse count", _PULSE),
    ("--Tp", "Tp", float, None, "pulse period; sets delta = Tp/np", _PULSE),
    ("--tau0", "tau0", float, 0.05, "reflected-path delay", _PULSE),
    ("--f0", "f0", float, 20.0, "Doppler shift", _PULSE),
    ("--L", "L", int, 1, "direct-path looks", _SCENARIO),
    ("--P", "P", int, 1, "reflected-path looks", _CURVE),
    ("--a", "a", float, 1.0, "reflected-path amplitude scale", _SCENARIO),
    ("--sigma2", "sigma2", float, 1.0, "clutter-plus-noise variance", _ALL),
    ("--amp-convention", "amp_convention", ("unit", "sqrt2", "both"),
     "unit", "|b_q|^2 = 1, 2, or emit both (crb and table1 only)", _PULSE),
    ("--center", "center", float, 4.0, "Gaussian pulse center", _PULSE),
    ("--width2", "width2", float, 9.0, "Gaussian squared width", _PULSE),
    ("--M", "M", int, 16, "triangle-wave sample count", _CURVE),
    ("--format", "format", ("csv", "json"), "csv", "output format", _ALL),
    ("--out", "out", str, None, "output path (default stdout)", _ALL),
    ("--seed", "seed", int, 42, "base RNG seed", ("montecarlo",)),
    ("--trials", "trials", int, 200, "Monte Carlo trials", ("montecarlo",)),
    ("--sweep", "sweep", str, None,
     "axis=start:stop[:step]; axis in L|P|n_p|n0|a|sigma_w2", ("sweep",)),
    ("--fspan", "fspan", float, 0.05, "Doppler search half-span", ("montecarlo",)),
    ("--fpoints", "fpoints", int, 41, "Doppler grid size", ("montecarlo",)),
    ("--tauspan", "tauspan", int, 5, "delay search half-span, samples", ("montecarlo",)),
)
DEFAULTS = {key: default for _, key, _, default, _, _ in OPTIONS}
_KINDS = {key: kind for _, key, kind, _, _, _ in OPTIONS}

SWEEP_AXES = ("L", "P", "n_p", "n0", "a", "sigma_w2")
# every point is a row of output; a longer sweep is taken to be a typo
SWEEP_MAX_POINTS = 100_000
# the overlap curve costs O(M^2) (about 2.4 s at M = 8192) and prints M + 1 rows
OVERLAP_MAX_M = 8192
# Monte Carlo work grows with each (500 trials of the default grid take tens of ms); more is a typo
MONTECARLO_MAX = {"trials": 1_000_000, "fpoints": 10_000, "tauspan": 10_000}
# samples of one look record (n0 + tauspan + M) and of one synthesized signal (Q n_p or M)
MONTECARLO_MAX_RECORD = SIGNAL_MAX_SAMPLES = 1_000_000
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
        raise UsageError(str(exc)) from exc


def _check_cap(key: str, value, cap) -> None:
    """Usage error when value, the setting or size key names, is above cap."""
    if value > cap:
        raise UsageError(f"{key} = {value:.6g} is above the cap of {cap}")


class RunConfig(dict):
    """Merged defaults, config-file values and explicit flags for one run."""

    def scenario(self, **overrides) -> Scenario:
        params = {"tau0": self["tau0"], "f0": self["f0"], "looks_direct": self["L"],
                  "looks_reflected": self["P"], "sigma_w2": self["sigma2"], "scale": self["a"]}
        with _usage_errors():
            return Scenario(**{**params, **overrides})


# pulse amplitude b_q per convention: |b_q|^2 = 1 (unit) or 2 (sqrt2), equal phases
_AMPLITUDES = {"unit": (1.0 + 1.0j) / np.sqrt(2.0), "sqrt2": 1.0 + 1.0j}


def _signal_samples(cfg: RunConfig) -> int:
    return {"gaussian_pulse_train": max(cfg["Q"], 1) * cfg["np"],
            "triangle": cfg["M"]}.get(cfg["signal"], 0)


def _resolve_delta(cfg: RunConfig, given: dict) -> float:
    """delta (Tp/np given Tp) once the signal fits: Q n_p samples (n_p + 1 for Q < 1) or M."""
    _check_cap("signal samples", _signal_samples(cfg), SIGNAL_MAX_SAMPLES)
    if cfg["Tp"] is None:
        return cfg["delta"]
    if cfg["np"] < 1:
        raise UsageError("n_p must be at least 1")
    derived = cfg["Tp"] / cfg["np"]
    if "delta" in given and abs(given["delta"] - derived) > 1e-12:
        raise UsageError("--delta conflicts with --Tp/--np; give only one")
    return derived


def build_signal(cfg: RunConfig, delta: float,
                 convention: str | None = None) -> tuple[SampledSignal, PulseTrain | None]:
    """Signal selected by the config: pulse train, triangle, or file."""
    kind = cfg["signal"]
    with _usage_errors():
        if kind == "gaussian_pulse_train":
            convention = convention or cfg["amp_convention"]
            if convention not in _AMPLITUDES:
                raise UsageError("--amp-convention both is expanded only by crb and "
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
    listed as singular; a note on stderr names those of pairs not singular or overflowed."""
    n = max(col.tau0.size for col in columns.values())
    cells = {key: value if isinstance(value, list) else [value] * n
             for key, value in lead.items()}
    tags, bad, overflowed = {}, {}, []
    for pattern, col in columns.items():
        named = (col.notes == "") | (col.notes == OVERFLOW_NOTE)
        for part in ("tau0", "f0"):
            key, values = pattern.format(part), getattr(col, part)
            if values.size != n:  # one row stands for every row
                values = np.repeat(values, n)
            bad[key] = ~((values > 0.0) & (values < np.inf))
            cells[key], tags[key] = values.tolist(), col.method
            for i in np.flatnonzero(bad[key]):
                cells[key][i] = None
            overflowed += [key] * bool(np.any(bad[key] & named))
    if overflowed:
        print(f"note: {', '.join(overflowed)}: {OVERFLOW_NOTE}; printed as null", file=sys.stderr)
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


def _rows_json(config: dict, rows: list[dict], methods: list[dict], provenance: dict) -> str:
    """json.dumps(indent=2) of write_rows' payload, byte for byte. Every dict
    of it (config, provenance, each row's values and methods) holds scalars
    only, so each goes through the C encoder whole and only the brackets
    around them are written here; rows that share a tag dict share its text."""
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
        config = {k: cfg[k] for k in sorted(cfg, key=str) if k != "out"}
        text = _rows_json(config, rows, methods,
                          {"version": __version__, "seed": cfg["seed"]}) + "\n"
    else:
        # every row has the first row's keys in order; csv writes None as ""
        buf = io.StringIO()
        csv.writer(buf).writerows([list(rows[0]), *(row.values() for row in rows)] if rows else [])
        text = buf.getvalue()
    with open(cfg["out"], "w") if cfg["out"] else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def merge_config(config_path: str | None, **flags) -> tuple[RunConfig, dict]:
    """Defaults overridden by the config file, then by explicit flags (one per
    setting of the command), and the settings the file or a flag gave. A file
    value is converted as if typed after its flag; null counts as omitted."""
    given = {}
    if config_path:
        with open(config_path) as fh:
            try:
                values = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"config file {config_path} must hold one JSON object")
        if unknown := set(values) - set(flags):
            raise UsageError(f"config keys this command does not take: {sorted(unknown)}")
        given = {key: _convert(_KINDS[key], str(value), f"config key {key!r}")
                 for key, value in values.items() if value is not None}
    given.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig({**DEFAULTS, **given}), given


class Command:
    """A subcommand: --config, --help and the OPTIONS rows that name it. main
    looks callback up on every call, so a wrapper set in its place runs."""

    def __init__(self, name: str, callback):
        self.name, self.callback, self.doc = name, callback, callback.__doc__
        self.options = {"--config": ("config_path", str, "JSON settings file; flags override it")}
        self.options.update((flag, (key, kind, text)) for flag, key, kind, _, text, commands
                            in OPTIONS if name in commands)

    def parse(self, args: list) -> dict | None:
        """The callback's keywords from args, --flag value or --flag=value (the last
        repeat wins, None if not given); None, with the help printed, if --help is given."""
        if "--help" in args:
            print(self.help())
            return None
        params, args = dict.fromkeys(key for key, _, _ in self.options.values()), iter(args)
        for arg in args:
            flag, eq, text = arg.partition("=")
            if flag not in self.options:
                raise UsageError(f"No such option {flag!r}" if arg.startswith("-")
                                 else f"Got unexpected extra argument ({arg})")
            if not eq and (text := next(args, None)) is None:
                raise UsageError(f"Option {flag!r} requires an argument")
            key, kind, _ = self.options[flag]
            params[key] = _convert(kind, text, f"Invalid value for {flag!r}")
        return params

    def help(self) -> str:
        rows = [(flag, text) for flag, (_, _, text) in self.options.items()]
        rows.append(("--help", "show this message and exit"))
        doc = [line.strip() for line in self.doc.strip().splitlines()]
        return "\n".join([f"Usage: ddcrb {self.name} [OPTIONS]", "", *doc, "", "Options:",
                          *(f"  {flag:<18}{text}" for flag, text in rows)])


COMMANDS: dict[str, Command] = {}


def _command(name: str):
    return lambda fn: COMMANDS.setdefault(name, Command(name, fn))


@_command("crb")
def cmd_crb(config_path, **flags):
    """One-shot bound evaluation for the configured scenario."""
    cfg, given = merge_config(config_path, **flags)
    delta = _resolve_delta(cfg, given)
    both = cfg["amp_convention"] == "both" and cfg["signal"] == "gaussian_pulse_train"
    conventions = ["unit", "sqrt2"] if both else [cfg["amp_convention"]]
    signals = [build_signal(cfg, delta, convention) for convention in conventions]
    sc = cfg.scenario()
    lead = {"amp_convention": [c if pt else None for c, (_, pt) in zip(conventions, signals)],
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
    delta = _resolve_delta(cfg, given)
    conventions = ["unit", "sqrt2"] if cfg["amp_convention"] == "both" else [cfg["amp_convention"]]
    signals = {c: build_signal(cfg, delta, c)[0] for c in conventions}
    lead = {"amp_convention": [c for c in conventions for _ in range(3)],
            "L": [1, 2, 100] * len(conventions)}
    scenarios = [cfg.scenario(looks_direct=n) for n in lead["L"]]
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
        start, stop, step = map(float, (rng.split(":") + ["1"])[:3])  # step 1 by default
    except ValueError as exc:
        raise UsageError(f"bad sweep spec {spec!r}; use axis=start:stop[:step]") from exc
    axis = {"np": "n_p"}.get(axis, axis)
    if axis not in SWEEP_AXES:
        raise UsageError(f"sweep axis must be one of {SWEEP_AXES}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"sweep range must be finite; got {spec!r}")
    counts = axis in ("L", "P", "n_p", "n0")
    if counts and any(x != int(x) for x in (start, stop, step)):
        raise UsageError(f"sweep axis {axis} counts samples or looks; its "
                         f"start, stop and step must be integers")
    if step <= 0 or stop < start:
        raise UsageError("sweep range must be nonempty with positive step")
    # counted before np.arange allocates them; (stop - start) / step may be inf
    points = (stop - start) / step + 1.0
    if points > SWEEP_MAX_POINTS:
        raise UsageError(f"sweep {spec!r} has about {points:.6g} points; "
                         f"at most {SWEEP_MAX_POINTS} are allowed")
    values = np.arange(start, stop + step / 2, step)
    if not values.size:  # start == stop, and stop + step/2 rounded back to stop
        raise UsageError(f"sweep {spec!r} has no points at float precision")
    if counts:
        values = values.astype(int)
    # the counts have a least value; a and sigma_w2 must be positive
    low = {"n_p": 1, "L": 0, "P": 0, "n0": 0}.get(axis)
    if (values[0] < low) if low is not None else (values[0] <= 0):
        need = f"at least {low}" if low is not None else "positive"
        raise UsageError(f"sweep axis {axis} must be {need}; got {values[0]}")
    return axis, values


def _bound_columns(signals: list, pts: ScenarioColumns, tag: str = "") -> dict:
    """{column pattern: PairColumns} of the known-signal (at the row's scale, so
    the unknown/known ratio is the look factor), unknown-signal joint and separate
    and, given trains, known-structure bounds at every row of pts: each family
    once. signals: one (signal, train or None) per row and pts one delay, or one
    for every row; tag suffixes all but the known-signal pattern."""
    sigs, trains = zip(*signals)
    known, joint, separate = signal_bound_columns(sigs, pts)
    columns = {"jcrb_{}": known.scaled(1.0 / pts.scale2), f"jcrb_{{}}_s{tag}": joint,
               f"crb_{{}}_s{tag}": separate}
    if trains[0] is not None:
        columns[f"jcrb_{{}}_b{tag}"] = structure_bound_columns(trains, pts)
    return columns


@_command("sweep")
def cmd_sweep(config_path, **flags):
    """Bound curves along one swept axis (L: the P=1 and P=L families; n_p: one signal per
    train or delta, delta = Tp/np given --Tp; others: one scenario field), each family once."""
    cfg, given = merge_config(config_path, **flags)
    if not cfg["sweep"]:
        raise UsageError("sweep requires --sweep axis=start:stop[:step]")
    axis, values = _parse_sweep(cfg["sweep"])
    lead = {axis: values.tolist()}
    configs = [RunConfig(cfg, np=n) for n in lead[axis]] if axis == "n_p" else [cfg]
    deltas = [_resolve_delta(local, given) for local in configs]
    keys = [{"gaussian_pulse_train": (c["np"], d), "triangle": d}.get(cfg["signal"])
            for c, d in zip(configs, deltas)]  # a file's signal never changes
    distinct = dict(zip(keys, zip(configs, deltas)))  # one signal each, kept and counted once
    _check_cap("all rows' signal samples", sum(_signal_samples(c) for c, _ in distinct.values()),
               SIGNAL_MAX_SAMPLES)
    signals = list(map({key: build_signal(*row) for key, row in distinct.items()}.get, keys))
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
        # no separate bounds in sweeps; the known pair ignores the looks, so all tags share it
        columns.update((key, col) for key, col in _bound_columns(signals, pts, tag).items()
                       if not key.startswith("crb"))
    write_rows(*_rows(lead, columns), cfg)


@_command("overlap")
def cmd_overlap(config_path, **flags):
    """Delay bound versus overlap offset for the triangle wave."""
    cfg, _ = merge_config(config_path, **flags)
    _check_cap("M", cfg["M"], OVERLAP_MAX_M)
    # triangle_overlap_curve raises ValueError only for bad input, such as an odd M
    with _usage_errors():
        curve = triangle_overlap_curve(cfg["M"], cfg.scenario())
    keys = ("n0", "crb_tau0", "singular", "regime", "crb_non")
    rows = [{"M": cfg["M"], **{key: row[key] for key in keys}} for row in curve]
    write_rows(rows, [{"crb_tau0": row["method"], "crb_non": METHOD_CLOSED_FORM}
                      for row in curve], cfg)


@_command("montecarlo")
def cmd_montecarlo(config_path, **flags):
    """Empirical estimator MSE against the bounds (deterministic by seed)."""
    cfg, given = merge_config(config_path, **flags)
    for key, cap in MONTECARLO_MAX.items():
        _check_cap(key, cfg[key], cap)
    if cfg["a"] != 1.0:
        raise UsageError("montecarlo profiles the signal with a = 1; --a must be 1")
    delta = _resolve_delta(cfg, given)
    sig, _ = build_signal(cfg, delta)
    _check_cap("look record n0 + tauspan + M",  # tau0/delta may be inf
               cfg["tau0"] / delta + cfg["tauspan"] + sig.m, MONTECARLO_MAX_RECORD)
    with _usage_errors():
        # an off-grid --tau0 is an error, not snapped to the sample grid
        n0, span = cfg.scenario().delay_samples(delta), cfg["tauspan"]
        sc = cfg.scenario(tau0=n0 * delta, record_length=n0 + span + sig.m)
        f_grid = np.linspace(cfg["f0"] - cfg["fspan"], cfg["f0"] + cfg["fspan"], cfg["fpoints"])
        mc = McConfig(trials=cfg["trials"], seed=cfg["seed"], f_grid=tuple(f_grid),
                      tau_grid=tuple(range(max(0, n0 - span), n0 + span + 1)))
        mc.check_covers(n0, sc.f0)
    report = monte_carlo_report(sig, sc, mc)
    keys = ("parameter", "estimator", "empirical_mse", "bound", "ratio")
    rows = [{**{key: row[key] for key in keys}, "trials": report.trials, "seed": report.seed,
             "singular": row["singular"]} for row in report.rows]
    write_rows(rows, [{"empirical_mse": METHOD_MONTE_CARLO, "bound": row["method"],
                       "ratio": METHOD_MONTE_CARLO} for row in report.rows], cfg)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    name, *args = (sys.argv[1:] if argv is None else list(argv)) or [None]
    try:
        if name in COMMANDS:
            if (params := COMMANDS[name].parse(args)) is not None:
                COMMANDS[name].callback(**params)
        elif name in (None, "--help"):  # with no command at all, help is a usage error
            print(f"Usage: ddcrb COMMAND [OPTIONS] with COMMAND one of {', '.join(COMMANDS)}\n"
                  f"\n{__doc__}", end="", file=sys.stderr if name is None else sys.stdout)
            return 1 if name is None else 0
        else:
            raise UsageError(f"No such command {name!r}")
    except (UsageError, KeyboardInterrupt) as exc:
        print(f"Error: {str(exc) or 'interrupted'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
