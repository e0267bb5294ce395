"""CLI tests: output schemas, encodings, determinism, exit codes."""

import contextlib
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddcrb import bounds, cli
from ddcrb.cli import MONTECARLO_MAX, OVERLAP_MAX_M, SIGNAL_MAX_SAMPLES, main
from ddcrb.fim import OVERFLOW_NOTE
from ddcrb.overlap import _overlap_columns
from ddcrb.signals import Scenario, ScenarioColumns, triangle_wave

from dense_oracles import cli_rows

# table1 takes every setting of BASE but --f0, which none of its bounds reads
TABLE1_BASE = ["--np", "60", "--delta", "0.05", "--Q", "2", "--center", "1.5",
               "--width2", "0.09", "--tau0", "0.1"]
BASE = [*TABLE1_BASE, "--f0", "2.0"]


def run_cli(args, tmp_path=None):
    """Run the CLI in-process, capturing stdout."""
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# --np 0 with --Tp asks for delta = Tp/0
ZERO_NP_WITH_TP = [["crb", "--np", "0", "--Tp", "4"], ["table1", "--np", "0", "--Tp", "4"],
                   ["montecarlo", "--np", "0", "--Tp", "4"],
                   ["sweep", "--sweep", "L=1:3", "--np", "0", "--Tp", "1"]]


class TestTable1:
    def test_ratio_column(self, tmp_path):
        code, out = run_cli(["table1", *TABLE1_BASE, "--format", "csv"])
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["L"]) for r in rows] == [1, 2, 100]
        ratios = [float(r["ratio_tau0"]) for r in rows]
        np.testing.assert_allclose(ratios, [2.0, 1.5, 1.01], rtol=1e-12)
        np.testing.assert_allclose([float(r["ratio_f0"]) for r in rows],
                                   [2.0, 1.5, 1.01], rtol=1e-12)

    def test_dual_path_agreement(self):
        code, out = run_cli(["table1", *TABLE1_BASE, "--format", "csv"])
        rows = parse_csv(out)
        for row in rows:
            closed = float(row["jcrb_tau0_s"])
            schur = float(row["jcrb_tau0_s_schur"])
            assert abs(closed - schur) <= 1e-8 * closed

    def test_schur_cells_do_not_depend_on_the_time_unit(self):
        # microsecond-scale pulse: tau0 and f0 information differ by ~1e26
        code, out = run_cli(["table1", "--delta", "1e-7", "--center", "4e-5",
                             "--width2", "9e-12", "--tau0", "5e-7",
                             "--amp-convention", "unit", "--format", "csv"])
        assert code == 0
        for row in parse_csv(out):
            for coord in ("tau0", "f0"):
                closed, schur = float(row[f"jcrb_{coord}_s"]), row[f"jcrb_{coord}_s_schur"]
                assert schur and float(schur) == pytest.approx(closed, rel=1e-9)

    def test_both_conventions(self):
        code, out = run_cli(["table1", *TABLE1_BASE, "--amp-convention", "both"])
        rows = parse_csv(out)
        assert {r["amp_convention"] for r in rows} == {"unit", "sqrt2"}
        assert len(rows) == 6
        by_conv = {c: [r for r in rows if r["amp_convention"] == c]
                   for c in ("unit", "sqrt2")}
        # |b|^2 = 2 doubles the information: bounds halve
        assert float(by_conv["sqrt2"][0]["jcrb_tau0"]) == pytest.approx(
            float(by_conv["unit"][0]["jcrb_tau0"]) / 2, rel=1e-12)

    def test_csv_and_json_values_identical(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        for fmt, path in (("csv", csv_path), ("json", json_path)):
            assert run_cli(["table1", *TABLE1_BASE, "--format", fmt, "--out", str(path)])[0] == 0
        csv_rows = parse_csv(csv_path.read_text())
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == len(csv_rows)
        for jrow, crow in zip(payload["rows"], csv_rows):
            for key, value in jrow["values"].items():
                if isinstance(value, float):
                    assert float(crow[key]) == value
        # every numeric cell in JSON carries a method tag
        for jrow in payload["rows"]:
            for key, value in jrow["values"].items():
                if isinstance(value, float) and key != "amp_convention":
                    assert jrow["methods"].get(key) in (
                        "closed_form", "schur_numeric", "oracle", "monte_carlo")


class TestSweep:
    def test_l_sweep_families(self):
        code, out = run_cli(["sweep", "--sweep", "L=1:6", *BASE])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        # P=1 family approaches the known-signal reference from above
        for row in rows:
            assert float(row["jcrb_tau0_s_p1"]) > float(row["jcrb_tau0"])
            assert float(row["jcrb_tau0_b_p1"]) <= float(row["jcrb_tau0_s_p1"])
        # P=L family scales as 2/L
        l1 = float(rows[0]["jcrb_tau0_s_pl"])
        l4 = float(rows[3]["jcrb_tau0_s_pl"])
        assert l4 == pytest.approx(l1 / 4, rel=1e-12)

    # (sweep, distinct pulse trains and delays, scenarios): two scenarios per L;
    # the synthesized signal's weighted sums follow the pulse sums
    @pytest.mark.parametrize("spec,pulses,scenarios", [
        ("L=1:12", 1, 24), ("a=0.5:2:0.25", 1, 7), ("n_p=10:13", 4, 4), ("n0=1:4", 4, 4),
        ("P=1:5", 1, 5)])
    def test_pulse_sums_computed_once_per_pulse(self, monkeypatch, spec, pulses, scenarios):
        from ddcrb import bounds, scaled, structure
        calls, sums, evaluations = [], [], []
        quantities, eta = structure.structure_quantities.__wrapped__, bounds.eta

        def counted_sums(pt, tau0):
            calls.append(tau0)
            return quantities(pt, tau0)
        # a miss of the memo calls __wrapped__
        monkeypatch.setattr(structure.structure_quantities, "__wrapped__", counted_sums)
        # eta runs once per computation of the weighted sums
        monkeypatch.setattr(bounds, "eta", lambda sig, tau0: sums.append(tau0) or eta(sig, tau0))
        code, out = run_cli(["sweep", "--sweep", spec, *BASE])
        assert code == 0
        assert len(calls) == len(sums) == pulses

        # each family of the sweep is one column evaluation over its scenarios
        def counted(signals, pts, _real=cli.signal_bound_columns):
            columns = _real(signals, pts)
            evaluations.append(columns[1].tau0.size)
            return columns
        monkeypatch.setattr(cli, "signal_bound_columns", counted)
        # without the memos each evaluation reads each pulse's sums once, not
        # once per scenario, to the same bytes
        fresh = bounds.weighted_sums.__wrapped__
        for module in (structure, scaled):
            monkeypatch.setattr(module, "structure_quantities", counted_sums)
        for module in (bounds, scaled):
            monkeypatch.setattr(module, "weighted_sums", fresh)
        calls.clear()
        sums.clear()
        assert run_cli(["sweep", "--sweep", spec, *BASE]) == (code, out)
        assert sum(evaluations) == scenarios
        assert len(calls) == len(sums) == pulses * len(evaluations)

    def test_np_sweep_with_fixed_period(self):
        code, out = run_cli(["sweep", "--sweep", "n_p=10:20", "--Tp", "4",
                             "--Q", "1", "--tau0", "0.5", "--sigma2", "0.1",
                             "--f0", "2.0"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 11
        deltas = [float(r["delta"]) for r in rows]
        np.testing.assert_allclose(deltas, [4.0 / n for n in range(10, 21)])
        for col in ("jcrb_tau0", "jcrb_tau0_s", "jcrb_tau0_b"):
            vals = [float(r[col]) for r in rows]
            assert np.all(np.diff(vals) < 0), col
        for r in rows:
            assert float(r["jcrb_tau0_b"]) <= float(r["jcrb_tau0_s"])

    def test_a_sweep_monotone(self):
        code, out = run_cli(["sweep", "--sweep", "a=0.5:4:0.5", *BASE])
        rows = parse_csv(out)
        vals = [float(r["jcrb_tau0_s"]) for r in rows]
        assert np.all(np.diff(vals) < 0)

    def test_singular_known_pair_is_flagged(self, tmp_path):
        # constant samples: zero derivative energy, no finite known-signal bound
        sig_path = tmp_path / "const.json"
        sig_path.write_text(json.dumps({"delta": 0.5, "samples_real": [1.0] * 8}))
        code, out = run_cli(["sweep", "--sweep", "P=1:2", "--signal", str(sig_path),
                             "--tau0", "1.0"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["P"] for r in rows] == ["1", "2"]
        for row in rows:
            assert row["jcrb_tau0"] == row["jcrb_f0"] == ""
            assert {"jcrb_tau0", "jcrb_f0"} <= set(row["singular"].split(";"))

    def test_non_pulse_signal_has_no_structure_columns(self):
        code, out = run_cli(["sweep", "--sweep", "a=1:2", "--signal", "triangle", "--M", "16",
                             "--delta", "0.5", "--tau0", "1.0", "--f0", "0.1",
                             "--format", "json"])
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert not any("_b" in key for key in (*row["values"], *row["methods"]))
            assert row["values"]["singular"] == ""

    def test_p_zero_row_is_flagged(self):
        code, out = run_cli(["sweep", "--sweep", "P=0:2", *BASE])
        assert code == 0
        rows = parse_csv(out)
        assert "jcrb_tau0_b;jcrb_f0_b" in rows[0]["singular"]
        assert rows[0]["jcrb_tau0_b"] == rows[0]["jcrb_f0_b"] == ""
        assert rows[1]["singular"] == rows[2]["singular"] == ""

    @pytest.mark.parametrize("spec", ["np=0:2", "L=-1:2", "P=-1:2", "n0=-1:2",
                                      "a=0:2", "sigma_w2=0:1", "a=1:nan", "L=1:3:0.5",
                                      "n_p=10.5:12", "a=0.1:1e9:1e-9"])
    def test_out_of_range_axis_is_usage_error(self, spec):
        code, _ = run_cli(["sweep", "--sweep", spec, *BASE])
        assert code == 1

    @pytest.mark.parametrize("spec", ["a=1e17:1e17", "sigma_w2=1e17:1e17:3"])
    def test_range_that_rounds_to_no_point_is_usage_error(self, capsys, spec):
        # stop + step/2 rounds back to stop, so np.arange holds no value
        assert run_cli(["sweep", "--sweep", spec, *BASE]) == (1, "")
        assert "has no points" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,values", [
        ("a=1e15:1e15", [1e15]), ("a=0.5:0.5", [0.5]), ("n0=3:3", [3]),
        ("a=0.1:0.35:0.1", np.arange(0.1, 0.35 + 0.1 / 2, 0.1).tolist())])
    def test_nonempty_ranges_keep_their_values(self, spec, values):
        axis = spec.split("=")[0]
        code, out = run_cli(["sweep", "--sweep", spec, *BASE, "--format", "json"])
        assert code == 0
        assert [row["values"][axis] for row in json.loads(out)["rows"]] == values

    def test_n_p_sweep_makes_one_signal_per_distinct_delta(self, monkeypatch, tmp_path):
        import ddcrb.cli
        made = []
        triangle, load = ddcrb.cli.triangle_wave, ddcrb.cli.load_signal_file
        monkeypatch.setattr(ddcrb.cli, "triangle_wave",
                            lambda m, delta: made.append(delta) or triangle(m, delta))
        monkeypatch.setattr(ddcrb.cli, "load_signal_file",
                            lambda path: made.append(path) or load(path))
        # n_p leaves a triangle alone without --Tp: 20 rows share one signal of
        # 1e5 samples, where 20 copies (2e6 samples) were over the cap
        code, out = run_cli(["sweep", "--sweep", "n_p=1:20", "--signal", "triangle",
                             "--M", "100000"])
        assert (code, made) == (0, [0.01])
        rows = parse_csv(out)
        assert [row["n_p"] for row in rows] == [str(n) for n in range(1, 21)]
        small = ["--signal", "triangle", "--M", "16", "--format", "json"]
        values = [row["values"] for row in json.loads(run_cli(["sweep", "--sweep", "n_p=1:3",
                                                               *small])[1])["rows"]]
        crb = json.loads(run_cli(["crb", *small])[1])["rows"][0]["values"]
        assert all(row[key] == crb[key] for row in values for key in crb if "jcrb" in key)
        # given --Tp each row has its own delta, so its own triangle
        made.clear()
        assert run_cli(["sweep", "--sweep", "n_p=1:3", "--Tp", "4", *small])[0] == 0
        assert made == [4.0, 2.0, 4.0 / 3.0]
        # a file's samples and delta come from the file: one load for every row
        made.clear()
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"delta": 0.5, "samples_real": [0.0, 0.5, 1.0, 0.5, 0.0]}))
        assert run_cli(["sweep", "--sweep", "n_p=1:4", "--signal", str(path),
                        "--tau0", "1.0"])[0] == 0
        assert made == [str(path)]

    def test_missing_axis_is_usage_error(self):
        code, _ = run_cli(["sweep", *BASE])
        assert code == 1

    def test_bad_axis_is_usage_error(self):
        code, _ = run_cli(["sweep", "--sweep", "bogus=1:5", *BASE])
        assert code == 1


def test_table1_builds_sample_labels_once_per_m():
    from ddcrb.bounds import unknown_signal_labels
    unknown_signal_labels.cache_clear()
    # two conventions times three look counts, one M = 2 * 60
    assert run_cli(["table1", *TABLE1_BASE, "--amp-convention", "both"])[0] == 0
    assert unknown_signal_labels.cache_info()[:2] == (5, 1)
    assert run_cli(["table1", *TABLE1_BASE, "--np", "30"])[0] == 0
    assert unknown_signal_labels.cache_info()[:2] == (7, 2)


class TestOverlapCommand:
    def test_rows_and_flags(self):
        code, out = run_cli(["overlap", "--M", "16", "--P", "1", "--sigma2", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 17
        by_n0 = {int(r["n0"]): r for r in rows}
        assert by_n0[0]["singular"] == "True"
        assert float(by_n0[8]["crb_tau0"]) == pytest.approx(6.0 / 64.0, rel=1e-12)
        assert float(by_n0[16]["crb_tau0"]) == pytest.approx(2.0 / 16.0, rel=1e-12)
        assert float(by_n0[3]["crb_non"]) == pytest.approx(0.125)

    def test_odd_m_usage_error(self):
        code, _ = run_cli(["overlap", "--M", "15"])
        assert code == 1

    @pytest.mark.parametrize("sigma2, p", [("1e300", "1"), ("1e-320", "1"), ("1", "1000000000000")])
    def test_extreme_scales(self, sigma2, p):
        # P/sigma_w2 overflows at 1e-320 and its square underflows at 1e300;
        # the bound reads only the scale-free chain sums S
        code, out = run_cli(["overlap", "--M", "16", "--P", p, "--sigma2", sigma2,
                             "--format", "json"])
        assert code == 0
        rows = [row["values"] for row in json.loads(out)["rows"]]
        assert [r["n0"] for r in rows if r["singular"]] == [0, 1, 2, 4]
        s = _overlap_columns(triangle_wave(16).deriv.real, np.arange(17), 1, 1.0)[0]
        for row in rows[:16]:
            if not row["singular"]:
                assert row["crb_tau0"] == float(sigma2) / int(p) / s[row["n0"]], row
        assert rows[16]["crb_tau0"] == 2.0 * float(sigma2) / (int(p) * 16)

    @pytest.mark.parametrize("sigma2, p", [("1.7e308", "1"), ("1e-320", "1000000")])
    def test_reference_that_is_not_finite_and_positive_prints_as_null(self, capsys, sigma2,
                                                                      p):
        # 2 sigma_w2 / (P M) overflows to inf, or underflows to 0.0
        args = ["overlap", "--M", "16", "--P", p, "--sigma2", sigma2]
        code, out = run_cli([*args, "--format", "json"])
        assert code == 0
        assert "crb_non" in capsys.readouterr().err
        rows = _strict_json(out)["rows"]
        assert len(rows) == 17 and all(row["values"]["crb_non"] is None for row in rows)
        code, out = run_cli([*args, "--format", "csv"])
        assert code == 0
        assert {row["crb_non"] for row in parse_csv(out)} == {""}


class TestMonteCarloCommand:
    ARGS = ["montecarlo", "--np", "16", "--delta", "0.25", "--Q", "1",
            "--center", "2", "--width2", "0.16", "--tau0", "1.0", "--f0", "0.3",
            "--sigma2", "0.001", "--trials", "6", "--seed", "42",
            "--fspan", "0.1", "--fpoints", "21"]

    def test_seed_determinism_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli([*self.ARGS, "--format", "json", "--out", str(p1)])[0] == 0
        assert run_cli([*self.ARGS, "--format", "json", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_singular_scenario_exits_zero(self):
        code, out = run_cli([*self.ARGS, "--L", "0"])
        assert code == 0
        rows = parse_csv(out)
        assert all(r["singular"] == "True" for r in rows)

    def test_off_grid_delay_is_usage_error(self):
        # tau0 = 1.1 is 4.4 samples at delta = 0.25; it must not be snapped to 1.0
        code, _ = run_cli([*self.ARGS, "--tau0", "1.1"])
        assert code == 1

    def test_scale_other_than_one_is_usage_error(self):
        code, _ = run_cli([*self.ARGS, "--a", "2"])
        assert code == 1

    def test_provenance_block(self, tmp_path):
        path = tmp_path / "t.json"
        run_cli([*self.ARGS, "--format", "json", "--seed", "7", "--out", str(path)])
        payload = json.loads(path.read_text())
        assert payload["provenance"]["seed"] == 7
        assert "version" in payload["provenance"]

    def test_ratio_columns_present(self):
        code, out = run_cli(self.ARGS)
        rows = parse_csv(out)
        assert {r["parameter"] for r in rows} == {"tau0", "f0", "tau0_known",
                                                  "f0_known"}
        for r in rows:
            assert float(r["ratio"]) > 0

    def test_overflowed_cells_print_as_null(self, capsys):
        # the f0 rows' squared errors overflow on a grid about 1e300 wide; the
        # bound stays finite and the row is not singular
        args = [*self.ARGS, "--f0", "1e300", "--fspan", "1e300", "--trials", "2"]
        note = "note: empirical_mse, ratio: not finite (an overflow); printed as null\n"
        code, out = run_cli([*args, "--format", "json"])
        assert code == 0 and capsys.readouterr().err == note
        rows = {row["values"]["parameter"]: row["values"] for row in _strict_json(out)["rows"]}
        for name in ("f0", "f0_known"):
            assert rows[name]["empirical_mse"] is None and rows[name]["ratio"] is None
            assert 0.0 < rows[name]["bound"] < float("inf") and not rows[name]["singular"]
        assert rows["tau0"]["empirical_mse"] > 0.0
        code, out = run_cli([*args, "--format", "csv"])
        assert code == 0 and capsys.readouterr().err == note
        rows = {row["parameter"]: row for row in parse_csv(out)}
        assert [rows[n][k] for n in ("f0", "f0_known") for k in ("empirical_mse", "ratio")] \
            == [""] * 4


def _strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _record_pairs(monkeypatch) -> list[dict]:
    """{parameter: BoundPair} of the unknown- and known-signal bounds the
    Monte Carlo report is handed."""
    seen = []

    def recorded(sig, sc, _real=bounds.signal_bounds):
        known, unknown, separate = _real(sig, sc)
        seen.append({**dict.fromkeys(("tau0", "f0"), unknown),
                     **dict.fromkeys(("tau0_known", "f0_known"), known)})
        return known, unknown, separate
    monkeypatch.setattr(bounds, "signal_bounds", recorded)
    return seen


DEGENERATE_COMMANDS = {
    "crb": ["crb", *BASE],
    "sweep": ["sweep", "--sweep", "a=1:2", *BASE],
    "table1": ["table1", *TABLE1_BASE],
    "montecarlo": [*TestMonteCarloCommand.ARGS, "--trials", "3"],
}


DEGENERATE_INPUTS = {"zero_signal": ["--center", "1000"], "no_direct_look": ["--L", "0"],
                     "no_reflected_look": ["--P", "0"]}
# table1 fixes its looks, so it takes only the zero signal
DEGENERATE_CASES = [(name, command) for name in DEGENERATE_INPUTS
                    for command in sorted(DEGENERATE_COMMANDS)
                    if name == "zero_signal" or command != "table1"]


@pytest.mark.parametrize("degenerate,command", DEGENERATE_CASES,
                         ids=["-".join(case) for case in DEGENERATE_CASES])
def test_degenerate_bound_cells_are_null_and_tagged_by_their_pair(monkeypatch, command,
                                                                 degenerate):
    argv = [*DEGENERATE_COMMANDS[command], *DEGENERATE_INPUTS[degenerate]]
    # crb, sweep and table1: each row's pairs as the per-row oracle makes them
    seen = (_record_pairs(monkeypatch) if command == "montecarlo"
            else [cells for _, _, cells in cli_rows(argv)])
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    rows = _strict_json(out)["rows"]
    if command == "montecarlo":
        pairs = {key: pair for row_pairs in seen for key, pair in row_pairs.items()}
        assert {row["values"]["parameter"] for row in rows} <= set(pairs)
        for row in rows:
            values, pair = row["values"], pairs[row["values"]["parameter"]]
            assert row["methods"]["bound"] == pair.method
            assert values["singular"] is pair.singular
            assert (values["bound"] is None) is pair.singular
        return
    assert len(seen) == len(rows)
    for row, pairs in zip(rows, seen):
        values, tags = row["values"], row["methods"]
        # every tagged cell is a bound cell, and every bound cell is tagged
        assert set(tags) == set(pairs)
        flagged = values.get("singular", "").split(";")
        for key, pair in pairs.items():
            assert tags[key] == pair.method
            if pair.singular:
                assert values[key] is None
                assert "singular" not in values or key in flagged
            else:
                assert values[key] == getattr(pair, key.split("_")[1])


# every scalar kind a row, a tag or a setting can hold, with the JSON edge cases
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\u2603", "\U0001f600"]))
_JSON_DICTS = st.dictionaries(st.text(), _JSON_SCALARS, max_size=5)


@st.composite
def _tables(draw):
    """(row count, value columns, method tags): at least one value key, since the
    value columns count the rows; a tag is one for every row, or a list of one per row."""
    n = draw(st.integers(0, 4))
    cells = st.lists(_JSON_SCALARS, min_size=n, max_size=n)
    values = draw(st.dictionaries(st.text(), cells, min_size=1, max_size=5))
    return n, values, draw(st.dictionaries(st.text(), st.one_of(_JSON_SCALARS, cells),
                                           max_size=5))


def _written(values, methods, **settings):
    """What write_rows prints for the columns under the settings."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.write_rows(values, methods, cli.RunConfig(settings, out=None))
    return buf.getvalue()


_TABLE_CASES = {
    "zero rows": (0, {"a": [], "b": []}, {"b": "closed_form"}),
    "single row": (1, {"L": [1], "x": [0.5]}, {"x": "closed_form"}),
    "shared tags": (3, {"n0": [0, 1, 2], "b": [None, 2.0, 1e300]},
                    {"b": "closed_form", "%s": "100% \"tagged\"\n"}),
    "per-row tags": (2, {"b": [1.0, None], "r": [0.5, float("nan")]},
                     {"b": ["closed_form", "schur_numeric"], "r": "monte_carlo"}),
}


def _with_cases(**arguments):
    """Run a table test on every _TABLE_CASES table, with the other arguments given."""
    def decorate(test):
        for table in _TABLE_CASES.values():
            test = example(table=table, **arguments)(test)
        return test
    return decorate


@settings(max_examples=200)
@given(config=_JSON_DICTS, seed=_JSON_SCALARS, table=_tables())
@_with_cases(config={"out": "x.json", "%": "50%"}, seed=42)
def test_rows_json_equals_json_dumps_indent_2(config, seed, table):
    n, values, methods = table
    settings = {**config, "format": "json", "seed": seed}
    # the output path is left out of the config block
    payload = {"config": {key: settings[key] for key in sorted(settings) if key != "out"},
               "rows": [{"values": {key: column[i] for key, column in values.items()},
                         "methods": {key: tag[i] if isinstance(tag, list) else tag
                                     for key, tag in methods.items()}} for i in range(n)],
               "provenance": {"version": cli.__version__, "seed": seed}}
    assert _written(values, methods, **settings) == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=100)
@given(table=_tables())
@_with_cases()
def test_rows_csv_equals_csv_writer_over_the_row_lists(table):
    n, values, methods = table
    buf = io.StringIO()
    rows = [[column[i] for column in values.values()] for i in range(n)]
    csv.writer(buf).writerows([list(values), *rows] if rows else [])
    assert _written(values, methods, format="csv") == buf.getvalue()


# each axis with a base that keeps every sum finite; a and sigma_w2 are not dyadic
_SWEEP_CASES = st.one_of(
    st.tuples(st.sampled_from(["L", "P", "n0"]), st.integers(0, 6), st.integers(1, 3),
              st.integers(0, 5)),
    st.tuples(st.just("n_p"), st.integers(2, 40), st.integers(1, 7), st.integers(0, 5)),
    st.tuples(st.sampled_from(["a", "sigma_w2"]), st.floats(0.05, 7.0), st.floats(0.01, 3.0),
              st.integers(0, 5)))


@settings(max_examples=60)
@given(case=_SWEEP_CASES, n_p=st.integers(4, 40), q=st.integers(1, 3),
       delta=st.floats(0.01, 0.5), center=st.floats(0.0, 1.0), width=st.floats(0.05, 1.0),
       tau0=st.floats(0.0, 10.0), f0=st.floats(-5.0, 5.0), looks=st.tuples(
           st.integers(0, 4), st.integers(0, 4)), a=st.floats(0.1, 5.0),
       sigma2=st.floats(1e-3, 10.0), amp=st.sampled_from(["unit", "sqrt2"]))
def test_sweep_rows_equal_the_per_row_oracle(case, n_p, q, delta, center, width, tau0, f0,
                                            looks, a, sigma2, amp):
    axis, start, step, count = case
    stop = start + count * step
    span = n_p * delta
    argv = ["sweep", "--sweep", f"{axis}={start!r}:{stop!r}:{step!r}", "--np", str(n_p),
            "--Q", str(q), "--delta", repr(delta), "--center", repr(center * span),
            "--width2", repr((width * span) ** 2), "--tau0", repr(tau0), "--f0", repr(f0),
            "--L", str(looks[0]), "--P", str(looks[1]), "--a", repr(a),
            "--sigma2", repr(sigma2), "--amp-convention", amp]
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    expected = [(values, methods) for values, methods, _ in cli_rows(argv)]
    got = [(row["values"], row["methods"]) for row in json.loads(out)["rows"]]
    # bit for bit, in key order: the JSON text of both
    assert json.dumps(got) == json.dumps(expected)


# scales whose libm square a ** 2 and product a * a differ in the last bit
@pytest.mark.parametrize("argv", [
    ["sweep", "--sweep", "a=1.1819892991055851:3.653940296573571:2.472950997467986"],
    ["sweep", "--sweep", "L=0:3", "--a", "2.6120266406451877"],
    ["crb", "--a", "3.3215893189776295"]], ids=["a-axis", "L-axis", "crb"])
def test_scale_is_squared_as_a_product(argv):
    argv = [*argv, *BASE]
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    got = [(row["values"], row["methods"]) for row in doc["rows"]]
    assert json.dumps(got) == json.dumps([(v, m) for v, m, _ in cli_rows(argv)])
    # the columns, as the per-row oracle, square a as a * a, where a ** 2 differs
    scales = [row["values"].get("a", doc["config"]["a"]) for row in doc["rows"]]
    assert any(a ** 2 != a * a for a in scales)
    pts = ScenarioColumns.of(Scenario(0.0, 0.0, 1, 1, 1.0), scale=scales)
    assert pts.scale2.tolist() == [a * a for a in scales]


@pytest.mark.parametrize("argv,flagged", [
    # sum (t + tau0)^2 |s|^2 overflows: the separate and structured Doppler
    # bounds read 0.0 and nan, and the known and joint pairs are flagged
    (["crb", "--tau0", "1e200"],
     ["jcrb_tau0", "jcrb_f0", "jcrb_tau0_s", "jcrb_f0_s", "crb_f0_s", "jcrb_f0_b"]),
    # the sample times overflow: every known and joint sum is nan
    (["sweep", "--sweep", "n0=0:2", "--delta", "1e200"],
     ["jcrb_tau0", "jcrb_f0", "jcrb_tau0_s", "jcrb_f0_s", "jcrb_f0_b"]),
])
def test_overflowed_cells_are_null_flagged_and_noted(capsys, argv, flagged):
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    for row in _strict_json(out)["rows"]:
        values = row["values"]
        singular = values["singular"].split(";")
        for key, value in values.items():
            if key in row["methods"]:
                assert (value is None) is (key in singular)
                assert value is None or 0.0 < value < float("inf")
        assert set(flagged) == set(singular)
    # one note naming every null cell, and no numpy warning before it
    note = f"note: {', '.join(flagged)}: {OVERFLOW_NOTE}; printed as null\n"
    assert capsys.readouterr().err == note


# a^2 underflows to 0 (crb, sweep), P/sigma_w2 overflows or its square
# underflows (table1 --sigma2) and the time sums overflow (table1 --tau0,
# --delta): each step that meets a value that is not finite raises no numpy
# warning, which the suite's error::RuntimeWarning filter would turn into an
# exception, and every such cell is null and noted
@pytest.mark.parametrize("argv", [
    ["crb", "--a", "1e-170"], ["sweep", "--sweep", "a=1e-170:1e-169:1e-170"],
    ["crb", "--signal", "triangle", "--M", "16", "--a", "1e-170"],
    ["table1", "--sigma2", "1e-320"], ["table1", "--tau0", "1e200"],
    ["table1", "--delta", "1e300"], ["table1", "--sigma2", "1e308"],
    # finite signals whose sums overflow, beside the grids that are not finite
    ["crb", "--delta", "1e200"], ["crb", "--tau0", "1e200"]],
    ids=lambda argv: " ".join(argv))
def test_extreme_inputs_raise_no_numpy_warning(capsys, argv):
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    for row in _strict_json(out)["rows"]:
        cells = [row["values"][key] for key in row["methods"]]
        assert None in cells
        assert all(value is None or 0.0 < value < float("inf") for value in cells)
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("note: ") and line.endswith("printed as null")
                       for line in err), err


@pytest.mark.parametrize("argv,noted", [
    # P / sigma_w2 overflows: every Doppler cell and both _schur cells are null
    (["table1", "--sigma2", "1e-320"],
     ["jcrb_f0_s", "jcrb_f0", "jcrb_tau0_s_schur", "jcrb_f0_s_schur", "ratio_f0"]),
    # the time sums overflow: every bound cell is null
    (["table1", "--tau0", "1e200"], list(cli.TABLE1_COLUMNS)),
], ids=["sigma2 1e-320", "tau0 1e200"])
def test_table1_note_names_exactly_its_null_cells(capsys, argv, noted):
    # the note names only columns table1 prints, in their order, and its _schur
    # cells (eliminated_pair of a FIM that is not finite) among them
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    rows = _strict_json(out)["rows"]
    assert [key for key in cli.TABLE1_COLUMNS
            if any(row["values"][key] is None for row in rows)] == noted
    assert all(row["values"][key] is None for row in rows
               for key in ("jcrb_tau0_s_schur", "jcrb_f0_s_schur"))
    note = f"note: {', '.join(noted)}: {OVERFLOW_NOTE}; printed as null\n"
    assert capsys.readouterr().err == note


def test_doppler_bounds_assume_a_known_reflected_phase():
    # the Doppler phase is referenced to t = 0 and the reflected carrier phase is
    # known, so the f0 bound falls as the path grows while the delay bound stays:
    # a longer path does not make Doppler easier, the phase reference does
    got = {}
    for tau0 in ("0.05", "10", "100"):
        code, out = run_cli(["crb", "--tau0", tau0, "--format", "json"])
        assert code == 0
        [row] = json.loads(out)["rows"]
        got[tau0] = row["values"]["jcrb_tau0"], row["values"]["jcrb_f0"]
    for tau0, f0 in (("0.05", 5.33e-7), ("10", 8.73e-8), ("100", 2.02e-9)):
        assert got[tau0][0] == pytest.approx(got["0.05"][0], rel=1e-12)
        assert got[tau0][0] == pytest.approx(0.011971, rel=1e-4)
        assert got[tau0][1] == pytest.approx(f0, rel=5e-3)


class TestCrbCommand:
    def test_single_row_with_structure_columns(self):
        code, out = run_cli(["crb", *BASE])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["jcrb_tau0_b"]) <= float(row["jcrb_tau0_s"])
        assert row["singular"] == ""

    def test_triangle_signal(self):
        code, out = run_cli(["crb", "--signal", "triangle", "--M", "16",
                             "--delta", "0.5", "--tau0", "1.0", "--f0", "0.1"])
        assert code == 0
        rows = parse_csv(out)
        assert "jcrb_tau0_b" not in rows[0]

    def test_l_zero_flagged_not_crash(self):
        code, out = run_cli(["crb", *BASE, "--L", "0"])
        assert code == 0
        row = parse_csv(out)[0]
        assert "jcrb_tau0_s" in row["singular"]
        assert row["jcrb_tau0_s"] == ""

    def test_p_zero_flagged_not_crash(self):
        code, out = run_cli(["crb", *BASE, "--P", "0"])
        assert code == 0
        row = parse_csv(out)[0]
        assert "jcrb_tau0_b;jcrb_f0_b" in row["singular"]
        assert row["jcrb_tau0_b"] == ""


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"np": 60, "delta": 0.05, "Q": 2, "center": 1.5, "width2": 0.09,
               "tau0": 0.1, "f0": 2.0, "sigma2": 4.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _, out_file = run_cli(["crb", "--config", str(path)])
        _, out_flag = run_cli(["crb", "--config", str(path), "--sigma2", "8.0"])
        v_file = float(parse_csv(out_file)[0]["jcrb_tau0"])
        v_flag = float(parse_csv(out_flag)[0]["jcrb_tau0"])
        assert v_flag == pytest.approx(2 * v_file, rel=1e-12)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": 1}))
        code, _ = run_cli(["crb", "--config", str(path)])
        assert code == 1

    def test_missing_config_file_is_io_error(self):
        code, _ = run_cli(["crb", "--config", "/nonexistent/cfg.json"])
        assert code == 2

    def test_unwritable_out_is_io_error(self):
        code, _ = run_cli(["crb", *BASE, "--out", "/nonexistent/dir/out.csv"])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["crb", "--np", "0"], ["crb", "--P", "-1"], ["crb", "--sigma2", "0"],
        ["crb", "--delta", "0"], ["crb", "--Q", "0"], ["crb", "--tau0", "-1"],
        ["table1", "--np", "0"], ["overlap", "--M", "0"],
        ["montecarlo", "--trials", "0"], ["montecarlo", "--fpoints", "0"],
        ["montecarlo", "--fspan", "0"], ["montecarlo", "--tauspan", "0"],
        ["montecarlo", "--fpoints", "1"], ["overlap", "--P", "0"],
        ["crb", "--sigma2", "inf"], ["crb", "--tau0", "nan"], ["crb", "--center", "nan"],
        ["crb", "--a", "inf"], ["crb", "--delta", "inf"],
        ["montecarlo", "--trials", "100000000000"],
        ["montecarlo", "--trials", str(MONTECARLO_MAX["trials"] + 1)],
        ["montecarlo", "--fpoints", "1000000000"],
        ["montecarlo", "--fpoints", str(MONTECARLO_MAX["fpoints"] + 1)],
        ["montecarlo", "--tauspan", "1000000000"],
        ["montecarlo", "--tauspan", str(MONTECARLO_MAX["tauspan"] + 1)],
        ["overlap", "--M", "1000000"], ["overlap", "--M", str(OVERLAP_MAX_M + 2)],
        ["montecarlo", "--seed", "-1"],
        # a Doppler grid whose ends, or whose span 2 fspan, overflow
        ["montecarlo", "--f0", "1e308", "--fspan", "1e308"],
        ["montecarlo", "--f0", "0", "--fspan", "1e308"],
        # a pulse grid, a triangle's samples or a pulse derivative that is not
        # finite, rejected with no numpy warning on the way
        ["crb", "--delta", "1e308"], ["table1", "--delta", "1e308"],
        ["sweep", "--sweep", "n0=1:2", "--delta", "1e308"],
        ["montecarlo", "--tau0", "0", "--trials", "2", "--delta", "1e308"],
        ["crb", "--Tp", "1e308"], ["crb", "--center", "1e308", "--delta", "1"],
        ["crb", "--width2", "1e-320"], ["crb", "--signal", "triangle", "--delta", "1e308"],
        *ZERO_NP_WITH_TP,
    ], ids=" ".join)
    def test_out_of_range_flag_is_usage_error(self, args):
        # main must return the usage-error code, not raise the model's ValueError
        code, _ = run_cli(args)
        assert code == 1

    @pytest.mark.parametrize("args", ZERO_NP_WITH_TP, ids=" ".join)
    def test_zero_np_with_tp_is_the_library_rule(self, capsys, args):
        # Tp/np is not divided by zero: the pulse's own rule is reported
        assert run_cli(args)[0] == 1
        assert capsys.readouterr().err == "Error: n_p must be at least 1\n"

    # signals of about 1e13 samples, which no machine allocates, and signals just
    # above the cap: each fails before any signal is made
    @pytest.mark.parametrize("args", [
        ["crb", "--np", "10000000000000"], ["table1", "--np", "10000000000000"],
        ["sweep", "--sweep", "L=1:2", "--Q", "10000000000000"],
        ["crb", "--signal", "triangle", "--M", "10000000000000"],
        ["crb", "--Q", "1", "--np", str(SIGNAL_MAX_SAMPLES + 1)],
        ["crb", "--signal", "triangle", "--M", str(SIGNAL_MAX_SAMPLES + 2)],
        # the pulse alone has n_p + 1 samples, whatever the pulse count
        ["crb", "--Q", "0", "--np", "10000000000000"],
        # every row of an n_p sweep is checked before the first signal is made
        ["sweep", "--sweep", f"n_p=1:{SIGNAL_MAX_SAMPLES + 1}:{SIGNAL_MAX_SAMPLES}", "--Q", "1"],
        # each row of an n_p sweep fits, but the rows' signals are all kept at once
        ["sweep", "--sweep", "n_p=600000:600001", "--Q", "1"],
        ["montecarlo", "--np", "10000000000000"],
    ], ids=" ".join)
    def test_signal_cap_holds_before_any_signal_is_made(self, monkeypatch, capsys, args):
        import ddcrb.cli

        def unreachable(*args):
            raise AssertionError("a signal was made above the cap")
        for name in ("gaussian_pulse_train", "triangle_wave"):
            monkeypatch.setattr(ddcrb.cli, name, unreachable)
        assert run_cli(args) == (1, "")
        assert "signal samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command, report, config", [
        ("montecarlo", "monte_carlo_report", {"trials": 10 ** 11}),
        ("overlap", "triangle_overlap_curve", {"M": 10 ** 6}),
        # n0 = tau0/delta is about 5e298 samples
        ("montecarlo", "monte_carlo_report", {"delta": 1e-300}),
        ("montecarlo", "monte_carlo_report", {"tau0": 1e7, "delta": 1.0}),
    ])
    def test_caps_hold_before_any_work(self, monkeypatch, tmp_path, capsys,
                                       command, report, config):
        import ddcrb.cli

        def unreachable(*args):
            raise AssertionError("work started above the cap")
        monkeypatch.setattr(ddcrb.cli, report, unreachable)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        # a config-file value is capped like the flag
        assert run_cli([command, "--config", str(path)])[0] == 1
        assert "above the cap" in capsys.readouterr().err

    def test_fpoints_at_the_cap_runs(self):
        code, out = run_cli([*TestMonteCarloCommand.ARGS, "--trials", "2",
                             "--fpoints", str(MONTECARLO_MAX["fpoints"])])
        assert code == 0
        assert len(parse_csv(out)) == 4

    def test_numerical_fault_is_not_a_usage_error(self, monkeypatch):
        import ddcrb.cli

        def broken(signals, pts):
            raise ValueError("FIM not positive semidefinite")
        monkeypatch.setattr(ddcrb.cli, "signal_bound_columns", broken)
        with pytest.raises(ValueError, match="semidefinite"):
            run_cli(["crb", *BASE])

    def test_conflicting_delta_and_tp(self):
        code, _ = run_cli(["crb", *BASE, "--Tp", "7.0"])
        assert code == 1

    def test_signal_file_roundtrip(self, tmp_path):
        sig_path = tmp_path / "sig.json"
        samples = [0.0, 0.5, 1.0, 0.5, 0.0, 0.0]
        sig_path.write_text(json.dumps({
            "delta": 0.5, "samples_real": samples,
            "samples_imag": [0.0] * 6,
        }))
        code, out = run_cli(["crb", "--signal", str(sig_path),
                             "--tau0", "1.0", "--f0", "0.2"])
        assert code == 0
        assert float(parse_csv(out)[0]["jcrb_tau0"]) > 0

    @pytest.mark.parametrize("text,flags,message", [
        ('{"format": "xml"}', None, "'format'"),
        ('{"L": "x"}', None, "'L'"),
        ('{"sigma2": "2"}', ["--sigma2", "2"], None),
        ('{"seed": 1.5}', None, "config key 'seed'"),
        ('{"a": Infinity}', None, "'a': 'inf' is not a finite number"),
        ("7", None, "one JSON object"),
        ('{"L": 1', None, "not valid JSON"),
    ], ids=["bad-choice", "bad-int", "string-float", "float-seed", "infinite-float",
            "not-object", "malformed"])
    def test_config_values_read_as_flags(self, tmp_path, capsys, text, flags, message):
        # the seed is montecarlo's alone
        base = TestMonteCarloCommand.ARGS if "seed" in text else ["crb", *BASE]
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out = run_cli([*base, "--config", str(path)])
        if flags is None:
            assert (code, out) == (1, "")
            assert message in capsys.readouterr().err
        else:
            assert (code, out) == run_cli([*base, *flags])

    def test_null_config_value_counts_as_omitted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"L": null, "out": null}')
        assert run_cli(["crb", *BASE, "--config", str(path)]) == run_cli(["crb", *BASE])

    @pytest.mark.parametrize("config,args", [
        (None, ["sweep", "--sweep", "n_p=10:12", "--Tp", "4", "--delta", "0.3"]),
        ({"delta": 0.3}, ["crb", "--Tp", "4"]),
        ({"Tp": 4, "delta": 0.3}, ["sweep", "--sweep", "n_p=10:12"]),
    ], ids=["np-sweep-flags", "crb-file-delta", "np-sweep-file"])
    def test_delta_conflicts_with_tp_wherever_given(self, tmp_path, config, args):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        assert run_cli(args)[0] == 1

    @pytest.mark.parametrize("args", [
        ["crb", *BASE], ["table1", *TABLE1_BASE], ["sweep", "--sweep", "a=1:2", *BASE],
        TestMonteCarloCommand.ARGS], ids=["crb", "table1", "sweep", "montecarlo"])
    def test_config_delta_is_the_delta_the_rows_used(self, args):
        # --np n --Tp n x computes every row at delta x, as --np n --delta x does
        at = args.index("--delta")
        delta, period = float(args[at + 1]), int(args[args.index("--np") + 1]) * float(args[at + 1])
        given = json.loads(run_cli([*args, "--format", "json"])[1])
        derived = json.loads(run_cli([*args[:at], *args[at + 2:], "--Tp", repr(period),
                                      "--format", "json"])[1])
        assert derived["config"]["delta"] == delta
        assert (derived["config"].pop("Tp"), given["config"].pop("Tp")) == (period, None)
        assert derived == given

    def test_np_sweep_config_keeps_the_given_delta(self):
        # each row has its own delta, in its delta column
        out = json.loads(run_cli(["sweep", "--sweep", "n_p=10:12", "--Tp", "4", "--Q", "1",
                                  "--tau0", "0.5", "--format", "json"])[1])
        assert out["config"]["delta"] == cli.DEFAULTS["delta"]
        assert [row["values"]["delta"] for row in out["rows"]] == [4 / 10, 4 / 11, 4 / 12]

    @pytest.mark.parametrize("name,content,missing", [
        ("sig.json", {"delta": 0.5, "samples_imag": [0.0] * 6}, "samples_real"),
        ("sig.json", {"samples_real": [0.0, 1.0, 0.0, 0.0]}, "delta"),
        ("sig.npz", {"delta": 0.5, "deriv": np.zeros(6)}, "samples"),
        ("sig.npz", {"samples": np.arange(6.0)}, "delta"),
    ], ids=["json-samples", "json-delta", "npz-samples", "npz-delta"])
    def test_signal_file_missing_key_is_usage_error(self, tmp_path, capsys, name,
                                                    content, missing):
        sig_path = tmp_path / name
        if name.endswith(".npz"):
            np.savez(sig_path, **content)
        else:
            sig_path.write_text(json.dumps(content))
        code, _ = run_cli(["crb", "--signal", str(sig_path), "--tau0", "1.0"])
        assert code == 1
        assert repr(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("name,content,message", [
        ("sig.json", {"samples_real": [0, 1, 0, 0], "delta": np.nan},
         "'delta' must be a number, not inf or nan"),
        ("sig.json", {"samples_real": [0, 1, 0, 0], "delta": np.inf}, "'delta' must be"),
        ("sig.json", {"samples_real": [0, np.nan, 0, 0], "delta": 0.5},
         "'samples_real' must be a 1-D array of numbers, not inf or nan"),
        ("sig.json", {"samples_real": [0, 1, 0, 0], "samples_imag": [0, np.inf, 0, 0],
                      "delta": 0.5}, "'samples_imag' must be"),
        ("sig.json", {"samples_real": [0, 1, 0, 0], "deriv_real": [0, -np.inf, 0, 0],
                      "delta": 0.5}, "'deriv_real' must be"),
        ("sig.npz", {"samples": [0, complex(0, np.nan), 0], "delta": 0.5}, "'samples' must be"),
        # finite samples whose differences overflow, a last sample time 2e308 and
        # a negative delta: checked by the signal model, and the file still named
        ("sig.json", {"samples_real": [0, 1e300, 2e300, 1, 0], "delta": 1e-300},
         ": the derivative differenced from the samples must be finite"),
        ("sig.json", {"samples_real": [0, 1, 0], "delta": 1e308}, "last sample time 2 * 1e+308"),
        ("sig.json", {"samples_real": [0, 1, 0], "deriv_real": [1, 0, -1], "delta": -1.0},
         "delta must be finite and positive"),
    ], ids=["nan-delta", "inf-delta", "nan-samples", "inf-imag", "inf-deriv", "npz-nan-samples",
            "overflowed-differences", "overflowed-time", "negative-delta"])
    def test_signal_file_not_finite_is_usage_error(self, tmp_path, capsys, name, content,
                                                   message):
        sig_path = tmp_path / name
        if name.endswith(".npz"):
            np.savez(sig_path, **content)
        else:
            sig_path.write_text(json.dumps(content))
        code, out = run_cli(["crb", "--signal", str(sig_path), "--tau0", "0"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"Error: signal file {sig_path}") and message in err, err

    @pytest.mark.parametrize("text,message", [
        ("7", "must hold one JSON object"),
        ('{"samples_real": 5, "delta": 0.1}', "'samples_real' must be a 1-D array"),
        ('{"samples_real": [[1, 2]], "delta": 0.1}', "'samples_real' must be a 1-D array"),
        ('{"samples_real": {"a": 1}, "delta": 0.1}', "'samples_real' must be a 1-D array"),
        ('{"samples_real": [1, 2, 3], "delta": [0.1]}', "'delta' must be a number"),
        ('{"samples_real": [1, 2, 3], "samples_imag": [1], "delta": 0.1}', "differ in length"),
        ('{"samples_real": [1, 2', "not valid JSON"),
    ], ids=["scalar-file", "scalar-samples", "2d-samples", "object-samples", "list-delta",
            "short-imag", "malformed"])
    def test_malformed_signal_file_is_usage_error(self, tmp_path, capsys, text, message):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(text)
        code, out = run_cli(["crb", "--signal", str(sig_path), "--tau0", "1.0"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert f"signal file {sig_path}" in err and message in err

    @pytest.mark.parametrize("args", [["sweep", "--sweep", "L=1:2", *BASE],
                                      TestMonteCarloCommand.ARGS], ids=["sweep", "montecarlo"])
    def test_amp_convention_both_only_for_crb_and_table1(self, capsys, args):
        code, out = run_cli([*args, "--amp-convention", "both"])
        assert (code, out) == (1, "")
        assert "only by crb and table1" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ddcrb.cli", "crb", *BASE],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "jcrb_tau0" in proc.stdout


# a valid value for every setting, as a config file holds it; float
# settings get an integer where the flag would print it as a float
CONTRACT_VALUES = {
    "signal": "triangle", "delta": 0.04, "np": 50, "Q": 3, "Tp": 3, "tau0": 1,
    "f0": 2, "L": 2, "P": 3, "a": 2, "sigma2": 2, "amp_convention": "sqrt2",
    "center": 1, "width2": 0.1, "M": 8, "format": "json", "out": "out.csv",
    "seed": 7, "trials": 4, "sweep": "L=1:3", "fspan": 0.2, "fpoints": 11,
    "tauspan": 2,
}
# the subcommand and base flags that read each setting (crb by default)
CONTRACT_BASE = {"M": ["overlap"], "sweep": ["sweep", *BASE],
                 **dict.fromkeys(("seed", "trials", "fspan", "fpoints", "tauspan"),
                                 TestMonteCarloCommand.ARGS)}


def _option_rows():
    from ddcrb.cli import OPTIONS
    return [row[:2] for row in OPTIONS]


def test_contract_values_cover_every_setting():
    assert sorted(key for _, key in _option_rows()) == sorted(CONTRACT_VALUES)


# the settings each subcommand reads, --config's config_path among them
_SCENARIO_SETTINGS = {"config_path", "signal", "delta", "np", "Q", "Tp", "tau0", "f0", "L",
                      "P", "a", "sigma2", "amp_convention", "center", "width2", "M",
                      "format", "out"}
COMMAND_SETTINGS = {
    "crb": _SCENARIO_SETTINGS,
    "table1": _SCENARIO_SETTINGS - {"signal", "L", "P", "a", "M", "f0"},
    "sweep": _SCENARIO_SETTINGS | {"sweep"},
    "overlap": {"config_path", "M", "P", "sigma2", "format", "out"},
    "montecarlo": _SCENARIO_SETTINGS - {"a"} | {"seed", "trials", "fspan", "fpoints", "tauspan"},
}


def test_each_subcommand_takes_only_the_settings_it_reads():
    # the keywords each callback is given: every setting, None when not given
    taken = {name: set(command.parse([])) for name, command in cli.COMMANDS.items()}
    assert taken == COMMAND_SETTINGS
    assert {name: len(keys) for name, keys in taken.items()} == {
        "crb": 18, "table1": 12, "sweep": 19, "overlap": 6, "montecarlo": 22}


# (argv, exit code, stdout empty, text stderr holds) of the argument contract;
# an accepted argv prints the bytes of its spelled-out form in ARGV_SPELLED_OUT
ARGV_SPELLED_OUT = {("crb", "--f0", "-1e-3"): ["crb", "--f0=-0.001"],
                    ("crb", "--f0=-2"): ["crb", "--f0", "-2"],
                    ("crb", "--np", "60", "--np", "70"): ["crb", "--np", "70"]}


@pytest.mark.parametrize("argv,code,quiet,message", [
    ([], 1, True, "Usage"),
    (["--help"], 0, False, ""),
    (["crb", "--help"], 0, False, ""),
    (["sweep", "--help"], 0, False, ""),
    (["nosuch"], 1, True, "No such command"),
    (["crb", "--np"], 1, True, "requires an argument"),
    (["crb", "--np", "x"], 1, True, "not a valid integer"),
    (["crb", "--format", "xml"], 1, True, "not one of"),
    (["crb", "--delta", "inf"], 1, True, "not a finite number"),
    (["crb", "extra"], 1, True, "unexpected extra argument"),
    # a flag's prefix is not expanded to the flag
    (["crb", "--sig", "triangle"], 1, True, "No such option"),
    *((list(argv), 0, False, "") for argv in ARGV_SPELLED_OUT),
], ids=lambda v: (" ".join(v) or "no-args") if isinstance(v, list) else None)
def test_argument_contract(capsys, argv, code, quiet, message):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out == "") == quiet
    assert message in err
    if "--help" in argv:
        command = argv[0] if len(argv) > 1 else None
        # the group's help names every command; a command's, every flag it takes
        names = (list(cli.COMMANDS) if command is None else
                 ["--config", "--help", *(flag for flag, *_, commands in cli.OPTIONS
                                          if command in commands)])
        assert all(name in out for name in names)
    if tuple(argv) in ARGV_SPELLED_OUT:
        assert (code, out) == run_cli(ARGV_SPELLED_OUT[tuple(argv)])


@pytest.mark.parametrize("args,config", [
    (["overlap", "--np", "5"], None), (["table1", "--L", "0"], None),
    (["crb", "--trials", "3"], None), (["crb"], {"seed": 1}),
    (["overlap"], {"a": 0}), (["table1"], {"signal": "triangle"}),
], ids=["overlap-np", "table1-L", "crb-trials", "crb-config-seed", "overlap-config-a",
        "table1-config-signal"])
def test_setting_outside_the_command_is_usage_error(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    assert run_cli(args) == (1, "")
    err = capsys.readouterr().err
    assert ("No such option" in err if config is None
            else f"does not take: {sorted(config)}" in err)


@pytest.mark.parametrize("flag,key", _option_rows(), ids=lambda v: v)
def test_config_key_gives_same_output_as_flag(tmp_path, monkeypatch, flag, key):
    """A config file {key: v} and the flag --<flag> v give the same bytes."""
    monkeypatch.chdir(tmp_path)
    value = CONTRACT_VALUES[key]
    base = CONTRACT_BASE.get(key, ["crb", *BASE])
    if flag in base:
        at = base.index(flag)
        base = base[:at] + base[at + 2:]
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))

    def output(args):
        code, out = run_cli([*base, *args])
        assert code == 0
        if key == "out":
            out = (tmp_path / "out.csv").read_text()
            (tmp_path / "out.csv").unlink()
        return out

    assert output(["--config", "cfg.json"]) == output([flag, str(value)])
