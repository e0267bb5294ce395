"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers. Run with `pytest -s` to see the
lines inline; they are also captured in the test report on failure.
"""

import csv
import io

import numpy as np
import pytest

import ddcrb as d
from ddcrb.cli import main as cli_main
from ddcrb.fim import invert_bound_matrix, schur_complement

from conftest import make_contained_train, rel_err
from dense_oracles import dense_dc, fim_kron_form, overlap_information_dense


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def table1_signal(convention="unit", n_p=500, delta=0.01, q=2):
    b_val = {"unit": (1 + 1j) / np.sqrt(2), "sqrt2": 1 + 1j}[convention]
    pt = d.gaussian_pulse_train(n_p, delta, 4.0, 9.0, np.full(q, b_val))
    return d.synthesize_pulse_train(pt)


def scenario(l, p, a=1.0, tau0=0.05, f0=20.0, sigma_w2=1.0):
    return d.Scenario(tau0=tau0, f0=f0, looks_direct=l, looks_reflected=p,
                      sigma_w2=sigma_w2, scale=a)


def test_criterion_1_factor_law():
    """Unknown/known bound ratio equals (L+P)/(L*P) on both formula paths."""
    sig_full = table1_signal()
    worst_closed = 0.0
    for l in range(1, 9):
        for p in range(1, 9):
            sc = scenario(l, p)
            known = d.jcrb_known(sig_full, sc)
            unknown = d.jcrb_unknown(sig_full, sc)
            factor = (l + p) / (l * p)
            worst_closed = max(worst_closed,
                               abs(unknown.tau0 / known.tau0 / factor - 1),
                               abs(unknown.f0 / known.f0 / factor - 1))
    # numeric elimination path on an M = 64 version of the same signal
    sig64 = table1_signal(n_p=32, delta=5.0 / 32)
    assert sig64.m == 64
    worst_schur = 0.0
    for l in range(1, 9):
        for p in range(1, 9):
            sc = scenario(l, p)
            known = d.jcrb_known(sig64, sc)
            fim = d.fim_unknown_signal(sig64, sc)
            inv = invert_bound_matrix(schur_complement(fim),
                                      float(np.max(np.abs(fim.entries[:2, :2]))))
            factor = (l + p) / (l * p)
            worst_schur = max(worst_schur,
                              abs(inv[0, 0] / known.tau0 / factor - 1),
                              abs(inv[1, 1] / known.f0 / factor - 1))
    report(1, "factor law", worst_closed <= 1e-12 and worst_schur <= 1e-8,
           f"closed-form err {worst_closed:.2e} (tol 1e-12), "
           f"numeric err {worst_schur:.2e} (tol 1e-8)")


def test_criterion_2_table1(tmp_path):
    """table1 command reproduces the reference ratios and delay column."""
    out = tmp_path / "table1.csv"
    code = cli_main(["table1", "--amp-convention", "both", "--format", "csv",
                     "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    ratio_ok = True
    for row in rows:
        target = {1: 2.0, 2: 1.5, 100: 1.01}[int(row["L"])]
        for col in ("ratio_tau0", "ratio_f0"):
            ratio_ok &= abs(float(row[col]) / target - 1) <= 0.01

    # reference delay column pair (0.0119, 0.0239) at L=1
    reference = {"jcrb_tau0": 0.0119, "jcrb_tau0_s": 0.0239}
    match = {}
    for conv in ("unit", "sqrt2"):
        row = next(r for r in rows if r["amp_convention"] == conv
                   and int(r["L"]) == 1)
        errs = [abs(float(row[k]) / v - 1) for k, v in reference.items()]
        match[conv] = max(errs)
    abs_ok = min(match.values()) <= 0.25

    # the verified value: closed form cross-checked by the numeric
    # elimination column of the same table (the FD oracle validates this
    # pipeline on contained pulses in criterion 3; the reference pulse is
    # truncated, which leaves no unambiguous continuous-time model to
    # difference directly)
    unit_row = next(r for r in rows if r["amp_convention"] == "unit"
                    and int(r["L"]) == 1)
    closed = float(unit_row["jcrb_tau0_s"])
    schur = float(unit_row["jcrb_tau0_s_schur"])
    dual_ok = abs(schur / closed - 1) <= 1e-8
    report(2, "table1 ratios and delay column", ratio_ok and abs_ok and dual_ok,
           f"ratio cols within 1%: {ratio_ok}; delay-pair rel err unit "
           f"{match['unit']:.3f}, sqrt2 {match['sqrt2']:.3f} (need one <= 0.25); "
           f"verified jcrb_tau0_s = {closed:.6f} (numeric-elimination path "
           f"agrees to {abs(schur / closed - 1):.1e}) vs reference 0.0239, "
           f"discrepancy {match['unit'] * 100:.1f}%; the reference Doppler "
           f"column uses a different normalization and is bound by the ratio "
           f"criterion only")


def test_criterion_3_oracle_equivalence():
    """Finite-difference mean-Jacobian FIMs match the analytic ones."""
    errs = {}
    pt16, g16, dg16 = make_contained_train(n_p=16, delta=0.25, b=(0.9 - 0.4j,))
    sig16 = d.synthesize_pulse_train(pt16)
    s_fn, _ = d.pulse_train_fn(pt16, g16, dg16)

    sc = d.Scenario(tau0=0.75, f0=0.3, looks_direct=2, looks_reflected=1,
                    sigma_w2=0.5)
    errs["known 2x2"] = rel_err(
        d.fim_known_signal(sig16, sc).entries,
        d.oracle_fim_mean(sc, params="known", signal_fn=s_fn,
                          delta=0.25, m=16).entries)
    errs["unknown 2+2M, M=16"] = rel_err(
        d.fim_unknown_signal(sig16, sc).entries,
        d.oracle_fim_mean(sc, params="unknown", signal_fn=s_fn,
                          delta=0.25, m=16).entries)

    pt_q4, g_q4, _ = make_contained_train(
        n_p=20, delta=0.25, b=(0.8 + 0.5j, -0.3 + 1.1j, 1.2 - 0.2j, 0.5 + 0.9j))
    sc_q4 = d.Scenario(tau0=0.5, f0=0.4, looks_direct=2, looks_reflected=3,
                       sigma_w2=0.8)
    errs["structure 2+2Q, Q=4"] = rel_err(
        d.fim_known_structure(pt_q4, sc_q4).entries,
        d.oracle_fim_mean(sc_q4, params="structure", pt=pt_q4, g_fn=g_q4).entries)

    sc_a = d.Scenario(tau0=0.75, f0=0.3, looks_direct=2, looks_reflected=1,
                      sigma_w2=0.5, scale=1.7)
    errs["unknown-a 3+2M, M=16"] = rel_err(
        d.fim_unknown_a(sig16, sc_a, structure=False).entries,
        d.oracle_fim_mean(sc_a, params="unknown_a", signal_fn=s_fn,
                          delta=0.25, m=16).entries)
    worst = max(errs.values())
    report(3, "oracle equivalence", worst <= 1e-4,
           "; ".join(f"{k}: {v:.2e}" for k, v in errs.items()) + " (tol 1e-4)")


def test_criterion_4_structure_decoupling_and_ordering():
    """V decouples, rho vanishes for symmetric pulses, structure helps."""
    rng = np.random.default_rng(20)
    worst_v12 = 0.0
    worst_rho = 0.0
    cases = 0
    ordering_ok = True
    for b_seed in range(16):
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pt, _, _ = make_contained_train(b=tuple(b), width_frac=0.08)
        sig = d.synthesize_pulse_train(pt)
        sq = d.structure_quantities(pt, 0.5)
        rho_scale = max(float(np.sum(np.abs(pt.g_deriv * pt.g))), 1.0)
        worst_rho = max(worst_rho, abs(sq.rho) / rho_scale)
        for l in (1, 2, 8):
            for p in (1, 3):
                sc = scenario(l, p, tau0=0.5, f0=0.4)
                v_num = schur_complement(d.fim_known_structure(pt, sc))
                worst_v12 = max(worst_v12, abs(v_num[0, 1]) / abs(v_num[0, 0]))
                for a in (0.5, 1.0, 2.0, 4.0):
                    sc_a = scenario(l, p, a=a, tau0=0.5, f0=0.4)
                    from ddcrb.scaled import jcrb_structure_known_a
                    structured = jcrb_structure_known_a(pt, sc_a)
                    joint, _ = d.jcrb_scaled_known_a(sig, sc_a)
                    ordering_ok &= (structured.tau0 < joint.tau0
                                    and structured.f0 < joint.f0)
                    cases += 1
    ok = worst_v12 <= 1e-10 and worst_rho <= 1e-12 and ordering_ok
    report(4, "structure decoupling and ordering", ok,
           f"|V12|/|V11| max {worst_v12:.2e} (tol 1e-10), symmetric-pulse rho "
           f"max {worst_rho:.2e} (tol 1e-12), strict ordering in {cases} cases: "
           f"{ordering_ok}")


def test_criterion_5_overlap_closed_forms():
    """Triangle-wave overlap bounds: exact values, singularity, ordering."""
    m = 16
    sc = d.Scenario(tau0=0.0, f0=0.0, looks_direct=0, looks_reflected=2,
                    sigma_w2=0.7)
    ref = 0.7 / 2 * 2 / m
    rows = {r["n0"]: r for r in d.triangle_overlap_curve(m, sc)}
    non_err = abs(rows[m]["crb_tau0"] / ref - 1)
    closed_ok = True
    worst_closed = 0.0
    sig = d.triangle_wave(m)
    for n0 in range(8, 16):
        expected = 0.7 / 2 * 6 / (5 * m - 2 * n0)
        of = d.fim_overlap(sig, n0, sc)
        rep = d.crb_overlap(of)
        worst_closed = max(worst_closed,
                           abs(rep.values["tau0"] / expected - 1),
                           abs(1.0 / overlap_information_dense(of) / expected - 1))
        closed_ok &= rep.method == "closed_form"
    vals = [rows[n0]["crb_tau0"] for n0 in range(8, 16)]
    increasing = bool(np.all(np.diff(vals) > 0))
    below_ref = all(v < ref for v in vals)
    singular0 = rows[0]["singular"]
    ok = (non_err <= 1e-12 and worst_closed <= 1e-10 and closed_ok
          and increasing and below_ref and singular0)
    report(5, "overlap closed forms", ok,
           f"no-overlap err {non_err:.2e} (tol 1e-12), closed and eliminated vs exact err "
           f"{worst_closed:.2e} (tol 1e-10), n0=0 singular: {singular0}, "
           f"increasing on [8,15]: {increasing}, all below reference: {below_ref}")


def test_criterion_6_covariance_duality():
    """Rank-two trace-form and dense Kronecker-form FIMs agree on random PSD
    instances."""
    rng = np.random.default_rng(30)
    pt, _, _ = make_contained_train(n_p=4, delta=0.5, b=(1.0 - 0.5j,))
    sig = d.synthesize_pulse_train(pt)
    worst = 0.0
    instances = 0
    for seed in range(50):
        l = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n = 8
        dim = n * (l + p)
        assert dim <= 32
        sc = d.Scenario(tau0=2 * sig.delta, f0=float(rng.uniform(-1, 1)),
                        looks_direct=l, looks_reflected=p, sigma_w2=1.0,
                        record_length=n)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sigma_cn = a @ a.conj().T / dim + 0.5 * np.eye(dim)
        model = d.build_stacked(sig, sc, sigma_cn)
        g = d.dc_list(model, sig, sc)
        worst = max(worst, rel_err(d.fim_trace_form(model, g).entries,
                                   fim_kron_form(model, dense_dc(model, g)).entries))
        instances += 1
    report(6, "covariance-form duality", instances >= 50 and worst <= 1e-8,
           f"{instances} instances, max entrywise rel err {worst:.2e} (tol 1e-8)")


def test_criterion_7_singularity_contract():
    """L = 0 or P = 0 always flags, never crashes, never a finite bound."""
    sig = table1_signal(n_p=32, delta=5.0 / 32)
    pt, _, _ = make_contained_train()
    flagged = []
    for l, p in ((0, 1), (0, 5), (1, 0), (7, 0)):
        sc = scenario(l, p)
        pair = d.jcrb_unknown(sig, sc)
        flagged.append(pair.singular and not np.isfinite(pair.tau0))
        pair = d.crb_separate_unknown(sig, sc)
        flagged.append(pair.singular and not np.isfinite(pair.f0))
        fim = d.fim_unknown_signal(sig, sc)
        inv = invert_bound_matrix(schur_complement(fim),
                                  float(np.max(np.abs(fim.entries[:2, :2]))))
        flagged.append(inv is None)
        joint, sep = d.jcrb_scaled_known_a(sig, scenario(l, p, a=1.5))
        flagged.append(joint.singular and sep.singular)
        joint, sep = d.jcrb_unknown_a_structure(pt, scenario(l, p, a=1.5,
                                                             tau0=0.5, f0=0.4))
        flagged.append(joint.singular and sep.singular)
    # covariance-model analogue
    pt_s, _, _ = make_contained_train(n_p=4, delta=0.5, b=(1.0 - 0.5j,))
    sig_s = d.synthesize_pulse_train(pt_s)
    for l, p in ((0, 2), (2, 0)):
        sc = d.Scenario(tau0=2 * sig_s.delta, f0=0.2, looks_direct=l,
                        looks_reflected=p, sigma_w2=1.0, record_length=8)
        model = d.build_stacked(sig_s, sc, np.eye(8 * (l + p), dtype=complex))
        rep = d.crb_correlated(model, d.dc_list(model, sig_s, sc))
        flagged.append(rep.singular and not np.isfinite(rep.values["tau0"]))
    # overlap analogue of the rank-deficient case: total overlap
    tri = d.triangle_wave(16)
    sc_ov = d.Scenario(tau0=0.0, f0=0.0, looks_direct=0, looks_reflected=1,
                       sigma_w2=1.0)
    rep = d.crb_overlap(d.fim_overlap(tri, 0, sc_ov))
    flagged.append(rep.singular and not np.isfinite(rep.values["tau0"]))
    report(7, "singularity contract", all(flagged),
           f"{sum(flagged)}/{len(flagged)} paths flagged, no crash, no finite bound")


def test_criterion_8_convergence_curves(tmp_path):
    """Limit behaviors behind the bound-vs-looks and bound-vs-n_p curves."""
    sig = table1_signal()
    known = d.jcrb_known(sig, scenario(1, 1))
    big_l = d.jcrb_unknown(sig, scenario(1000, 1))
    conv = max(abs(big_l.tau0 / known.tau0 - 1), abs(big_l.f0 / known.f0 - 1))
    conv_ok = conv <= 0.002

    scaling_err = 0.0
    base = d.jcrb_unknown(sig, scenario(1, 1))
    for l in (2, 4, 16, 100, 1000):
        pair = d.jcrb_unknown(sig, scenario(l, l))
        scaling_err = max(scaling_err,
                          abs(pair.tau0 / (2 / l * known.tau0) - 1),
                          abs(pair.f0 / (2 / l * known.f0) - 1))
    scaling_ok = scaling_err <= 1e-10 and base.tau0 == pytest.approx(
        2 * known.tau0, rel=1e-12)

    out = tmp_path / "npsweep.csv"
    code = cli_main(["sweep", "--sweep", "n_p=10:20", "--Tp", "4", "--Q", "1",
                     "--tau0", "0.5", "--f0", "2.0", "--sigma2", "0.1",
                     "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    monotone_ok = True
    ordering_ok = True
    for col in ("jcrb_tau0", "jcrb_f0", "jcrb_tau0_s", "jcrb_f0_s",
                "jcrb_tau0_b", "jcrb_f0_b"):
        vals = [float(r[col]) for r in rows]
        monotone_ok &= bool(np.all(np.diff(vals) <= 0))
    for r in rows:
        ordering_ok &= float(r["jcrb_tau0_b"]) <= float(r["jcrb_tau0_s"])
        ordering_ok &= float(r["jcrb_f0_b"]) <= float(r["jcrb_f0_s"])
    ok = conv_ok and scaling_ok and monotone_ok and ordering_ok
    report(8, "convergence curves", ok,
           f"L=1000 convergence {conv:.2e} (tol 2e-3), equal-looks 2/L err "
           f"{scaling_err:.2e} (tol 1e-10), n_p curves monotone: {monotone_ok}, "
           f"structure below unknown pointwise: {ordering_ok}")


def test_criterion_9_monte_carlo_achievability():
    """Profiled-ML empirical MSE sits in [1x, 3x] of the joint bounds."""
    n_p, delta = 64, 0.25
    pt = d.gaussian_pulse_train(n_p, delta, n_p * delta / 2, 9.0, [1.0 + 0.0j])
    sig = d.synthesize_pulse_train(pt)
    assert sig.m == 64
    n0 = 12
    sc = d.Scenario(tau0=n0 * delta, f0=0.3, looks_direct=1, looks_reflected=1,
                    sigma_w2=1e-4, record_length=n0 + 5 + sig.m)
    cfg = d.McConfig(trials=500, seed=42,
                     tau_grid=tuple(range(n0 - 5, n0 + 6)),
                     f_grid=tuple(np.linspace(0.3 - 0.05, 0.3 + 0.05, 41)))
    rep = d.monte_carlo_report(sig, sc, cfg)
    rows = {r["parameter"]: r for r in rep.rows}
    ratio_tau = rows["tau0"]["ratio"]
    ratio_f = rows["f0"]["ratio"]
    gain_tau = rows["tau0"]["empirical_mse"] / rows["tau0_known"]["empirical_mse"]
    gain_f = rows["f0"]["empirical_mse"] / rows["f0_known"]["empirical_mse"]
    in_band = 1.0 <= ratio_tau <= 3.0 and 1.0 <= ratio_f <= 3.0
    gain_ok = 1.5 <= gain_tau <= 2.5 and 1.5 <= gain_f <= 2.5
    report(9, "Monte-Carlo achievability", in_band and gain_ok,
           f"MSE/JCRB tau0 {ratio_tau:.3f}, f0 {ratio_f:.3f} (band [1,3]); "
           f"unknown/known MSE ratio tau0 {gain_tau:.2f}, f0 {gain_f:.2f} "
           f"(band [1.5,2.5], theory 2)")
