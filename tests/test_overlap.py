"""Nonseparated-path tests: FIM structure, regimes, triangle-wave forms, and
the alternating chain sums S against dense, per-offset chain and exact
rational elimination, at extreme scales, and bit for bit across block sizes."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import OVERFLOW_NOTE, SINGULAR_COND
from ddcrb import overlap
from ddcrb.overlap import CHAIN_NOTE, _overlap_columns, overlap_regime

from dense_oracles import overlap_blocks, overlap_chain_quadratic, overlap_information_dense


def scenario(p=1, sigma_w2=1.0):
    return d.Scenario(tau0=0.0, f0=0.0, looks_direct=0, looks_reflected=p,
                      sigma_w2=sigma_w2)


def asym_signal(m=20, seed=9):
    """Smooth random real signal (no exact slope symmetries)."""
    rng = np.random.default_rng(seed)
    t = np.arange(m) * 0.5
    samples, deriv = np.zeros(m), np.zeros(m)
    for k in range(1, 4):
        c, w = rng.standard_normal(), 2 * np.pi * k / (m * 0.5)
        samples += c * np.sin(w * t)
        deriv += c * w * np.cos(w * t)
    return d.SampledSignal(samples, 0.5, deriv)


class TestFimOverlap:
    def test_regimes(self):
        assert overlap_regime(16, 16) == "none"
        assert overlap_regime(15, 16) == "partial"
        assert overlap_regime(0, 16) == "total"

    def test_no_overlap_blocks(self):
        sig = d.triangle_wave(8)
        e, b, dm = overlap_blocks(d.fim_overlap(sig, 9, scenario(p=2)))
        np.testing.assert_allclose(b, -2.0 * sig.deriv.real, atol=0)
        np.testing.assert_allclose(dm, 4.0 * np.eye(8), atol=0)
        assert e == pytest.approx(2.0 * 8)

    def test_total_overlap_blocks(self):
        sig = d.triangle_wave(8)
        _, b, dm = overlap_blocks(d.fim_overlap(sig, 0, scenario()))
        np.testing.assert_allclose(b, -2.0 * sig.deriv.real, atol=0)
        np.testing.assert_allclose(dm, 4.0 * np.eye(8), atol=0)

    def test_partial_band_structure(self):
        sig = d.triangle_wave(16)
        dm = overlap_blocks(d.fim_overlap(sig, 8, scenario()))[2]
        assert np.all(np.diag(dm) == 2.0)
        for n in range(8, 16):
            assert dm[n, n - 8] == 1.0
        # no other off-diagonal entries
        band = np.zeros((16, 16))
        band[np.arange(8, 16), np.arange(0, 8)] = 1.0
        np.testing.assert_array_equal(dm, 2.0 * np.eye(16) + band + band.T)

    def test_partial_b_vector(self):
        sig = d.triangle_wave(16)
        b = overlap_blocks(d.fim_overlap(sig, 8, scenario()))[1]
        dv = sig.deriv.real
        expected = -dv.copy()
        expected[8:] += -dv[:8]
        np.testing.assert_allclose(b, expected, atol=0)

    def test_keeps_only_what_the_bound_reads(self):
        # the bound reads the derivative alone: no block is formed, and the
        # derivative is the signal's own, not a copy
        sig = d.triangle_wave(2 ** 20)
        tracemalloc.start()
        try:
            of = d.fim_overlap(sig, 5, scenario())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(of.deriv, sig.deriv) and of.m == 2 ** 20
        # one float64 copy of the derivative alone is 8 MB
        assert peak < 1e6, peak

    def test_complex_signal_rejected(self):
        sig = d.SampledSignal(np.ones(4) * 1j, 1.0, np.zeros(4))
        with pytest.raises(ValueError, match="real"):
            d.fim_overlap(sig, 0, scenario())


class TestCrbOverlap:
    def test_no_overlap_closed_form(self):
        sig = d.triangle_wave(16)
        rep = d.crb_overlap(d.fim_overlap(sig, 16, scenario(p=3, sigma_w2=0.5)))
        assert rep.values["tau0"] == pytest.approx(0.5 / 3 * 2 / 16, rel=1e-14)
        assert rep.method == "closed_form"

    def test_no_overlap_matches_separated_model_up_to_noise_convention(self):
        # the separated complex-noise model at L=P (delay-only estimation)
        # carries twice the per-sample information of this real-noise model
        sig = d.triangle_wave(16)
        p = 3
        rep = d.crb_overlap(d.fim_overlap(sig, 20, scenario(p=p)))
        sc_sep = d.Scenario(tau0=0.0, f0=0.0, looks_direct=p, looks_reflected=p,
                            sigma_w2=1.0)
        sep = d.crb_separate_unknown(sig, sc_sep)
        assert rep.values["tau0"] == pytest.approx(2.0 * sep.tau0, rel=1e-12)

    def test_total_overlap_singular(self):
        sig = d.triangle_wave(16)
        rep = d.crb_overlap(d.fim_overlap(sig, 0, scenario()))
        assert rep.singular
        assert abs(rep.details["information_after_elimination"]) <= 1e-10 * 16

    def test_triangle_half_overlap_value(self):
        sig = d.triangle_wave(16)
        rep = d.crb_overlap(d.fim_overlap(sig, 8, scenario()))
        assert rep.values["tau0"] == pytest.approx(6.0 / 64.0, rel=1e-12)
        assert rep.method == "closed_form"

    def test_closed_form_matches_dense_elimination_all_even_sizes(self):
        for m in range(2, 65, 2):
            sig = d.triangle_wave(m)
            for n0 in range(m // 2, m):
                of = d.fim_overlap(sig, n0, scenario(p=2))
                closed = d.crb_overlap(of).values["tau0"]
                numeric = 1.0 / overlap_information_dense(of)
                assert abs(closed - numeric) <= 1e-10 * closed, (m, n0)

    def test_closed_form_matches_dense_for_general_signal(self):
        sig = asym_signal(m=20)
        for n0 in range(10, 20):
            of = d.fim_overlap(sig, n0, scenario())
            assert d.crb_overlap(of).values["tau0"] == pytest.approx(
                1.0 / overlap_information_dense(of), rel=1e-10)

    def test_deep_partial_is_numeric_only(self):
        sig = d.triangle_wave(16)
        rep = d.crb_overlap(d.fim_overlap(sig, 3, scenario()))
        # no closed form exists below half the support
        assert rep.method == "schur_numeric"
        assert rep.values["tau0"] == pytest.approx(21.0 / 19.0, rel=1e-10)


class TestTriangleCurve:
    def test_reference_and_extremes(self):
        rows = d.triangle_overlap_curve(16, scenario(p=2, sigma_w2=0.5))
        by_n0 = {r["n0"]: r for r in rows}
        assert len(rows) == 17
        assert by_n0[16]["crb_tau0"] == pytest.approx(0.5 / 2 * 2 / 16)
        assert by_n0[0]["singular"] is True
        assert by_n0[8]["crb_tau0"] == pytest.approx(0.5 / 2 * 6 / 64, rel=1e-12)

    def test_closed_form_range_values_and_monotonicity(self):
        m = 16
        rows = d.triangle_overlap_curve(m, scenario())
        vals = [r["crb_tau0"] for r in rows if m // 2 <= r["n0"] <= m - 1]
        expected = [6.0 / (5 * m - 2 * n0) for n0 in range(m // 2, m)]
        np.testing.assert_allclose(vals, expected, rtol=1e-12)
        assert np.all(np.diff(vals) > 0)
        # maximum of the range stays below the disjoint-support reference
        assert vals[-1] < rows[0]["crb_non"]
        assert vals[-1] == pytest.approx(6.0 / (3 * m + 2), rel=1e-12)

    def test_deep_overlap_rows_are_flagged_or_numeric(self):
        rows = d.triangle_overlap_curve(16, scenario())
        for r in rows:
            if 0 < r["n0"] < 8:
                assert r["singular"] or r["method"] == "schur_numeric"

    def test_scale_beyond_dense_solves(self):
        # 2049 offsets at M = 2048: each dense solve would be O(M^3)
        tracemalloc.start()
        try:
            rows = d.triangle_overlap_curve(2048, scenario())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2049
        for r in rows:
            assert r["singular"] or (np.isfinite(r["crb_tau0"]) and r["crb_tau0"] > 0)
        # chains are eliminated a bounded block at a time: the peak stays far
        # below one M x M float64 array (32 MB)
        assert peak < 8e6, peak

    @settings(max_examples=25, deadline=None)
    @given(half=st.integers(1, 128), p=st.integers(1, 5), sigma_w2=st.floats(1e-3, 1e3))
    def test_rows_match_single_offset_reports(self, half, p, sigma_w2):
        m, sc = 2 * half, scenario(p=p, sigma_w2=sigma_w2)
        sig = d.triangle_wave(m)
        for row in d.triangle_overlap_curve(m, sc):
            rep = d.crb_overlap(d.fim_overlap(sig, row["n0"], sc))
            assert row == {"n0": row["n0"],
                           "crb_tau0": None if rep.singular else rep.values["tau0"],
                           "singular": rep.singular, "method": rep.method,
                           "regime": rep.details["regime"],
                           "crb_non": 2.0 * sigma_w2 / (p * m)}

    def test_m128_singular_offsets(self):
        rows = d.triangle_overlap_curve(128, scenario())
        assert [r["n0"] for r in rows if r["singular"]] == [0, 1, 2, 4, 8, 16, 32]


class TestExtremeScales:
    # P/sigma_w2 overflows at 1e-320 and its square underflows at 1e300; no
    # warning is raised building the FIM or the bound
    @pytest.mark.parametrize("sigma_w2, p", [(1e300, 1), (1e-320, 1), (1.0, 10 ** 12)])
    def test_scale_free_information(self, sigma_w2, p):
        m = 16
        sig = d.triangle_wave(m)
        sc = scenario(p=p, sigma_w2=sigma_w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fims = [d.fim_overlap(sig, n0, sc) for n0 in range(m + 1)]
            rows = d.triangle_overlap_curve(m, sc)
            reports = [d.crb_overlap(of) for of in fims]
        s = _overlap_columns(sig.deriv.real, np.arange(m + 1), 1, 1.0)[0]
        assert [r["n0"] for r in rows if r["singular"]] == [0, 1, 2, 4]
        assert [n0 for n0, rep in enumerate(reports) if rep.singular] == [0, 1, 2, 4]
        for row, rep, s_n0 in zip(rows, reports, s.tolist()):
            if not row["singular"] and row["regime"] != "none":
                assert row["crb_tau0"] == rep.values["tau0"] == sigma_w2 / p / s_n0, row
        assert rows[m]["crb_tau0"] == 2.0 * sigma_w2 / (p * m)

    def test_underflowed_bound_is_flagged(self):
        # sigma_w2 / P underflows to 0: no bound is positive, so every row is
        # flagged, not printed as 0
        sc = scenario(p=10 ** 6, sigma_w2=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = d.triangle_overlap_curve(16, sc)
            rep = d.crb_overlap(d.fim_overlap(d.triangle_wave(16), 8, sc))
        assert all(r["singular"] and r["crb_tau0"] is None for r in rows)
        assert rep.singular and rep.details["note"] == OVERFLOW_NOTE

    @pytest.mark.parametrize("n0", [1, 2, 4])
    def test_singular_note_names_the_chain_sums(self, n0):
        rep = d.crb_overlap(d.fim_overlap(d.triangle_wave(16), n0, scenario()))
        assert rep.singular
        assert rep.details["note"] == CHAIN_NOTE
        assert "alternating slope sum is zero" in CHAIN_NOTE
        assert rep.details["information_after_elimination"] == 0.0


class TestChainElimination:
    @settings(max_examples=40)
    @given(m=st.integers(2, 64), p=st.integers(1, 5),
           sigma_w2=st.floats(1e-3, 1e3), sign_pattern=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_dense_elimination(self, m, p, sigma_w2, sign_pattern, seed):
        rng = np.random.default_rng(seed)
        # +-1 slopes hit exact zeros of the information, as the triangle does
        deriv = (rng.choice([-1.0, 1.0], m) if sign_pattern
                 else rng.standard_normal(m))
        sig = d.SampledSignal(np.zeros(m), 1.0, deriv)
        sc = scenario(p=p, sigma_w2=sigma_w2)
        for n0 in range(m + 1):
            of = d.fim_overlap(sig, n0, sc)
            rep = d.crb_overlap(of)
            dense, e = overlap_information_dense(of), overlap_blocks(of)[0]
            x = rep.details["information_after_elimination"]
            assert abs(x - dense) <= 1e-12 * e, (n0, x, dense)
            assert rep.singular == (abs(dense) <= e / SINGULAR_COND), n0
            assert rep.details["regime"] == overlap_regime(n0, m)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 96), p=st.integers(1, 5),
           sigma_w2=st.floats(1e-3, 1e3), sign_pattern=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_chain_elimination_oracle(self, m, p, sigma_w2, sign_pattern, seed):
        rng = np.random.default_rng(seed)
        deriv = (rng.choice([-1.0, 1.0], m) if sign_pattern
                 else rng.standard_normal(m))
        sig = d.SampledSignal(np.zeros(m), 1.0, deriv)
        sc = scenario(p=p, sigma_w2=sigma_w2)
        for n0 in range(m + 2):
            of = d.fim_overlap(sig, n0, sc)
            x = d.crb_overlap(of).details["information_after_elimination"]
            e = overlap_blocks(of)[0]
            assert abs(x - (e - overlap_chain_quadratic(of))) <= 1e-12 * e, n0

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(2, 256), seed=st.integers(0, 2 ** 31 - 1))
    def test_unit_slopes_within_16_ulp_of_exact(self, m, seed):
        # +-1 slopes with P = sigma_w2 = 1: x is S, and the exact rational
        # comes from an LDL^T elimination of each chain over the integers
        deriv = np.random.default_rng(seed).choice([-1.0, 1.0], m)
        sig = d.SampledSignal(np.zeros(m), 1.0, deriv)
        for n0 in range(m + 1):
            of = d.fim_overlap(sig, n0, scenario())
            x = d.crb_overlap(of).details["information_after_elimination"]
            exact = _exact_chain_information(deriv, n0)
            if m <= 10:
                assert exact == _exact_information(of), n0
            if exact == 0:
                assert x == 0.0, n0
            else:
                assert abs(Fraction(x) - exact) <= 16 * np.spacing(float(exact)), (n0, x, exact)

    def test_block_size_leaves_every_bit(self, monkeypatch):
        def run():
            deriv = np.random.default_rng(3).standard_normal(61)
            cols = _overlap_columns(deriv, np.arange(63), 2, 0.3)
            return [col.tobytes() for col in cols[:2]], repr(d.triangle_overlap_curve(128, scenario()))

        batched = run()
        # one step per block
        monkeypatch.setattr(overlap, "STEP_BLOCK", 1)
        assert run() == batched

    def test_triangle_m16_matches_exact_rational_elimination(self):
        # derivative +-1 with P = sigma_w2 = 1: e, b and D are integers
        m = 16
        rows = d.triangle_overlap_curve(m, scenario())
        sig = d.triangle_wave(m)
        exact = {n0: _exact_information(d.fim_overlap(sig, n0, scenario()))
                 for n0 in range(m + 1)}
        assert [n0 for n0, x in exact.items() if x == 0] == [0, 1, 2, 4]
        assert {n0: 1 / exact[n0] for n0 in (3, 5, 6, 7)} == {
            3: Fraction(21, 19), 5: Fraction(1), 6: Fraction(3, 11), 7: Fraction(6, 43)}
        for row in rows:
            x = exact[row["n0"]]
            assert row["singular"] == (x == 0), row
            if x != 0:
                bound = float(1 / x)
                assert abs(row["crb_tau0"] - bound) <= 4 * np.spacing(bound), row


def _exact_chain_information(deriv, n0):
    """e - b^T D^{-1} b at P = sigma_w2 = 1 for an integer derivative.

    Chain by chain (r, r + n0, ...; D and b split along them outside total
    overlap): LDL^T of tridiag(1, 2, 1) has pivots (k + 2)/(k + 1), so
    z_k = (k + 1) y_k = (k + 1) b_k - z_{k-1} stays an integer and the chain
    adds sum_k z_k^2 / ((k + 1)(k + 2)) to b^T D^{-1} b.
    """
    ints = [int(v) for v in deriv]
    m = len(ints)
    e = sum(v * v for v in ints)
    if n0 == 0:
        # b = -2 s', D = 4 I
        return Fraction(e) - Fraction(sum(4 * v * v for v in ints), 4)
    quad = Fraction(0)
    for r in range(min(n0, m)):
        z, num, den = 0, 0, 1
        for k, n in enumerate(range(r, m, n0)):
            b = -ints[n] - (ints[n - n0] if k else 0)
            z = (k + 1) * b - z
            term_den = (k + 1) * (k + 2)
            num, den = num * term_den + z * z * den, den * term_den
        quad += Fraction(num, den)
    return e - quad


def _exact_information(of):
    """e - b^T D^{-1} b by Gaussian elimination over the rationals."""
    m, (e, b_vec, d_mat) = of.m, overlap_blocks(of)
    a = [[Fraction(v) for v in row] + [Fraction(bv)]
         for row, bv in zip(d_mat, b_vec)]
    for k in range(m):
        for i in range(k + 1, m):
            factor = a[i][k] / a[k][k]
            if factor:
                a[i] = [vi - factor * vk for vi, vk in zip(a[i], a[k])]
    sol = [Fraction(0)] * m
    for k in reversed(range(m)):
        sol[k] = (a[k][m] - sum(a[k][j] * sol[j] for j in range(k + 1, m))) / a[k][k]
    return Fraction(e) - sum(Fraction(bv) * s for bv, s in zip(b_vec, sol))
