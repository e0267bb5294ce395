"""Core bound tests: known-signal FIM, unknown-signal FIM, factor law."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.bounds import weighted_sums
from ddcrb.fim import (METHOD_CLOSED_FORM, METHOD_SCHUR_NUMERIC, OVERFLOW_NOTE, eliminated_pair,
                       invert_bound_matrix, schur_complement)

import dense_oracles
from conftest import make_contained_train


def small_signal(beta=0.7):
    """Contained complex signal with nonzero eta (linear phase ramp)."""
    pt, g_fn, dg_fn = make_contained_train(n_p=20, delta=0.2, b=(1.0,))
    base = d.synthesize_pulse_train(pt)
    t = base.times
    ramp = np.exp(1j * beta * t)
    return d.SampledSignal(base.samples * ramp, base.delta,
                           (base.deriv + 1j * beta * base.samples) * ramp)


def scenario(l=2, p=3, tau0=0.4, f0=0.5, sigma_w2=0.8, scale=1.0):
    return d.Scenario(tau0=tau0, f0=f0, looks_direct=l, looks_reflected=p,
                      sigma_w2=sigma_w2, scale=scale)


class TestKnownSignalFim:
    def test_entries_match_weighted_sums(self):
        sig = small_signal()
        sc = scenario()
        fim = d.fim_known_signal(sig, sc)
        s_dd, s_ww, e = weighted_sums(sig, sc.tau0)
        assert fim.entries[0, 0] == pytest.approx(2 * s_dd / sc.sigma_w2, rel=1e-14)
        assert fim.entries[1, 1] == pytest.approx(8 * np.pi ** 2 * s_ww / sc.sigma_w2, rel=1e-14)
        assert fim.entries[0, 1] == pytest.approx(4 * np.pi * e / sc.sigma_w2, rel=1e-14)

    def test_real_signal_has_zero_cross_term(self):
        fim = d.fim_known_signal(d.triangle_wave(16), scenario())
        assert fim.entries[0, 1] == 0.0

    def test_amplitude_scaling_is_quadratic(self):
        sig = small_signal()
        sc = scenario()
        f1 = d.fim_known_signal(sig, sc)
        f2 = d.fim_known_signal(sig.scaled(3.0), sc)
        np.testing.assert_allclose(f2.entries, 9.0 * f1.entries, rtol=1e-12)

    def test_table1_delay_bound(self, table1_signal, table1_scenario):
        pair = d.jcrb_known(table1_signal, table1_scenario)
        # reference column value 0.0119 is reproduced within rounding
        assert pair.tau0 == pytest.approx(0.0119, rel=0.01)


class TestJcrbKnown:
    def test_matches_fim_inverse(self):
        sig = small_signal()
        sc = scenario()
        pair = d.jcrb_known(sig, sc)
        inv = np.linalg.inv(d.fim_known_signal(sig, sc).entries)
        assert pair.tau0 == pytest.approx(inv[0, 0], rel=1e-12)
        assert pair.f0 == pytest.approx(inv[1, 1], rel=1e-12)

    def test_zero_eta_reduction(self):
        sig = d.triangle_wave(16, delta=0.3)
        sc = scenario()
        pair = d.jcrb_known(sig, sc)
        s_dd, s_ww, _ = weighted_sums(sig, sc.tau0)
        assert pair.tau0 == pytest.approx(sc.sigma_w2 / (2 * s_dd), rel=1e-14)
        assert pair.f0 == pytest.approx(sc.sigma_w2 / (8 * np.pi ** 2 * s_ww), rel=1e-14)

    def test_noise_scaling_is_linear(self):
        sig = small_signal()
        p1 = d.jcrb_known(sig, scenario(sigma_w2=0.5))
        p2 = d.jcrb_known(sig, scenario(sigma_w2=1.0))
        assert p2.tau0 == pytest.approx(2 * p1.tau0, rel=1e-14)
        assert p2.f0 == pytest.approx(2 * p1.f0, rel=1e-14)

    def test_zero_derivative_energy_flags_singular(self):
        sig = d.SampledSignal(np.ones(6), 0.5, np.zeros(6))
        pair = d.jcrb_known(sig, scenario())
        assert pair.singular and pair.tau0 == np.inf


class TestUnknownSignalFim:
    def test_block_entries(self):
        sig = small_signal()
        sc = scenario(l=2, p=3)
        fim = d.fim_unknown_signal(sig, sc)
        border = fim.border
        np.testing.assert_allclose(fim.entries[:2, :2], border.a, rtol=1e-14)
        np.testing.assert_allclose(fim.entries[:2, 2:], border.b, rtol=1e-14)
        np.testing.assert_allclose(fim.entries[2:, :2], border.b.T, rtol=1e-14)
        np.testing.assert_allclose(fim.entries[2:, 2:], border.c * np.eye(2 * sig.m),
                                   rtol=1e-14)
        np.testing.assert_allclose(border.a, 3 * d.fim_known_signal(sig, sc).entries,
                                   rtol=1e-14)
        assert fim.labels[:4] == ("tau0", "f0", "sR_0", "sI_0")

    def test_c_block_value(self):
        sig = small_signal()
        sc = scenario(l=2, p=3, sigma_w2=0.5)
        fim = d.fim_unknown_signal(sig, sc)
        np.testing.assert_allclose(np.diag(fim.entries[2:, 2:]),
                                   (2 * 2 + 2 * 3) / 0.5, rtol=1e-14)

    def test_b_block_real_signal_pattern(self):
        sig = d.triangle_wave(8, delta=0.4)
        sc = scenario(l=1, p=2)
        fim = d.fim_unknown_signal(sig, sc)
        b = fim.entries[:2, 2:]
        np.testing.assert_allclose(
            b[0, 0::2], -(2 * 2 / sc.sigma_w2) * sig.deriv.real, rtol=1e-14)
        np.testing.assert_allclose(b[0, 1::2], 0.0, atol=0)

    def test_nonunit_scale_is_the_unknown_a_fim_without_a(self):
        sig, sc = small_signal(), scenario(scale=2.0)
        fim, with_a = d.fim_unknown_signal(sig, sc), d.fim_unknown_a(sig, sc).drop("a")
        assert fim.labels == with_a.labels
        np.testing.assert_array_equal(fim.entries, with_a.entries)

    def test_psd(self):
        sig = small_signal()
        fim = d.fim_unknown_signal(sig, scenario())
        eigs = np.linalg.eigvalsh(fim.entries)
        assert eigs.min() >= -1e-10 * eigs.max()


class TestSchurComplement:
    def test_identity_when_b_zero(self):
        entries = np.diag([2.0, 3.0, 5.0, 7.0])
        fim = d.FimMatrix(entries, ("tau0", "f0", "x0", "x1"))
        np.testing.assert_allclose(schur_complement(fim), np.diag([2.0, 3.0]))

    def test_zero_looks_give_zero_schur(self):
        sig = small_signal()
        for l, p in ((0, 1), (0, 3)):
            fim = d.fim_unknown_signal(sig, scenario(l=l, p=p))
            reduced = schur_complement(fim)
            scale = np.max(np.abs(fim.entries[:2, :2]))
            assert np.max(np.abs(reduced)) <= 1e-10 * np.max(np.abs(fim.entries))
            assert invert_bound_matrix(reduced, scale) is None

    def test_p_zero_gives_zero_schur(self):
        sig = small_signal()
        fim = d.fim_unknown_signal(sig, scenario(l=3, p=0))
        assert np.max(np.abs(schur_complement(fim))) == 0.0

    def test_single_look_each_is_half_known_fim(self):
        sig = small_signal()
        sc = scenario(l=1, p=1)
        reduced = schur_complement(d.fim_unknown_signal(sig, sc))
        known = d.fim_known_signal(sig, sc).entries
        np.testing.assert_allclose(reduced, 0.5 * known, rtol=1e-11)

    def test_singular_nuisance_block_raises(self):
        entries = np.zeros((4, 4))
        entries[0, 0] = entries[1, 1] = 1.0
        fim = d.FimMatrix(entries, ("tau0", "f0", "x0", "x1"))
        with pytest.raises(d.SingularFimError):
            schur_complement(fim)


class TestEliminatedPair:
    def test_equals_elimination_then_inversion_bit_for_bit(self):
        sig = small_signal()
        fim = d.fim_unknown_signal(sig, scenario(l=2, p=3))
        inv = invert_bound_matrix(schur_complement(fim),
                                  float(np.max(np.abs(fim.entries[:2, :2]))))
        pair = eliminated_pair(fim)
        assert (pair.tau0, pair.f0) == (inv[0, 0], inv[1, 1])
        assert pair.method == METHOD_SCHUR_NUMERIC and not pair.singular

    def test_agrees_with_the_closed_form(self):
        sig, sc = small_signal(), scenario(l=2, p=3)
        pair, closed = eliminated_pair(d.fim_unknown_signal(sig, sc)), d.jcrb_unknown(sig, sc)
        np.testing.assert_allclose(tuple(pair), tuple(closed), rtol=1e-9)
        assert closed.method == METHOD_CLOSED_FORM

    @pytest.mark.parametrize("l,p", [(0, 1), (3, 0)])
    def test_no_delay_doppler_information_is_flagged(self, l, p):
        pair = eliminated_pair(d.fim_unknown_signal(small_signal(), scenario(l=l, p=p)))
        assert pair.singular and pair.method == METHOD_SCHUR_NUMERIC
        assert pair.tau0 == pair.f0 == float("inf")

    def test_singular_nuisance_block_is_flagged_not_raised(self):
        entries = np.zeros((4, 4))
        entries[0, 0] = entries[1, 1] = 1.0
        pair = eliminated_pair(d.FimMatrix(entries, ("tau0", "f0", "x0", "x1")))
        assert pair.singular and pair.method == METHOD_SCHUR_NUMERIC

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_fim_that_is_not_finite_is_accepted_and_flagged_as_overflowed(self, bad):
        # a nan comparison is False, so no check raises on it, and no eigenvalue
        # routine is called on it
        fim = d.FimMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), ("tau0", "f0"))
        assert not fim.solvable.finite
        pair = eliminated_pair(fim)
        assert pair.singular and pair.note == OVERFLOW_NOTE
        assert pair.method == METHOD_SCHUR_NUMERIC and pair.tau0 == pair.f0 == float("inf")
        with pytest.raises(d.SingularFimError, match="not finite"):
            schur_complement(fim)

    @pytest.mark.parametrize("kw", [dict(sigma_w2=1e-320), dict(tau0=1e200)])
    def test_overflowed_bordered_fim_is_flagged_as_overflowed(self, kw):
        # table1 --sigma2 1e-320 and --tau0 1e200 build these: P / sigma_w2 and the
        # time sums overflow into the border and the Schur complement
        fim = d.fim_unknown_signal(small_signal(), scenario(**kw))
        assert not fim.solvable.finite
        pair = eliminated_pair(fim)
        assert pair.singular and pair.note == OVERFLOW_NOTE

    def test_a_finite_fim_whose_bound_overflows_is_flagged_as_overflowed(self, table1_signal):
        # a^2 near the subnormals: the FIM is finite, the eliminated diagonal is not
        pt = d.gaussian_pulse_train(500, 0.01, 4.0, 9.0, np.full(2, (1.0 + 1.0j) / np.sqrt(2.0)))
        sc = d.Scenario(tau0=0.05, f0=20.0, looks_direct=1, looks_reflected=1, sigma_w2=1.0,
                        scale=1e-158)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fim = d.fim_unknown_signal(table1_signal, sc)
            pairs = [eliminated_pair(fim), *d.jcrb_unknown_a_structure(pt, sc)]
        assert fim.solvable.finite
        for pair in pairs:
            assert pair.singular and pair.note == OVERFLOW_NOTE
            assert pair.method == METHOD_SCHUR_NUMERIC and pair.tau0 == pair.f0 == float("inf")

    def test_ratio_keeps_the_numerator_method_and_singularity(self):
        num = d.BoundPair(3.0, 1.0, method=METHOD_SCHUR_NUMERIC)
        ratio = num.over(d.BoundPair(2.0, 4.0))
        assert (ratio.tau0, ratio.f0, ratio.method) == (1.5, 0.25, METHOD_SCHUR_NUMERIC)
        for a, b in ((num, d.BoundPair.singular_pair("no information")),
                     (d.BoundPair.singular_pair("no information"), num)):
            ratio = a.over(b)
            assert ratio.singular and ratio.note == "no information"

    def test_scaling_keeps_the_method(self):
        pair = d.BoundPair(1.0, 2.0, method=METHOD_SCHUR_NUMERIC).scaled(3.0)
        assert (pair.tau0, pair.f0, pair.method) == (3.0, 6.0, METHOD_SCHUR_NUMERIC)
        assert d.BoundPair(1.0, 2.0).method == METHOD_CLOSED_FORM


class TestJcrbUnknown:
    def test_factor_two_at_single_looks(self):
        sig = small_signal()
        sc = scenario(l=1, p=1)
        known = d.jcrb_known(sig, sc)
        unknown = d.jcrb_unknown(sig, sc)
        assert unknown.tau0 == pytest.approx(2 * known.tau0, rel=1e-14)
        assert unknown.f0 == pytest.approx(2 * known.f0, rel=1e-14)

    def test_factor_1p5_at_l2_p1(self):
        sig = small_signal()
        sc = scenario(l=2, p=1)
        assert d.jcrb_unknown(sig, sc).tau0 == pytest.approx(
            1.5 * d.jcrb_known(sig, sc).tau0, rel=1e-14)

    @settings(max_examples=60)
    @given(k=st.integers(1, 40))
    def test_equal_looks_decay(self, k):
        sig = d.triangle_wave(8, delta=0.4)
        sc = scenario(l=k, p=k)
        known = d.jcrb_known(sig, sc)
        unknown = d.jcrb_unknown(sig, sc)
        assert unknown.tau0 == pytest.approx(2.0 / k * known.tau0, rel=1e-13)

    @settings(max_examples=120)
    @given(l=st.integers(1, 32), p=st.integers(1, 32))
    def test_factor_law_quantified(self, l, p):
        sig = small_signal()
        sc = scenario(l=l, p=p)
        known = d.jcrb_known(sig, sc)
        unknown = d.jcrb_unknown(sig, sc)
        factor = (l + p) / (l * p)
        assert abs(unknown.tau0 / known.tau0 - factor) <= 1e-12 * factor
        assert abs(unknown.f0 / known.f0 - factor) <= 1e-12 * factor

    @settings(max_examples=60)
    @given(l=st.integers(1, 32), p=st.integers(1, 32))
    def test_look_symmetry_bit_for_bit(self, l, p):
        sig = small_signal()
        a = d.jcrb_unknown(sig, scenario(l=l, p=p))
        b = d.jcrb_unknown(sig, scenario(l=p, p=l))
        assert a.tau0 == b.tau0 and a.f0 == b.f0

    def test_matches_schur_path(self):
        sig = small_signal()
        sc = scenario(l=3, p=2)
        pair = d.jcrb_unknown(sig, sc)
        inv = invert_bound_matrix(schur_complement(d.fim_unknown_signal(sig, sc)))
        assert abs(inv[0, 0] - pair.tau0) <= 1e-10 * pair.tau0
        assert abs(inv[1, 1] - pair.f0) <= 1e-10 * pair.f0

    def test_zero_looks_singular(self):
        sig = small_signal()
        for l, p in ((0, 1), (1, 0), (0, 0)):
            pair = d.jcrb_unknown(sig, scenario(l=l, p=p))
            assert pair.singular and not np.isfinite(pair.tau0)


class TestScaledSampleBounds:
    """The sample-form bounds at a reflected-path scale a != 1 against
    numeric elimination of the scaled FIM with a known (its row dropped)."""

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.3])
    def test_joint_matches_numeric_elimination(self, a):
        sig = small_signal()
        sc = scenario(l=2, p=3, scale=a)
        pair = d.jcrb_unknown(sig, sc)
        inv = invert_bound_matrix(schur_complement(d.fim_unknown_a(sig, sc).drop("a")))
        assert pair.tau0 == pytest.approx(inv[0, 0], rel=1e-9)
        assert pair.f0 == pytest.approx(inv[1, 1], rel=1e-9)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.3])
    def test_separate_matches_numeric_elimination(self, a):
        sig = small_signal(beta=1.2)
        sc = scenario(l=2, p=3, scale=a)
        sep = d.crb_separate_unknown(sig, sc)
        fim = d.fim_unknown_a(sig, sc).drop("a")
        # separate estimation: the other coordinate is known, not eliminated
        for value, other in ((sep.tau0, "f0"), (sep.f0, "tau0")):
            reduced = schur_complement(fim.drop(other), keep=1)
            assert value == pytest.approx(1.0 / reduced[0, 0], rel=1e-9)

    def test_scaled_known_a_is_the_sample_bounds(self):
        sig = small_signal()
        sc = scenario(l=1, p=2, scale=2.0)
        assert d.jcrb_scaled_known_a(sig, sc) == (d.jcrb_unknown(sig, sc),
                                                  d.crb_separate_unknown(sig, sc))


class TestSeparateUnknown:
    def test_zero_eta_separate_equals_joint(self):
        sig = d.triangle_wave(16, delta=0.3)
        sc = scenario(l=2, p=3)
        joint = d.jcrb_unknown(sig, sc)
        sep = d.crb_separate_unknown(sig, sc)
        assert sep.tau0 == pytest.approx(joint.tau0, rel=1e-13)
        assert sep.f0 == pytest.approx(joint.f0, rel=1e-13)

    def test_nonzero_eta_separate_strictly_smaller(self):
        sig = small_signal(beta=1.2)
        sc = scenario(l=2, p=3)
        assert d.eta(sig, sc.tau0) != 0.0
        joint = d.jcrb_unknown(sig, sc)
        sep = d.crb_separate_unknown(sig, sc)
        assert sep.tau0 < joint.tau0
        assert sep.f0 < joint.f0

    def test_large_l_limit_is_single_look_baseline(self):
        sig = small_signal()
        sc = scenario(l=10 ** 9, p=1)
        sep = d.crb_separate_unknown(sig, sc)
        s_dd, s_ww, _ = weighted_sums(sig, sc.tau0)
        assert sep.tau0 == pytest.approx(sc.sigma_w2 / (2 * s_dd), rel=1e-8)

    def test_multi_look_known_signal_scaling(self):
        # generalizing the one-look model to R looks divides the bound by R
        sig = small_signal()
        sc = scenario()
        single = d.jcrb_known(sig, sc)
        for r in (2, 5, 17):
            scaled_fim = d.FimMatrix(r * d.fim_known_signal(sig, sc).entries,
                                     ("tau0", "f0"))
            inv = np.linalg.inv(scaled_fim.entries)
            assert inv[0, 0] == pytest.approx(single.tau0 / r, rel=1e-12)
            assert inv[1, 1] == pytest.approx(single.f0 / r, rel=1e-12)

    def test_overflowed_sums_give_singular_pairs(self):
        # sum (t + tau0)^2 |s|^2 is inf: the separate and structured Doppler
        # bounds would read 0.0 and nan, and the known pair's determinant
        # test inf <= inf would call the signal degenerate
        pt, _, _ = make_contained_train()
        sig, sc = d.synthesize_pulse_train(pt), scenario(l=2, p=3, tau0=1e200)
        for pair in (d.crb_separate_unknown(sig, sc), d.jcrb_structure_known_a(pt, sc),
                     d.jcrb_known(sig, sc), d.jcrb_unknown(sig, sc)):
            assert pair.singular and pair.note == OVERFLOW_NOTE
            assert pair.tau0 == pair.f0 == float("inf")


class TestPathNoiseLevels:
    """The paper's different direct- and reflected-path SCNRs are the scale axis:
    scaling the reflected looks by sigma_d / sigma_r is invertible, so the bound at
    (a, sigma_d^2, sigma_r^2) is the bound at (a sigma_d / sigma_r, sigma_d^2, sigma_d^2)."""

    @pytest.mark.parametrize("a,sigma_d2,sigma_r2", [
        (1.0, 0.5, 2.0), (0.7, 3.0, 0.2), (2.5, 1.0, 1.0), (1.3, 1e-3, 40.0)])
    def test_two_noise_levels_equal_the_scaled_path(self, a, sigma_d2, sigma_r2):
        sig = small_signal()
        sc = scenario(l=2, p=3, sigma_w2=sigma_d2, scale=a)
        dense = dense_oracles.fim_path_noise_levels(sig, sc, sigma_r2)
        mapped = scenario(l=2, p=3, sigma_w2=sigma_d2, scale=a * np.sqrt(sigma_d2 / sigma_r2))
        fim = d.fim_unknown_signal(sig, mapped)
        np.testing.assert_allclose(dense.entries, fim.entries, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(fim.entries)))
        want = d.jcrb_unknown(sig, mapped)
        for got in (eliminated_pair(dense), eliminated_pair(fim)):
            np.testing.assert_allclose(tuple(got), tuple(want), rtol=1e-9)
