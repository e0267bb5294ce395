"""Reflected-path amplitude scale tests: known and unknown a."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import invert_bound_matrix, schur_complement
from ddcrb.scaled import jcrb_structure_known_a
from ddcrb.bounds import energy_sums, signal_bounds, weighted_sums

from conftest import make_contained_train, rel_err
from dense_oracles import signal_bounds as scalar_signal_bounds, structure_pair


def scenario(l=2, p=3, a=1.0, tau0=0.5, f0=0.4, sigma_w2=0.7):
    return d.Scenario(tau0=tau0, f0=f0, looks_direct=l, looks_reflected=p,
                      sigma_w2=sigma_w2, scale=a)


def complex_signal(beta=0.6):
    pt, _, _ = make_contained_train(n_p=20, delta=0.2, b=(1.0,))
    base = d.synthesize_pulse_train(pt)
    ramp = np.exp(1j * beta * base.times)
    return d.SampledSignal(base.samples * ramp, base.delta,
                           (base.deriv + 1j * beta * base.samples) * ramp)


class TestScaledKnownA:
    def test_unit_scale_reduces_to_plain_bounds(self):
        sig = complex_signal()
        sc = scenario(a=1.0)
        joint, sep = d.jcrb_scaled_known_a(sig, sc)
        plain_joint = d.jcrb_unknown(sig, sc)
        plain_sep = d.crb_separate_unknown(sig, sc)
        assert joint.tau0 == pytest.approx(plain_joint.tau0, rel=1e-14)
        assert joint.f0 == pytest.approx(plain_joint.f0, rel=1e-14)
        assert sep.tau0 == pytest.approx(plain_sep.tau0, rel=1e-14)

    def test_factor_five_at_a2(self):
        sig = complex_signal()
        sc = scenario(l=1, p=1, a=2.0)
        joint, _ = d.jcrb_scaled_known_a(sig, sc)
        baseline = d.jcrb_known(sig, sc).tau0 / 4.0  # a^2-rescaled single look
        assert joint.tau0 == pytest.approx(5.0 * baseline, rel=1e-13)

    def test_monotone_decreasing_in_a(self):
        sig = complex_signal()
        values = [d.jcrb_scaled_known_a(sig, scenario(a=a))[0].tau0
                  for a in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(values) < 0)

    def test_look_asymmetry_when_scaled(self):
        # swapping L and P changes the bound once a != 1, unlike a = 1
        sig = complex_signal()
        j_lp, _ = d.jcrb_scaled_known_a(sig, scenario(l=2, p=5, a=2.0))
        j_pl, _ = d.jcrb_scaled_known_a(sig, scenario(l=5, p=2, a=2.0))
        assert j_lp.tau0 != j_pl.tau0
        j1, _ = d.jcrb_scaled_known_a(sig, scenario(l=2, p=5, a=1.0))
        j2, _ = d.jcrb_scaled_known_a(sig, scenario(l=5, p=2, a=1.0))
        assert j1.tau0 == j2.tau0

    def test_zero_looks_singular(self):
        sig = complex_signal()
        joint, sep = d.jcrb_scaled_known_a(sig, scenario(l=0, p=2, a=1.5))
        assert joint.singular and sep.singular


class TestFimUnknownA:
    def test_schur_identity(self):
        sig = complex_signal()
        sc = scenario(l=2, p=1, a=1.7, sigma_w2=0.5)
        fim = d.fim_unknown_a(sig, sc, structure=False)
        reduced = schur_complement(fim, keep=3)
        # A is P times the single-look (tau0, f0, a) block of the scaled path
        iks = fim.submatrix(("tau0", "f0", "a")) / sc.looks_reflected
        factor = 2 * 1 / (2 + 1.7 ** 2 * 1)
        assert rel_err(reduced, factor * iks) <= 1e-9

    def test_unit_scale_submatrix_matches_unknown_signal_fim(self):
        sig = complex_signal()
        sc = scenario(a=1.0)
        with_a = d.fim_unknown_a(sig, sc, structure=False)
        keep = [i for i, lbl in enumerate(with_a.labels) if lbl != "a"]
        sub = with_a.entries[np.ix_(keep, keep)]
        plain = d.fim_unknown_signal(sig, sc)
        np.testing.assert_allclose(sub, plain.entries, rtol=1e-13, atol=0)

    def test_structure_v_matrix_zero_pattern(self):
        pt, _, _ = make_contained_train(center_frac=0.45)
        l, p, a = 2, 3, 1.3
        sc = scenario(l=l, p=p, a=a)
        fim = d.fim_unknown_a(pt, sc, structure=True)
        v3 = schur_complement(fim, keep=3)
        scale = np.max(np.abs(v3))
        assert abs(v3[0, 1]) <= 1e-10 * scale      # delay-Doppler decoupled
        assert abs(v3[1, 2]) <= 1e-10 * scale      # Doppler-scale decoupled
        # delay-scale coupling and scale information match their closed forms
        sq = d.structure_quantities(pt, sc.tau0)
        shrink = l / (l + a ** 2 * p)
        v13 = -(2 * a * p / sc.sigma_w2) * pt.amp_energy * shrink * sq.rho
        v33 = (2 * p / sc.sigma_w2) * pt.amp_energy * shrink * sq.e_g
        assert v3[0, 2] == pytest.approx(v13, abs=1e-9 * scale)
        assert v3[2, 2] == pytest.approx(v33, rel=1e-9)

    def test_oracle_agreement_unknown_a(self, contained_signal):
        sig, s_fn, _ = contained_signal
        sc = d.Scenario(tau0=3 * sig.delta, f0=0.3, looks_direct=2,
                        looks_reflected=1, sigma_w2=0.5, scale=1.7)
        analytic = d.fim_unknown_a(sig, sc, structure=False)
        oracle = d.oracle_fim_mean(sc, params="unknown_a", signal_fn=s_fn,
                                   delta=sig.delta, m=sig.m)
        assert oracle.labels == analytic.labels
        assert rel_err(analytic.entries, oracle.entries) <= 1e-4


class TestUnknownAStructure:
    def test_closed_forms_match_numeric_v_inverse(self):
        pt, _, _ = make_contained_train(center_frac=0.45)
        sc = scenario(l=2, p=3, a=1.3)
        joint, sep = d.jcrb_unknown_a_structure(pt, sc)
        fim = d.fim_unknown_a(pt, sc, structure=True)
        v3 = schur_complement(fim, keep=3)
        inv = np.linalg.inv(v3)
        assert joint.tau0 == pytest.approx(inv[0, 0], rel=1e-9)
        assert joint.f0 == pytest.approx(inv[1, 1], rel=1e-9)
        assert sep.tau0 == joint.tau0 and sep.f0 == joint.f0

    def test_quadratic_scale_dependence_of_delay_bound(self):
        pt, _, _ = make_contained_train(center_frac=0.45)
        j1, _ = d.jcrb_unknown_a_structure(pt, scenario(a=1.0))
        j2, _ = d.jcrb_unknown_a_structure(pt, scenario(a=2.0))
        assert j2.tau0 == pytest.approx(j1.tau0 / 4.0, rel=1e-13)

    def test_symmetric_pulse_reduction(self):
        pt, _, _ = make_contained_train()  # rho ~ 0
        sc = scenario(l=2, p=3, a=1.5)
        joint, _ = d.jcrb_unknown_a_structure(pt, sc)
        s2 = sc.sigma_w2
        expected = s2 / (2 * sc.scale ** 2 * 3 * pt.amp_energy
                         * float(np.sum(pt.g_deriv ** 2)))
        assert joint.tau0 == pytest.approx(expected, rel=1e-9)

    def test_rho_zero_matches_known_a_structure(self):
        # with a symmetric pulse the unknown scale costs nothing for delay
        pt, _, _ = make_contained_train()
        sc = scenario(l=4, p=2, a=1.0)
        unknown_a, _ = d.jcrb_unknown_a_structure(pt, sc)
        known_a = d.jcrb_structure_known_a(pt, sc)
        assert unknown_a.tau0 == pytest.approx(known_a.tau0, rel=1e-9)

    def test_zero_looks_singular(self):
        pt, _, _ = make_contained_train()
        for l, p in ((0, 2), (2, 0)):
            joint, sep = d.jcrb_unknown_a_structure(pt, scenario(l=l, p=p))
            assert joint.singular and sep.singular

    @settings(max_examples=40)
    @given(a=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           l=st.integers(1, 8), p=st.integers(1, 8))
    def test_ordering_preserved_under_scaling(self, a, l, p):
        pt, _, _ = make_contained_train(center_frac=0.45, width_frac=0.08)
        sig = d.synthesize_pulse_train(pt)
        sc = scenario(l=l, p=p, a=a)
        structured = jcrb_structure_known_a(pt, sc)
        joint, _ = d.jcrb_scaled_known_a(sig, sc)
        assert structured.tau0 < joint.tau0
        assert structured.f0 < joint.f0

    @settings(max_examples=30)
    @given(a=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           l=st.integers(1, 6), p=st.integers(1, 6))
    def test_unknown_a_at_least_known_a(self, a, l, p):
        pt, _, _ = make_contained_train(center_frac=0.45, width_frac=0.08)
        sc = scenario(l=l, p=p, a=a)
        known_a = jcrb_structure_known_a(pt, sc)
        unknown_a, _ = d.jcrb_unknown_a_structure(pt, sc)
        assert unknown_a.tau0 >= known_a.tau0 * (1 - 1e-12)
        assert unknown_a.f0 >= known_a.f0 * (1 - 1e-12)


class TestMergedStructuredForms:
    """The structured closed forms against exact elimination of the
    structured FIM over contained pulses, scales, and look counts."""

    @staticmethod
    def _case(n_p, center_frac, b_seed, q, tau0, a, l, p):
        rng = np.random.default_rng(b_seed)
        b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        # boundary samples ~exp(-(0.45/0.07)^2) ~ 1e-18: contained
        pt, _, _ = make_contained_train(n_p=n_p, b=tuple(b), center_frac=center_frac,
                                        width_frac=0.07)
        assert d.support_assumption_holds(pt)
        return pt, scenario(l=l, p=p, a=a, tau0=tau0)

    CASES = dict(n_p=st.integers(24, 40), center_frac=st.floats(0.45, 0.55),
                 b_seed=st.integers(0, 2 ** 31 - 1), q=st.integers(1, 4),
                 tau0=st.floats(0.0, 2.0), a=st.floats(0.5, 4.0),
                 l=st.integers(0, 8), p=st.integers(1, 8))

    @settings(max_examples=60)
    @given(**CASES)
    def test_known_a_equals_exact_elimination(self, **case):
        pt, sc = self._case(**case)
        pair = jcrb_structure_known_a(pt, sc)
        fim = d.fim_unknown_a(pt, sc, structure=True).drop("a")
        inv = invert_bound_matrix(schur_complement(fim, keep=2))
        assert not pair.singular
        assert pair.tau0 == pytest.approx(inv[0, 0], rel=1e-9)
        assert pair.f0 == pytest.approx(inv[1, 1], rel=1e-9)

    @settings(max_examples=60)
    @given(**CASES)
    def test_unknown_a_equals_exact_elimination(self, **case):
        pt, sc = self._case(**case)
        joint, sep = d.jcrb_unknown_a_structure(pt, sc)
        fim = d.fim_unknown_a(pt, sc, structure=True)
        scale = float(np.max(np.abs(fim.submatrix(("tau0", "f0", "a")))))
        inv = invert_bound_matrix(schur_complement(fim, keep=3), scale)
        if sc.looks_direct == 0:
            # scale and amplitudes trade off exactly: no finite bound
            assert joint.singular and sep.singular and inv is None
            return
        assert sep == joint and not joint.singular
        assert joint.tau0 == pytest.approx(inv[0, 0], rel=1e-9)
        assert joint.f0 == pytest.approx(inv[1, 1], rel=1e-9)


class TestSeparateUnknownA:
    def test_energy_stationary_signal_reduction(self):
        # constant-envelope chirp-like signal: sum(sR sR' + sI sI') = 0
        t = np.arange(32) * 0.2
        samples = np.exp(1j * 0.3 * t ** 2)
        deriv = 1j * 0.6 * t * samples
        sig = d.SampledSignal(samples, 0.2, deriv)
        s_e, s_x = energy_sums(sig)
        assert abs(s_x) <= 1e-12 * s_e
        sc = scenario(a=1.5)
        bound = d.crb_separate_unknown_a(sig, sc)
        s_dd, _, _ = weighted_sums(sig, sc.tau0)
        factor = (2 + 1.5 ** 2 * 3) / (2 * 3)
        assert bound.tau0 == pytest.approx(
            factor * sc.sigma_w2 / (2 * 1.5 ** 2 * s_dd), rel=1e-12)
        assert bound.f0 == d.crb_separate_unknown(sig, sc).f0

    def test_strictly_larger_than_known_a_baseline(self):
        # a truncated pulse has a nonzero energy-flow term sum(s s'), so the
        # unknown scale genuinely costs delay information
        pt = d.gaussian_pulse_train(40, 0.1, 4.0, 9.0, [0.8 - 0.6j])
        sig = d.synthesize_pulse_train(pt)
        s_e, s_x = energy_sums(sig)
        assert abs(s_x) > 1e-3 * s_e
        sc = scenario(a=1.2)
        unknown_a = d.crb_separate_unknown_a(sig, sc)
        assert unknown_a.tau0 > 1.001 * d.crb_separate_unknown(sig, sc).tau0

    def test_matches_dense_elimination_for_real_signal(self):
        sig = d.triangle_wave(12, delta=0.4)
        _, s_x = energy_sums(sig)
        assert s_x != 0.0
        sc = scenario(l=3, p=2, a=1.4)
        bound = d.crb_separate_unknown_a(sig, sc)
        # oracle: drop the Doppler row from the full unknown-a FIM, then
        # eliminate the scale and every signal sample
        fim = d.fim_unknown_a(sig, sc, structure=False).drop("f0")
        entries = fim.entries
        keep = entries[:1, :1]
        cross = entries[:1, 1:]
        nuis = entries[1:, 1:]
        reduced = keep - cross @ np.linalg.solve(nuis, cross.T)
        assert bound.tau0 == pytest.approx(1.0 / reduced[0, 0], rel=1e-9)

    def test_schwartz_equality_singular(self):
        # s' proportional to s makes scale and delay indistinguishable
        t = np.arange(16) * 0.3
        samples = np.exp(-0.7 * t)
        sig = d.SampledSignal(samples, 0.3, -0.7 * samples)
        assert d.crb_separate_unknown_a(sig, scenario()).singular

    @pytest.mark.parametrize("l,p", [(0, 2), (3, 0)])
    def test_no_looks_singular(self, l, p):
        pair = d.crb_separate_unknown_a(d.triangle_wave(12, delta=0.4), scenario(l=l, p=p))
        assert pair.singular and pair.note.startswith("L = 0 or P = 0")

    def test_separate_doppler_bound_unchanged_by_unknown_scale(self):
        # the Doppler row decouples from the scale row, so estimating a does
        # not degrade the separate Doppler bound: dense elimination of
        # (a, samples) from the tau0-free FIM equals the known-a form
        sig = d.triangle_wave(12, delta=0.4)
        sc = scenario(l=3, p=2, a=1.4)
        _, sep_known_a = d.jcrb_scaled_known_a(sig, sc)
        fim = d.fim_unknown_a(sig, sc, structure=False).drop("tau0")
        entries = fim.entries
        reduced = entries[:1, :1] - entries[:1, 1:] @ np.linalg.solve(
            entries[1:, 1:], entries[1:, :1])
        assert 1.0 / reduced[0, 0] == pytest.approx(sep_known_a.f0, rel=1e-10)
        assert d.crb_separate_unknown_a(sig, sc).f0 == sep_known_a.f0


# a includes scales whose libm square a ** 2 and product a * a differ in the last bit
@settings(max_examples=60)
@given(l=st.integers(0, 5), p=st.integers(0, 5), tau0=st.floats(0.0, 5.0),
       a=st.one_of(st.floats(0.1, 5.0), st.sampled_from([1.1819892991055851, 3.653940296573571])),
       sigma_w2=st.floats(1e-3, 10.0), n_p=st.integers(4, 30), flat=st.booleans())
def test_one_point_bounds_equal_the_scalar_forms(l, p, tau0, a, sigma_w2, n_p, flat):
    """The library's scalar bounds are the one-point case of the column forms,
    bit for bit the per-scenario Python-float forms, singular notes included
    (flat: a constant signal, whose known and separate pairs are singular)."""
    pt, _, _ = make_contained_train(n_p=n_p)
    sig = d.synthesize_pulse_train(pt)
    if flat:
        sig = d.SampledSignal.from_samples(np.ones(n_p), 0.25)
    sc = scenario(l=l, p=p, a=a, tau0=tau0, sigma_w2=sigma_w2)
    assert signal_bounds(sig, sc) == scalar_signal_bounds(sig, sc)
    assert jcrb_structure_known_a(pt, sc) == structure_pair(pt, sc)
    if l and p:
        joint, _ = d.jcrb_unknown_a_structure(pt, sc)
        assert joint == structure_pair(pt, sc, scale_known=False)
