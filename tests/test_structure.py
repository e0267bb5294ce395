"""Known-structure (pulse train) bound tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import schur_complement

from conftest import make_contained_train, rel_err


def scenario(l=1, p=1, tau0=0.5, f0=0.4, sigma_w2=0.7):
    return d.Scenario(tau0=tau0, f0=f0, looks_direct=l, looks_reflected=p,
                      sigma_w2=sigma_w2)


def impulse_train(q=1, tau0_irrelevant=None):
    """Single-sample pulse: no derivative information at all."""
    b = np.ones(q, dtype=complex)
    return d.PulseTrain(g=[1.0, 0.0], g_deriv=[0.0, 0.0], b=b, delta=0.5)


class TestStructureQuantities:
    def test_symmetric_pulse_rho_vanishes(self):
        pt, _, _ = make_contained_train()
        sq = d.structure_quantities(pt, 0.5)
        scale = np.sum(np.abs(pt.g_deriv * pt.g))
        assert abs(sq.rho) <= 1e-12 * max(scale, 1.0)

    def test_impulse_pulse_quantities(self):
        pt = impulse_train(q=3)
        sq = d.structure_quantities(pt, 0.7)
        assert sq.e_g == pytest.approx(1.0)
        np.testing.assert_allclose(sq.gamma, [0.7 + q * 0.5 for q in range(3)],
                                   rtol=1e-14)

    def test_time_moments_match_per_pulse_loop(self):
        # same arithmetic as one sum per pulse, so the results are equal
        pt, _, _ = make_contained_train(b=(1.0, 0.5j, -2.0, 1.0 + 1.0j))
        tau0 = 0.3
        sq = d.structure_quantities(pt, tau0)
        t = np.arange(pt.n_p + 1) * pt.delta
        g2 = pt.g ** 2
        for q in range(pt.n_pulses):
            assert sq.gamma[q] == float(np.sum((t + tau0 + q * pt.t_p) * g2))
            assert sq.w[q] == float(np.sum((t + tau0 + q * pt.t_p) ** 2 * g2))
        assert sq.dg2 == float(np.sum(pt.g_deriv ** 2))

    def test_gram_matrix_symmetric_with_boundary_overlap(self):
        g, g_deriv = d.gaussian_pulse(500, 0.01, center=4.0, width2=9.0)
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[1.0, 1.0], delta=0.01)
        fim = d.fim_known_structure(pt, scenario(tau0=0.05))
        assert fim.meta["blocks"] == "general"
        gram = fim.border.gram.band
        # K is kept as its lower band, gram[d, j] = K[j + d, j]; the dense
        # view mirrors it, so the nuisance block is symmetric
        c_block = fim.entries[2:, 2:]
        np.testing.assert_allclose(c_block, c_block.T, atol=0)
        # adjacent pulses share exactly the boundary sample
        assert gram[1, 0] == pytest.approx(g[0] * g[-1], rel=1e-12)

    def test_support_dispatch(self):
        contained, _, _ = make_contained_train()
        assert d.support_assumption_holds(contained)
        g, g_deriv = d.gaussian_pulse(500, 0.01, center=4.0, width2=9.0)
        wide = d.PulseTrain(g=g, g_deriv=g_deriv, b=[1.0, 1.0], delta=0.01)
        assert not d.support_assumption_holds(wide)


class TestFimKnownStructure:
    def test_simplified_c_block_value(self):
        # E_g = 2 with hard-zero boundaries: diagonal (2L+2P) E_g / sigma_w2 = 8
        pt = d.PulseTrain(g=[0.0, 1.0, 1.0, 0.0], g_deriv=[0.0, 1.0, -1.0, 0.0],
                          b=[1 + 0j, 1 + 0j], delta=0.5)
        fim = d.fim_known_structure(pt, scenario(l=1, p=1, sigma_w2=1.0))
        assert fim.meta["blocks"] == "simplified"
        np.testing.assert_allclose(np.diag(fim.entries[2:, 2:]), 8.0, rtol=1e-14)

    def test_symmetric_single_pulse_kills_delay_coupling(self):
        pt, _, _ = make_contained_train(b=(1.0 + 0j,))
        fim = d.fim_known_structure(pt, scenario())
        # first row of the amplitude coupling is rho-scaled, rho ~ 0
        scale = np.max(np.abs(fim.entries))
        assert np.max(np.abs(fim.entries[0, 2:])) <= 1e-12 * scale

    def test_general_fallback_on_wide_pulse(self):
        g, g_deriv = d.gaussian_pulse(100, 0.05, center=4.0, width2=9.0)
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[1.0, 1.0j], delta=0.05)
        fim = d.fim_known_structure(pt, scenario())
        assert fim.meta["blocks"] == "general"
        # general square block carries the full Gram structure (b1R-b2R coupling)
        assert fim.entries[2, 4] != 0.0

    def test_parameter_count_smaller_than_samples(self, contained_train):
        pt, _, _ = contained_train
        fim = d.fim_known_structure(pt, scenario())
        sig = d.synthesize_pulse_train(pt)
        assert fim.dim == 2 + 2 * pt.n_pulses < 2 + 2 * sig.m


def v_closed(pt, sc):
    """Eliminated delay/Doppler block of the a-general closed form."""
    pair = d.jcrb_structure_known_a(pt, sc)
    return np.diag([1.0 / pair.tau0, 1.0 / pair.f0])


class TestVMatrix:
    def test_closed_form_matches_numeric_elimination(self, contained_train):
        pt, _, _ = contained_train
        sc = scenario(l=1, p=1)
        v = v_closed(pt, sc)
        v_num = schur_complement(d.fim_known_structure(pt, sc))
        assert rel_err(v, v_num) <= 1e-10

    def test_cross_term_negligible(self, contained_train):
        pt, _, _ = contained_train
        v_num = schur_complement(d.fim_known_structure(pt, scenario(l=2, p=3)))
        assert abs(v_num[0, 1]) <= 1e-10 * abs(v_num[0, 0])

    def test_large_l_limit(self, contained_train):
        pt, _, _ = contained_train
        sc = scenario(l=10 ** 12, p=2)
        v = v_closed(pt, sc)
        expected = (2 * 2 / sc.sigma_w2) * pt.amp_energy * np.sum(pt.g_deriv ** 2)
        assert v[0, 0] == pytest.approx(expected, rel=1e-9)


class TestJcrbKnownStructure:
    def test_symmetric_pulse_equal_looks_decay(self):
        pt, _, _ = make_contained_train(b=(0.6 - 0.8j, 1.1 + 0.3j))
        single = d.jcrb_known_signal_pulse(pt, scenario())
        for k in (1, 2, 8):
            pair = d.jcrb_structure_known_a(pt, scenario(l=k, p=k))
            assert pair.tau0 == pytest.approx(single.tau0 / k, rel=1e-9)

    def test_strictly_below_unknown_signal_bounds(self):
        pt, _, _ = make_contained_train(center_frac=0.45)  # asymmetric: rho != 0
        sig = d.synthesize_pulse_train(pt)
        sc = scenario(l=2, p=3)
        structured = d.jcrb_structure_known_a(pt, sc)
        unknown = d.jcrb_unknown(sig, sc)
        assert structured.tau0 < unknown.tau0
        assert structured.f0 < unknown.f0

    def test_impulse_pulse_is_singular_equality_path(self):
        pair = d.jcrb_structure_known_a(impulse_train(), scenario())
        assert pair.singular

    def test_monotone_in_coupling_term(self, contained_train):
        # the delay bound grows as the rho^2-driven correction grows
        pt, _, _ = contained_train
        sc = scenario(l=2, p=3)
        sum_b2 = pt.amp_energy
        sum_dg2 = float(np.sum(pt.g_deriv ** 2))
        e_g = float(np.sum(pt.g ** 2))
        pfrac = 3 / (2 + 3)
        rho_max = np.sqrt(e_g * sum_dg2)
        values = []
        for rho in np.linspace(0.0, 0.9 * rho_max, 7):
            v11 = (2 * 3 / sc.sigma_w2) * sum_b2 * (sum_dg2 - pfrac * rho ** 2 / e_g)
            values.append(1.0 / v11)
        assert np.all(np.diff(values) > 0)

    def test_inverse_v_diagonal_joint_equals_separate(self, contained_train):
        # V is diagonal, so the joint bounds (inverse of V) equal the
        # separate ones (reciprocal diagonal)
        pt, _, _ = contained_train
        sc = scenario(l=2, p=2)
        v = schur_complement(d.fim_known_structure(pt, sc))
        inv = np.linalg.inv(v)
        pair = d.jcrb_structure_known_a(pt, sc)
        assert abs(inv[0, 1]) <= 1e-10 * abs(inv[0, 0])
        assert pair.tau0 == pytest.approx(1.0 / v[0, 0], rel=1e-10)
        assert pair.tau0 == pytest.approx(inv[0, 0], rel=1e-10)
        assert pair.f0 == pytest.approx(1.0 / v[1, 1], rel=1e-10)
        assert pair.f0 == pytest.approx(inv[1, 1], rel=1e-10)


class TestGeneralBlocksOracle:
    def test_general_blocks_match_mean_gradient_assembly(self):
        # wide pulse: adjacent copies overlap materially, so the exact
        # coupling forms are in play; rebuild the whole FIM from the stacked
        # mean gradients, parameter by parameter, and compare entrywise
        g, g_deriv = d.gaussian_pulse(40, 0.1, center=4.0, width2=9.0)
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[0.7 + 0.4j, -1.1 + 0.2j, 0.3 - 0.9j],
                          delta=0.1)
        l, p = 2, 3
        sc = d.Scenario(tau0=0.3, f0=0.6, looks_direct=l, looks_reflected=p,
                        sigma_w2=0.8)
        fim = d.fim_known_structure(pt, sc)
        assert fim.meta["blocks"] == "general"

        sig = d.synthesize_pulse_train(pt)
        n0 = sc.delay_samples(sig.delta)
        n = n0 + sig.m
        idx = np.arange(n0, n0 + sig.m)
        phase = np.exp(2j * np.pi * sc.f0 * idx * sig.delta)
        shifted = np.zeros((pt.n_pulses, sig.m))
        for q in range(pt.n_pulses):
            start = q * pt.n_p
            stop = min(start + pt.n_p + 1, sig.m)
            shifted[q, start:stop] = pt.g[: stop - start]

        def gradients(label):
            d_direct = np.zeros(n, dtype=complex)
            d_reflected = np.zeros(n, dtype=complex)
            if label == "tau0":
                d_reflected[idx] = -sig.deriv * phase
            elif label == "f0":
                d_reflected[idx] = 2j * np.pi * idx * sig.delta * sig.samples * phase
            else:
                q = int(label[1]) - 1
                unit = 1.0 if label.endswith("R") else 1.0j
                d_direct[: sig.m] = unit * shifted[q]
                d_reflected[idx] = unit * shifted[q] * phase
            return d_direct, d_reflected

        dim = 2 + 2 * pt.n_pulses
        expected = np.empty((dim, dim))
        for i, li in enumerate(fim.labels):
            gi_d, gi_r = gradients(li)
            for j, lj in enumerate(fim.labels):
                gj_d, gj_r = gradients(lj)
                val = l * np.vdot(gi_d, gj_d) + p * np.vdot(gi_r, gj_r)
                expected[i, j] = 2.0 / sc.sigma_w2 * val.real
        assert rel_err(fim.entries, expected) <= 1e-12

    def test_scaled_general_blocks_match_mean_gradient_assembly(self):
        g, g_deriv = d.gaussian_pulse(40, 0.1, center=4.0, width2=9.0)
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[0.7 + 0.4j, -1.1 + 0.2j], delta=0.1)
        l, p, a = 2, 3, 1.4
        sc = d.Scenario(tau0=0.3, f0=0.6, looks_direct=l, looks_reflected=p,
                        sigma_w2=0.8, scale=a)
        from ddcrb.scaled import fim_unknown_a
        fim = fim_unknown_a(pt, sc, structure=True)
        assert fim.meta["blocks"] == "general"

        sig = d.synthesize_pulse_train(pt)
        n0 = sc.delay_samples(sig.delta)
        n = n0 + sig.m
        idx = np.arange(n0, n0 + sig.m)
        phase = np.exp(2j * np.pi * sc.f0 * idx * sig.delta)
        shifted = np.zeros((pt.n_pulses, sig.m))
        for q in range(pt.n_pulses):
            start = q * pt.n_p
            stop = min(start + pt.n_p + 1, sig.m)
            shifted[q, start:stop] = pt.g[: stop - start]

        def gradients(label):
            d_direct = np.zeros(n, dtype=complex)
            d_reflected = np.zeros(n, dtype=complex)
            if label == "tau0":
                d_reflected[idx] = -a * sig.deriv * phase
            elif label == "f0":
                d_reflected[idx] = 2j * np.pi * idx * sig.delta * a * sig.samples * phase
            elif label == "a":
                d_reflected[idx] = sig.samples * phase
            else:
                q = int(label[1]) - 1
                unit = 1.0 if label.endswith("R") else 1.0j
                d_direct[: sig.m] = unit * shifted[q]
                d_reflected[idx] = a * unit * shifted[q] * phase
            return d_direct, d_reflected

        dim = 3 + 2 * pt.n_pulses
        expected = np.empty((dim, dim))
        for i, li in enumerate(fim.labels):
            gi_d, gi_r = gradients(li)
            for j, lj in enumerate(fim.labels):
                gj_d, gj_r = gradients(lj)
                val = l * np.vdot(gi_d, gj_d) + p * np.vdot(gi_r, gj_r)
                expected[i, j] = 2.0 / sc.sigma_w2 * val.real
        assert rel_err(fim.entries, expected) <= 1e-12


class TestKnownSignalPulseForm:
    def test_agrees_with_sample_form(self, contained_train):
        pt, _, _ = contained_train
        sig = d.synthesize_pulse_train(pt)
        sc = scenario()
        pulse_form = d.jcrb_known_signal_pulse(pt, sc)
        sample_form = d.jcrb_known(sig, sc)
        assert pulse_form.tau0 == pytest.approx(sample_form.tau0, rel=1e-10)
        assert pulse_form.f0 == pytest.approx(sample_form.f0, rel=1e-10)

    def test_amplitude_scaling(self, contained_train):
        pt, _, _ = contained_train
        doubled = d.PulseTrain(g=pt.g, g_deriv=pt.g_deriv, b=2.0 * pt.b, delta=pt.delta)
        sc = scenario()
        base = d.jcrb_known_signal_pulse(pt, sc)
        quad = d.jcrb_known_signal_pulse(doubled, sc)
        assert quad.tau0 == pytest.approx(base.tau0 / 4, rel=1e-14)
        assert quad.f0 == pytest.approx(base.f0 / 4, rel=1e-14)

    def test_doubling_pulse_count_halves_delay_bound(self):
        pt2, _, _ = make_contained_train(b=(1.0 + 0.5j,) * 2)
        pt4, _, _ = make_contained_train(b=(1.0 + 0.5j,) * 4)
        sc = scenario()
        assert d.jcrb_known_signal_pulse(pt4, sc).tau0 == pytest.approx(
            d.jcrb_known_signal_pulse(pt2, sc).tau0 / 2, rel=1e-13)


class TestOrderingChain:
    @settings(max_examples=100)
    @given(l=st.integers(1, 16), p=st.integers(1, 16),
           b_seed=st.integers(0, 2 ** 31- 1),
           center_frac=st.floats(0.35, 0.65))
    def test_structured_strictly_below_unknown(self, l, p, b_seed, center_frac):
        rng = np.random.default_rng(b_seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pt, _, _ = make_contained_train(b=tuple(b), center_frac=center_frac,
                                        width_frac=0.08)
        sig = d.synthesize_pulse_train(pt)
        sc = scenario(l=l, p=p)
        structured = d.jcrb_structure_known_a(pt, sc)
        unknown = d.jcrb_unknown(sig, sc)
        margin_tau = unknown.tau0 - structured.tau0
        margin_f = unknown.f0 - structured.f0
        assert margin_tau > 0, f"delay margin {margin_tau}"
        assert margin_f > 0, f"Doppler margin {margin_f}"
