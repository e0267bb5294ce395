"""Covariance-form FIM tests: stacking, derivatives, rank-two FIM against the
dense trace and Kronecker oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import PSD_RTOL

from conftest import make_contained_train, rel_err
from dense_oracles import (dc_dtheta, dense_dc, fim_kron_form, fim_trace_dense,
                           j_factors, sample_gradient, stacked_mean)


def small_setup(l=1, p=1, n=8, f0=0.2, scale=1.0, seed=0):
    pt, _, _ = make_contained_train(n_p=4, delta=0.5, b=(1.0 - 0.5j,))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=2 * sig.delta, f0=f0, looks_direct=l, looks_reflected=p,
                    sigma_w2=1.0, scale=scale, record_length=n)
    return sig, sc


def random_psd(dim, rng, jitter=0.5):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T / dim + jitter * np.eye(dim)


class TestBuildStacked:
    def test_white_noise_covariance(self):
        sig, sc = small_setup()
        dim = 16
        model = d.build_stacked(sig, sc, 0.7 * np.eye(dim, dtype=complex))
        expected = np.outer(model.s_stack, model.s_stack.conj()) + 0.7 * np.eye(dim)
        np.testing.assert_allclose(model.c, expected, atol=0)

    def test_degenerate_scenario_repeats_blocks(self):
        sig, _ = small_setup()
        sc = d.Scenario(tau0=0.0, f0=0.0, looks_direct=2, looks_reflected=2,
                        sigma_w2=1.0, record_length=8)
        model = d.build_stacked(sig, sc, np.eye(32, dtype=complex))
        blocks = model.s_stack.reshape(4, 8)
        for k in range(1, 4):
            np.testing.assert_allclose(blocks[k], blocks[0], atol=0)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(5)
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, random_psd(16, rng))
        np.testing.assert_allclose(model.c, model.c.conj().T, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        sig, sc = small_setup()
        with pytest.raises(ValueError, match="Sigma_cn"):
            d.build_stacked(sig, sc, np.eye(10, dtype=complex))

    def test_non_hermitian_rejected(self):
        sig, sc = small_setup()
        bad = np.eye(16, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            d.build_stacked(sig, sc, bad)

    @pytest.mark.parametrize("factor, accepted", [(-2.0, False), (-0.5, True)])
    def test_psd_boundary(self, factor, accepted):
        # lambda_min = factor * t with t = PSD_RTOL max|Sigma|, in a random basis
        rng = np.random.default_rng(7)
        sig, sc = small_setup()
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        lam = np.linspace(0.5, 1.0, 16)
        lam[0] = 0.0
        base = (q * lam) @ q.conj().T
        lam[0] = factor * PSD_RTOL * np.max(np.abs(base))
        sigma = (q * lam) @ q.conj().T
        sigma = 0.5 * (sigma + sigma.conj().T)
        if accepted:
            d.build_stacked(sig, sc, sigma)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                d.build_stacked(sig, sc, sigma)


class TestCovarianceDerivatives:
    def test_sample_derivative_rank_at_most_two(self):
        rng = np.random.default_rng(1)
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, random_psd(16, rng))
        dc = dense_dc(model, d.dc_list(model, sig, sc))[4]  # sR_1
        assert np.linalg.matrix_rank(dc) <= 2
        np.testing.assert_allclose(dc, dc_dtheta(model, sig, sc, 1, 1.0),
                                   rtol=0, atol=1e-14 * np.max(np.abs(dc)))

    def test_doppler_derivative_vanishes_on_direct_blocks(self):
        rng = np.random.default_rng(2)
        sig, sc = small_setup(l=2, p=1, n=8)
        model = d.build_stacked(sig, sc, random_psd(24, rng))
        g = d.dc_list(model, sig, sc)
        assert np.max(np.abs(g[:16, 1])) == 0.0
        dc = dense_dc(model, g)[1]
        assert np.max(np.abs(dc[:16, :16])) == 0.0

    def test_all_hermitian(self):
        rng = np.random.default_rng(3)
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, random_psd(16, rng))
        for dc in dense_dc(model, d.dc_list(model, sig, sc)):
            np.testing.assert_allclose(dc, dc.conj().T, atol=1e-14)

    def test_delay_derivative_matches_finite_difference(self):
        # differentiate the smooth pulse off-grid and compare to the
        # analytic-sample-derivative construction
        pt, g_fn, dg_fn = make_contained_train(n_p=4, delta=0.5, b=(1.0 - 0.5j,))
        sig = d.synthesize_pulse_train(pt)
        s_fn, _ = d.pulse_train_fn(pt, g_fn, dg_fn)
        sc = d.Scenario(tau0=2 * sig.delta, f0=0.2, looks_direct=1,
                        looks_reflected=1, sigma_w2=1.0, record_length=8)
        model = d.build_stacked(sig, sc, np.eye(16, dtype=complex))
        ds_analytic = d.dc_list(model, sig, sc)[:, 0]

        h = 1e-5
        t_all = np.arange(8) * sig.delta
        phase = np.exp(2j * np.pi * sc.f0 * t_all)

        def reflected(tau):
            return np.asarray(s_fn(t_all - tau), complex) * phase

        fd = (reflected(sc.tau0 + h) - reflected(sc.tau0 - h)) / (2 * h)
        np.testing.assert_allclose(ds_analytic[8:], fd, rtol=1e-5, atol=1e-9)

    def test_model_from_other_scenario_rejected(self):
        sig, sc = small_setup(l=1, p=1)
        model = d.build_stacked(sig, sc, np.eye(16, dtype=complex))
        with pytest.raises(ValueError, match="another scenario"):
            d.dc_list(model, sig, small_setup(l=2, p=1)[1])

    @settings(max_examples=40)
    @given(l=st.integers(0, 3), p=st.integers(0, 3), n_p=st.integers(2, 5),
           n0=st.integers(1, 4), extra=st.integers(1, 3),
           a=st.floats(0.2, 3.0).filter(lambda a: a != 1.0),
           f0=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 31 - 1))
    def test_gradient_columns_match_stacked_mean_differences(self, l, p, n_p, n0, extra,
                                                             a, f0, seed):
        # the tau0 column is checked against an off-grid difference above
        assume(l + p > 0)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pt, _, _ = make_contained_train(n_p=n_p, delta=0.5, b=tuple(b))
        sig = d.synthesize_pulse_train(pt)
        sc = d.Scenario(tau0=n0 * sig.delta, f0=f0, looks_direct=l, looks_reflected=p,
                        sigma_w2=1.0, scale=a, record_length=n0 + sig.m + extra)
        mean = stacked_mean(sig, sc)
        g = d.dc_list(d.build_stacked(sig, sc, np.eye(mean.size, dtype=complex)), sig, sc)
        assert g.shape == (mean.size, 2 + 2 * sig.m)

        h = 1e-6
        fd = (stacked_mean(sig, dataclasses.replace(sc, f0=f0 + h))
              - stacked_mean(sig, dataclasses.replace(sc, f0=f0 - h))) / (2 * h)
        np.testing.assert_allclose(g[:, 1], fd, rtol=0,
                                   atol=1e-7 * max(np.max(np.abs(fd)), 1.0))
        tol = 1e-14 * max(np.max(np.abs(mean)), 1.0)
        for k in range(sig.m):
            for col, unit in ((2 + 2 * k, 1.0), (3 + 2 * k, 1.0j)):
                np.testing.assert_allclose(g[:, col], sample_gradient(sig, sc, k, unit),
                                           rtol=0, atol=tol)


class TestFimForms:
    def test_diagonal_toy_reduction(self):
        # diagonal C with diagonal derivatives reduces entrywise
        c_diag = np.array([2.0, 3.0])
        stack = np.zeros(2, dtype=complex)
        model = d.StackedModel(s_stack=stack, c=np.diag(c_diag).astype(complex))
        d1 = np.diag([1.0, 0.5]).astype(complex)
        d2 = np.diag([0.25, -1.0]).astype(complex)
        fim = fim_trace_dense(model, [d1, d2])
        expected = np.empty((2, 2))
        for i, da in enumerate((d1, d2)):
            for j, db in enumerate((d1, d2)):
                expected[i, j] = np.sum(np.diag(da).real * np.diag(db).real / c_diag ** 2)
        np.testing.assert_allclose(fim.entries, expected, rtol=1e-14)

    def test_zero_derivatives_zero_fim(self):
        model = d.StackedModel(s_stack=np.zeros(2, complex), c=np.eye(2, dtype=complex))
        fim = d.fim_trace_form(model, np.zeros((2, 2), complex))
        np.testing.assert_array_equal(fim.entries, 0.0)

    def test_identity_covariance_kron_reduction(self):
        rng = np.random.default_rng(6)
        model = d.StackedModel(s_stack=np.zeros(3, complex), c=np.eye(3, dtype=complex))
        ds = []
        for _ in range(2):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ds.append(a + a.conj().T)
        fim = fim_kron_form(model, ds)
        expected = np.real(np.sum(ds[0].conj() * ds[1]))
        assert fim.entries[0, 1] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_trace_equals_kron_randomized(self, seed):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        n = 8
        sig, sc = small_setup(l=l, p=p, n=n, f0=float(rng.uniform(-1, 1)))
        dim = n * (l + p)
        model = d.build_stacked(sig, sc, random_psd(dim, rng))
        g = d.dc_list(model, sig, sc)
        ft = d.fim_trace_form(model, g)
        fk = fim_kron_form(model, dense_dc(model, g))
        assert rel_err(ft.entries, fk.entries) <= 1e-8

    @settings(max_examples=40)
    @given(l=st.integers(0, 3), p=st.integers(0, 3), n_p=st.integers(2, 6),
           extra=st.integers(0, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_rank_two_matches_both_dense_oracles(self, l, p, n_p, extra, seed):
        assume(l + p > 0)
        rng = np.random.default_rng(seed)
        pt, _, _ = make_contained_train(n_p=n_p, delta=0.5, b=(1.0 - 0.5j,))
        sig = d.synthesize_pulse_train(pt)
        n = sig.m + 2 + extra
        sc = d.Scenario(tau0=2 * sig.delta, f0=float(rng.uniform(-1, 1)),
                        looks_direct=l, looks_reflected=p, sigma_w2=1.0,
                        record_length=n)
        model = d.build_stacked(sig, sc, random_psd(n * (l + p), rng))
        g = d.dc_list(model, sig, sc)
        dense = dense_dc(model, g)
        fim = d.fim_trace_form(model, g).entries
        # normwise: an entry ~1e-11 of the scale whose derivative is nearly a
        # pure phase rotation of s (one dominant pulse sample, one path
        # missing) cancels exactly in the dense dC but only to ~1e-15 of the
        # scale in the factored form
        for oracle in (fim_trace_dense, fim_kron_form):
            ref = oracle(model, dense).entries
            assert np.max(np.abs(fim - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_j_factor_decomposition(self):
        rng = np.random.default_rng(11)
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, random_psd(16, rng))
        g = d.dc_list(model, sig, sc)
        fim = d.fim_trace_form(model, g)
        j = j_factors(model, dense_dc(model, g))
        cross = np.real(np.vdot(j[:, 0], j[:, 1]))
        assert cross == pytest.approx(fim.entries[0, 1], rel=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(12)
        sig, sc = small_setup(l=2, p=1)
        model = d.build_stacked(sig, sc, random_psd(24, rng))
        fim = d.fim_trace_form(model, d.dc_list(model, sig, sc))
        eigs = np.linalg.eigvalsh(fim.entries)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_non_hermitian_c_rejected(self):
        # the Cholesky factor reads one triangle only, so asymmetry is checked
        c = np.array([[2.0, 1.0], [0.0, 2.0]], complex)
        model = d.StackedModel(s_stack=np.ones(2, complex), c=c)
        with pytest.raises(ValueError, match="Hermitian"):
            d.fim_trace_form(model, np.eye(2, dtype=complex))

    def test_singular_c_rejected(self):
        model = d.StackedModel(s_stack=np.zeros(2, complex), c=np.zeros((2, 2), complex))
        with pytest.raises(ValueError, match="positive definite"):
            d.fim_trace_form(model, np.eye(2, dtype=complex)[:, :1])


class TestCrbCorrelated:
    def test_report_on_white_noise(self):
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, np.eye(16, dtype=complex))
        rep = d.crb_correlated(model, d.dc_list(model, sig, sc))
        assert not rep.singular
        assert rep.values["tau0"] > 0 and rep.values["f0"] > 0
        # different statistical model: no equality with the mean-model bound,
        # but both are finite and same order of magnitude
        mean_model = d.jcrb_unknown(sig, sc)
        assert 0.01 < rep.values["tau0"] / mean_model.tau0 < 100

    def test_one_decomposition_per_call(self, monkeypatch):
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, random_psd(16, np.random.default_rng(5)))
        g = d.dc_list(model, sig, sc)
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        d.crb_correlated(model, g)
        assert calls == ["eigh"]

    def test_values_are_those_of_the_validated_fim(self):
        sig, sc = small_setup(l=2, p=1)
        model = d.build_stacked(sig, sc, random_psd(24, np.random.default_rng(8)))
        g = d.dc_list(model, sig, sc)
        lam, vec = np.linalg.eigh(d.fim_trace_form(model, g).entries)
        keep = lam > lam[-1] / d.fim.SINGULAR_COND
        inv = (vec[:, keep] / lam[keep]) @ vec[:, keep].T
        rep = d.crb_correlated(model, g)
        assert (rep.values["tau0"], rep.values["f0"]) == (inv[0, 0], inv[1, 1])

    def test_psd_check_reads_the_eigenvalues(self, monkeypatch):
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, np.eye(16, dtype=complex))
        g = d.dc_list(model, sig, sc)
        fim = d.fim_trace_form(model, g).entries
        # one eigenvalue pushed just past the PSD_RTOL tolerance of FimMatrix
        lam, vec = np.linalg.eigh(fim)
        lam[0] = -2 * PSD_RTOL * np.max(np.abs(lam))
        bad = (vec * lam) @ vec.T
        bad = 0.5 * (bad + bad.T)
        with pytest.raises(ValueError, match="positive semidefinite"):
            d.FimMatrix(bad, tuple(f"theta_{i}" for i in range(len(bad))))
        monkeypatch.setattr(d.covariance, "_trace_form", lambda model, dc: bad)
        with pytest.raises(ValueError, match="positive semidefinite"):
            d.crb_correlated(model, g)

    def test_no_direct_look_flags_singular(self):
        rng = np.random.default_rng(13)
        sig, _ = small_setup()
        sc = d.Scenario(tau0=2 * sig.delta, f0=0.2, looks_direct=0,
                        looks_reflected=2, sigma_w2=1.0, record_length=8)
        model = d.build_stacked(sig, sc, random_psd(16, rng))
        rep = d.crb_correlated(model, d.dc_list(model, sig, sc))
        assert rep.singular
        assert not np.isfinite(rep.values["tau0"])

    def test_noise_scaling_monotone(self):
        sig, sc = small_setup()
        values = []
        for scale in (1.0, 4.0, 16.0):
            model = d.build_stacked(sig, sc, scale * np.eye(16, dtype=complex))
            rep = d.crb_correlated(model, d.dc_list(model, sig, sc))
            values.append(rep.values["tau0"])
        assert values[0] < values[1] < values[2]

    def test_gauge_null_direction_is_reported(self):
        sig, sc = small_setup()
        model = d.build_stacked(sig, sc, np.eye(16, dtype=complex))
        rep = d.crb_correlated(model, d.dc_list(model, sig, sc))
        assert rep.details["null_directions"] == 1

    def test_scale_beyond_dense_derivatives(self):
        # M = 200, L = P = 1: stacked N = 408 and p = 402, where p dense
        # N x N derivatives would take about 1 GB
        sig = d.triangle_wave(200)
        sc = d.Scenario(tau0=4.0, f0=0.05, looks_direct=1, looks_reflected=1,
                        sigma_w2=0.5)
        dim = 2 * (4 + sig.m)
        lag = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
        model = d.build_stacked(sig, sc, (0.5 * 0.6 ** lag).astype(complex))
        g = d.dc_list(model, sig, sc)
        assert g.shape == (dim, 2 + 2 * sig.m)
        rep = d.crb_correlated(model, g)
        assert rep.singular or all(np.isfinite(v) and v > 0 for v in rep.values.values())
