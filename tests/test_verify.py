"""Verification tests: FD oracle agreement, simulation, profiled ML."""

import dataclasses
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb import bounds, verify
from ddcrb.cli import main

from conftest import make_contained_train, rel_err
from test_results import _reproduce_module


def mc_setup(sigma_w2=1e-3, l=1, p=1, n0=4, f0=0.3, trials=20, seed=11,
             n_p=16, fspan=0.1, fpoints=41):
    pt, g_fn, dg_fn = make_contained_train(n_p=n_p, delta=0.25, b=(1.0 + 0.0j,))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=n0 * sig.delta, f0=f0, looks_direct=l, looks_reflected=p,
                    sigma_w2=sigma_w2, record_length=n0 + 4 + sig.m)
    cfg = d.McConfig(trials=trials, seed=seed,
                     tau_grid=tuple(range(max(0, n0 - 4), n0 + 5)),
                     f_grid=tuple(np.linspace(f0 - fspan, f0 + fspan, fpoints)))
    return sig, sc, cfg


def workload_setup(seed):
    """(sig, sc, cfg) that the montecarlo run of scripts/reproduce_results.py (500
    trials, M = 64, an 11 x 41 grid) hands the search at seed."""
    handed = []
    with mock.patch.object(verify, "_mc_estimates",
                           lambda *args: handed.append(args) or np.zeros((args[2].trials, 4))):
        assert main([*dict(_reproduce_module().RUNS)["montecarlo"], "--seed", str(seed),
                     "--out", os.devnull]) == 0
    return handed[0]


# both grid-search estimators under one call shape
ESTIMATORS = {
    "profiled": lambda obs, sig, sc, cfg: d.profile_ml_estimate(obs, sc, cfg),
    "known": lambda obs, sig, sc, cfg: d.ml_estimate_known(obs, sig, cfg),
}


class TestOracleAgreement:
    def test_known_signal_fim(self, contained_signal):
        sig, s_fn, _ = contained_signal
        sc = d.Scenario(tau0=3 * sig.delta, f0=0.3, looks_direct=2,
                        looks_reflected=1, sigma_w2=0.5)
        analytic = d.fim_known_signal(sig, sc)
        oracle = d.oracle_fim_mean(sc, params="known", signal_fn=s_fn,
                                   delta=sig.delta, m=sig.m)
        assert rel_err(analytic.entries, oracle.entries) <= 1e-4

    def test_unknown_signal_fim_m16(self, contained_signal):
        sig, s_fn, _ = contained_signal
        assert sig.m == 16
        sc = d.Scenario(tau0=3 * sig.delta, f0=0.3, looks_direct=2,
                        looks_reflected=1, sigma_w2=0.5)
        analytic = d.fim_unknown_signal(sig, sc)
        oracle = d.oracle_fim_mean(sc, params="unknown", signal_fn=s_fn,
                                   delta=sig.delta, m=sig.m)
        assert oracle.labels == analytic.labels
        assert rel_err(analytic.entries, oracle.entries) <= 1e-4

    @pytest.mark.parametrize("params", ["structure", "structure_a"])
    def test_structure_fim_q4(self, params):
        pt, g_fn, _ = make_contained_train(n_p=20, delta=0.25,
                                           b=(0.8 + 0.5j, -0.3 + 1.1j,
                                              1.2 - 0.2j, 0.5 + 0.9j))
        with_a = params == "structure_a"
        sc = d.Scenario(tau0=0.5, f0=0.4, looks_direct=2, looks_reflected=3,
                        sigma_w2=0.8, scale=1.3 if with_a else 1.0)
        analytic = d.fim_unknown_a(pt, sc, structure=True) if with_a \
            else d.fim_known_structure(pt, sc)
        oracle = d.oracle_fim_mean(sc, params=params, pt=pt, g_fn=g_fn)
        assert oracle.labels == analytic.labels
        assert rel_err(analytic.entries, oracle.entries) <= 1e-4

    def test_bad_param_spec(self):
        sc = d.Scenario(tau0=0.0, f0=0.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0)
        with pytest.raises(ValueError):
            d.oracle_fim_mean(sc, params="nonsense")
        with pytest.raises(ValueError):
            d.oracle_fim_mean(sc, params="unknown")  # missing signal_fn


class TestSimulateObservations:
    def test_zero_noise_limit(self):
        sig, sc, _ = mc_setup(sigma_w2=1e-30)
        obs = d.simulate_observations(sig, sc, 0)
        mu_d = d.mean_vector(sig, sc, "direct")
        np.testing.assert_allclose(obs.direct[0], mu_d, atol=1e-13)

    def test_noise_variance_calibration(self):
        sig, sc, _ = mc_setup(sigma_w2=0.37, l=1, p=0, n0=0, f0=0.0)
        sc = d.Scenario(tau0=0.0, f0=0.0, looks_direct=1, looks_reflected=0,
                        sigma_w2=0.37, record_length=100000)
        sig0 = d.SampledSignal(np.zeros(4), sig.delta, np.zeros(4))
        obs = d.simulate_observations(sig0, sc, 123)
        var = np.var(obs.direct[0])
        assert var == pytest.approx(0.37, rel=0.02)

    def test_seed_determinism(self):
        sig, sc, _ = mc_setup()
        a = d.simulate_observations(sig, sc, 42)
        b = d.simulate_observations(sig, sc, 42)
        np.testing.assert_array_equal(a.direct, b.direct)
        np.testing.assert_array_equal(a.reflected, b.reflected)
        c = d.simulate_observations(sig, sc, 43)
        assert not np.array_equal(a.direct, c.direct)


class TestProfileMl:
    def test_noiseless_recovery_on_grid(self):
        sig, sc, cfg = mc_setup(sigma_w2=1e-30, n0=4, f0=0.3)
        obs = d.simulate_observations(sig, sc, 1)
        tau_hat, f_hat = d.profile_ml_estimate(obs, sc, cfg)
        assert tau_hat == pytest.approx(sc.tau0, abs=1e-9)
        assert f_hat == pytest.approx(sc.f0, abs=1e-9)

    def test_known_signal_noiseless_recovery(self):
        sig, sc, cfg = mc_setup(sigma_w2=1e-30, n0=4, f0=0.3)
        obs = d.simulate_observations(sig, sc, 1)
        tau_hat, f_hat = d.ml_estimate_known(obs, sig, cfg)
        assert tau_hat == pytest.approx(sc.tau0, abs=1e-9)
        assert f_hat == pytest.approx(sc.f0, abs=1e-9)

    def test_unidentifiable_without_direct_looks(self):
        sig, sc, cfg = mc_setup()
        sc0 = d.Scenario(tau0=sc.tau0, f0=sc.f0, looks_direct=0,
                         looks_reflected=1, sigma_w2=sc.sigma_w2,
                         record_length=sc.record_length)
        obs = d.simulate_observations(sig, sc0, 5)
        with pytest.raises(ValueError, match="identifiable"):
            d.profile_ml_estimate(obs, sc0, cfg)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_window_leaving_the_record_rejected(self, estimator):
        sig, sc, cfg = mc_setup(n0=4)
        # the record ends at n0 + 4 + M, so a delay of n0 + 5 samples overruns it
        long = d.McConfig(trials=1, seed=1, tau_grid=cfg.tau_grid + (9,), f_grid=cfg.f_grid)
        obs = d.simulate_observations(sig, sc, 3)
        with pytest.raises(ValueError, match="inside the record"):
            ESTIMATORS[estimator](obs, sig, sc, long)


def scalar_parabolic_offset(y_minus, y_center, y_plus):
    curv = y_minus - 2.0 * y_center + y_plus
    if curv >= 0.0:
        return 0.0
    return float(np.clip(0.5 * (y_minus - y_plus) / curv, -0.5, 0.5))


def scalar_refine(stat, i0, j0, tau_vals, f_vals):
    """Parabolic peak refine of one grid, one axis and one cell at a time."""
    tau = float(tau_vals[i0])
    if 0 < i0 < stat.shape[0] - 1:
        step = 0.5 * (tau_vals[i0 + 1] - tau_vals[i0 - 1])
        tau += step * scalar_parabolic_offset(stat[i0 - 1, j0], stat[i0, j0], stat[i0 + 1, j0])
    f = float(f_vals[j0])
    if 0 < j0 < stat.shape[1] - 1:
        step = 0.5 * (f_vals[j0 + 1] - f_vals[j0 - 1])
        f += step * scalar_parabolic_offset(stat[i0, j0 - 1], stat[i0, j0], stat[i0, j0 + 1])
    return tau, f


def loop_grid_search(obs, cfg, stat_row):
    """Reference search: one delay at a time, phases rebuilt per delay."""
    m = obs.m
    tau_vals = np.asarray(cfg.tau_grid, dtype=float)
    f_vals = np.asarray(cfg.f_grid, dtype=float)
    stat = np.empty((len(tau_vals), len(f_vals)))
    for i, n0c in enumerate(cfg.tau_grid):
        v = obs.reflected[:, n0c:n0c + m].sum(axis=0)
        stat[i] = stat_row(v, np.outer(f_vals, (np.arange(m) + n0c) * obs.delta))
    i0, j0 = np.unravel_index(int(np.argmax(stat)), stat.shape)
    n0_hat, f_hat = scalar_refine(stat, i0, j0, tau_vals, f_vals)
    return n0_hat * obs.delta, f_hat


# the concentrated statistics written out directly: sum_m |u + p v|^2 and
# Re sum_m conj(v) s conj(p), with p = exp(-2j pi f (m + n0) delta)
LOOP_ESTIMATORS = {
    "profiled": lambda obs, sig, sc, cfg: loop_grid_search(obs, cfg, lambda v, ft: np.sum(
        np.abs(obs.direct[:, :obs.m].sum(axis=0) + np.exp(-2j * np.pi * ft) * v) ** 2,
        axis=1)),
    "known": lambda obs, sig, sc, cfg: loop_grid_search(obs, cfg, lambda v, ft: np.real(
        np.exp(2j * np.pi * ft) @ (v.conj() * sig.samples))),
}


SEARCH_CASES = dict(
    l=st.integers(1, 3), p=st.integers(1, 10), n0=st.integers(0, 12),
    n_tau=st.integers(3, 15), n_f=st.integers(3, 41),
    log_sigma=st.sampled_from([-4, -2, 0]), seed=st.integers(0, 2 ** 32 - 1))

# the batched search expands |u + p v|^2 and so agrees with the loop only up
# to rounding: the refined estimates may differ by this many grid steps
REFINE_TOL_STEPS = 1e-9


def check_against_loop(l, p, n0, n_tau, n_f, log_sigma, seed):
    sig, sc, _ = mc_setup(sigma_w2=10.0 ** log_sigma, l=l, p=p, n0=n0)
    lo = max(0, n0 - n_tau // 2)
    sc = d.Scenario(tau0=sc.tau0, f0=sc.f0, looks_direct=l, looks_reflected=p,
                    sigma_w2=sc.sigma_w2, record_length=lo + n_tau - 1 + sig.m)
    cfg = d.McConfig(trials=1, seed=seed, tau_grid=tuple(range(lo, lo + n_tau)),
                     f_grid=tuple(np.linspace(sc.f0 - 0.1, sc.f0 + 0.1, n_f)))
    obs = d.simulate_observations(sig, sc, seed)
    steps = np.array([sig.delta, cfg.f_grid[1] - cfg.f_grid[0]])
    for name, estimate in ESTIMATORS.items():
        # the same grid cell, so the same estimate before the refine bit for bit
        with mock.patch.object(verify, "_refine_axis", lambda vals, k0, lines: vals[k0]), \
                mock.patch.object(sys.modules[__name__], "scalar_refine",
                                  lambda stat, i0, j0, tau, f: (tau[i0], f[j0])):
            assert estimate(obs, sig, sc, cfg) == LOOP_ESTIMATORS[name](obs, sig, sc, cfg), name
        got = np.array(estimate(obs, sig, sc, cfg))
        want = np.array(LOOP_ESTIMATORS[name](obs, sig, sc, cfg))
        assert np.all(np.abs(got - want) <= REFINE_TOL_STEPS * steps), (name, got - want)


def complex_statistics(r, cfg, m, delta, u, s):
    """README "Monte Carlo search" written out with complex products, one delay
    at a time: sum_m |u + p v|^2 - ||u||^2 = ||v||^2 + 2 Re sum_m conj(u) v p
    and Re sum_m v conj(s) p, p = exp(-2j pi f (m + n0) delta); and each
    cell's sum_m |w_m| over its summands w_m (E x T x I x F both)."""
    shape = ((u is not None) + (s is not None), len(r), len(cfg.tau_grid), len(cfg.f_grid))
    stats, scale = np.empty(shape), np.empty(shape)
    for i, n0 in enumerate(cfg.tau_grid):
        p = np.exp(-2j * np.pi * np.outer(cfg.f_grid, (np.arange(m) + n0) * delta))
        v = r[:, n0:n0 + m]
        terms = []
        if u is not None:
            norm = np.sum(np.abs(v) ** 2, axis=1)[:, None]
            terms.append((norm + 2.0 * np.real((u.conj() * v) @ p.T),
                          norm + 2.0 * np.abs(u * v).sum(axis=1)[:, None]))
        if s is not None:
            terms.append((np.real((v * s.conj()) @ p.T), np.abs(v * s).sum(axis=1)[:, None]))
        for e, (stat, size) in enumerate(terms):
            stats[e, :, i], scale[e, :, i] = stat, size
    return stats, scale


class TestPhaseTableSearch:
    @settings(max_examples=80, deadline=None)
    @given(l=st.integers(1, 3), p=st.integers(1, 3), trials=st.integers(1, 20),
           n_f=st.integers(2, 41), which=st.sampled_from(["both", "profiled", "matched"]),
           whole=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_real_products_equal_the_complex_form(self, l, p, trials, n_f, which, whole, seed):
        # blocks of one trial and of any remainder past whole products, both
        # statistics alone and together, the cached tables and the per-delay ones
        sig, sc, cfg = mc_setup(l=l, p=p, trials=trials, seed=seed, sigma_w2=0.3, fpoints=n_f)
        [(_, u, r)] = verify._trial_blocks(sig, sc, cfg, trials)
        # a complex signal, so that conj(s) and s differ
        s = sig.samples * np.exp(2j * np.pi * np.random.default_rng(seed).random(sig.m))
        u, s = (u if which != "matched" else None), (s if which != "profiled" else None)
        with mock.patch.object(verify, "PHASE_TABLE_MAX_BYTES",
                               verify.PHASE_TABLE_MAX_BYTES if whole else 0):
            got = verify._grid_statistics(r, cfg, sig.m, sig.delta, u=u, s=s)
        want, scale = complex_statistics(r, cfg, sig.m, sig.delta, u, s)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=60)
    @given(**SEARCH_CASES)
    def test_matches_per_delay_loop_bit_for_bit(self, **case):
        check_against_loop(**case)

    @settings(max_examples=30)
    @given(**SEARCH_CASES)
    def test_per_delay_fallback_matches_loop_bit_for_bit(self, **case):
        # a zero size limit sends every grid down the per-delay slices
        with mock.patch.object(verify, "PHASE_TABLE_MAX_BYTES", 0), \
                mock.patch.object(verify, "_phase_table",
                                  side_effect=AssertionError("whole table built")):
            check_against_loop(**case)

    def test_cli_default_grid_builds_the_whole_table(self, monkeypatch):
        # the default M = 1000, 11 x 41 grid is a 7.2 MB table, under the limit
        built = []
        phases = verify._phases
        monkeypatch.setattr(verify, "_phases",
                            lambda *args: built.append(args[:3]) or phases(*args))
        verify._phase_table.cache_clear()
        assert main(["montecarlo", "--trials", "2", "--out", os.devnull]) == 0
        assert [(len(tau), len(f), m) for tau, f, m in built] == [(11, 41, 1000)]

    def test_cached_table_is_read_only(self):
        sig, sc, cfg = mc_setup()
        d.profile_ml_estimate(d.simulate_observations(sig, sc, 1), sc, cfg)
        table = verify._phase_table(cfg.tau_grid, cfg.f_grid, sig.m, sig.delta)
        assert table is verify._phase_table(cfg.tau_grid, cfg.f_grid, sig.m, sig.delta)
        # the profiled statistic's real table alone: 2M rows (Re p, -Im p) by F
        assert table.shape == (1, len(cfg.tau_grid), 2 * sig.m, len(cfg.f_grid))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0, 0] = 0.0

    def test_fallback_builds_each_slice_once_per_block(self, monkeypatch):
        sig, sc, cfg = mc_setup(trials=20)
        monkeypatch.setattr(verify, "TRIAL_BLOCK_BYTES", 6 * verify._trial_bytes(sig, sc, cfg))
        monkeypatch.setattr(verify, "PHASE_TABLE_MAX_BYTES", 0)
        built = []
        phases = verify._phases
        monkeypatch.setattr(verify, "_phases",
                            lambda *args: built.append(args[0]) or phases(*args))
        d.monte_carlo_report(sig, sc, cfg)
        # blocks of 6, 6, 6 and 2 trials; both estimators share every slice
        assert built == [cfg.tau_grid[i:i + 1] for i in range(len(cfg.tau_grid))] * 4

    @pytest.mark.parametrize("block_bytes", [1, 1 << 20])
    def test_fallback_equals_whole_table_bit_for_bit(self, monkeypatch, block_bytes):
        sig, sc, cfg = mc_setup(trials=15, sigma_w2=1e-2)
        monkeypatch.setattr(verify, "TRIAL_BLOCK_BYTES", block_bytes)
        whole = verify._mc_estimates(sig, sc, cfg)
        monkeypatch.setattr(verify, "PHASE_TABLE_MAX_BYTES", 0)
        np.testing.assert_array_equal(verify._mc_estimates(sig, sc, cfg), whole)

    def test_block_draws_equal_simulate_observations_bit_for_bit(self):
        sig, sc, cfg = mc_setup(l=3, p=2, trials=7)
        blocks = list(verify._trial_blocks(sig, sc, cfg, block=3))
        assert [trials for trials, _, _ in blocks] == [slice(0, 3), slice(3, 6), slice(6, 7)]
        for trials, u, r in blocks:
            for t, k in enumerate(range(trials.start, trials.stop)):
                obs = d.simulate_observations(sig, sc, (cfg.seed, k))
                np.testing.assert_array_equal(u[t], obs.direct[:, :sig.m].sum(axis=0))
                np.testing.assert_array_equal(r[t], obs.reflected.sum(axis=0))

    @settings(max_examples=200)
    @given(n_tau=st.integers(2, 6), n_f=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_vectorized_refine_equals_scalar_refine_bit_for_bit(self, n_tau, n_f, seed):
        rng = np.random.default_rng(seed)
        # unevenly spaced axes, and a peak anywhere: interior, edge or corner
        tau_grid = tuple(np.cumsum(rng.integers(1, 4, n_tau)))
        f_grid = tuple(np.cumsum(rng.uniform(0.01, 0.1, n_f)))
        cfg = d.McConfig(trials=1, seed=0, tau_grid=tau_grid, f_grid=f_grid)
        stats = rng.standard_normal((3, 5, n_tau, n_f))
        stats[0, 0] = 1.0  # a flat grid: ties go to the first cell
        got = verify._peaks(stats, cfg, 0.25)
        tau_vals, f_vals = np.asarray(tau_grid, float), np.asarray(f_grid, float)
        for e, t in np.ndindex(stats.shape[:2]):
            stat = stats[e, t]
            i0, j0 = np.unravel_index(int(np.argmax(stat)), stat.shape)
            n0_hat, f_hat = scalar_refine(stat, i0, j0, tau_vals, f_vals)
            assert tuple(got[e, t]) == (n0_hat * 0.25, f_hat)

    def test_refine_stays_put_where_rounding_flattens_the_peak(self):
        # below the peak by half an ulp on one side, tied on the other: the
        # curvature rounds to zero, so the estimate keeps its grid value
        stats = np.zeros((1, 1, 3, 3))
        stats[0, 0, :, 1] = (1.0 - 2.0 ** -53, 1.0, 1.0)
        cfg = d.McConfig(trials=1, seed=0, tau_grid=(0, 1, 2), f_grid=(0.0, 0.1, 0.2))
        assert scalar_refine(stats[0, 0], 1, 1, np.array([0.0, 1.0, 2.0]),
                             np.array(cfg.f_grid)) == (1.0, 0.1)
        assert tuple(verify._peaks(stats, cfg, 1.0)[0, 0]) == (1.0, 0.1)

    def test_single_trial_calls_agree_with_block_report(self):
        sig, sc, cfg = mc_setup(trials=25, sigma_w2=1e-2)
        single = []
        for k in range(cfg.trials):
            obs = d.simulate_observations(sig, sc, (cfg.seed, k))
            single.append(d.profile_ml_estimate(obs, sc, cfg) + d.ml_estimate_known(obs, sig, cfg))
        # one block of 25 trials against 25 searches with T = 1: every product
        # has PRODUCT_ROWS rows, so the same BLAS kernel rounds both alike
        np.testing.assert_array_equal(verify._mc_estimates(sig, sc, cfg), single)


def four_draw_observations(sig, sc, seed):
    """The documented trial draw written out: four normal draws in a row,
    direct real, direct imaginary, reflected real, reflected imaginary."""
    rng, n = np.random.default_rng(seed), sc.record_samples(sig)
    scale = np.sqrt(sc.sigma_w2 / 2.0)
    looks = []
    for path, count in (("direct", sc.looks_direct), ("reflected", sc.looks_reflected)):
        re = rng.standard_normal((count, n))
        noise = scale * (re + 1j * rng.standard_normal((count, n)))
        looks.append(d.mean_vector(sig, sc, path)[None, :] + noise if count else noise)
    return looks


class TestTrialDraws:
    @settings(max_examples=50)
    @given(a=st.integers(0, 400), b=st.integers(0, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_draw_equals_two_draws_in_a_row(self, a, b, seed):
        # the property the one-draw-per-trial noise block rests on
        one = np.empty(a + b)
        np.random.default_rng((seed, 3)).standard_normal(out=one)
        rng = np.random.default_rng((seed, 3))
        two = np.concatenate([rng.standard_normal(a), rng.standard_normal(b)])
        assert one.tobytes() == two.tobytes()

    @settings(max_examples=40)
    @given(l=st.integers(0, 6), p=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_simulate_observations_keeps_the_four_draw_order(self, l, p, seed):
        sig, sc, _ = mc_setup(l=l, p=p, sigma_w2=0.3)
        obs = d.simulate_observations(sig, sc, (seed, 1))
        direct, reflected = four_draw_observations(sig, sc, (seed, 1))
        assert obs.direct.shape == direct.shape and obs.reflected.shape == reflected.shape
        assert obs.direct.tobytes() == direct.tobytes()
        assert obs.reflected.tobytes() == reflected.tobytes()

    @settings(max_examples=40)
    @given(l=st.integers(1, 6), p=st.integers(1, 6), trials=st.integers(1, 12),
           block=st.integers(1, 13), seed=st.integers(0, 2 ** 128))
    # a seed of four words or more also mixes entropy past the hash's pool
    @example(l=1, p=2, trials=5, block=2, seed=2 ** 100 + 7)
    def test_blocks_equal_simulate_observations_byte_for_byte(self, l, p, trials, block, seed):
        sig, sc, cfg = mc_setup(l=l, p=p, trials=trials, seed=seed, sigma_w2=0.3)
        seen = []
        for span, u, r in verify._trial_blocks(sig, sc, cfg, block):
            assert u.shape == (span.stop - span.start, sig.m)
            for t, k in enumerate(range(span.start, span.stop)):
                obs = d.simulate_observations(sig, sc, (cfg.seed, k))
                # tobytes also tells +0.0 from -0.0
                assert u[t].tobytes() == obs.direct[:, :sig.m].sum(axis=0).tobytes()
                assert r[t].tobytes() == obs.reflected.sum(axis=0).tobytes()
                seen.append(k)
        assert seen == list(range(trials))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 256),
           k=st.one_of(st.integers(0, 10 ** 6), st.just(2 ** 32 - 1)))
    def test_trial_states_equal_default_rng(self, seed, k):
        # up to three trials at once, the last of them k
        trials = range(max(0, k - 2), k + 1)
        for j, state in zip(trials, verify._trial_states(seed, trials), strict=True):
            assert state == np.random.default_rng((seed, j)).bit_generator.state

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises((ValueError, TypeError)):
            d.McConfig(trials=1, seed=seed, tau_grid=(3, 4), f_grid=(0.2, 0.3))

    @pytest.mark.parametrize("trials", [2.5, "3", 3.0])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(TypeError):
            d.McConfig(trials=trials, seed=1, tau_grid=(3, 4), f_grid=(0.2, 0.3))

    def test_integer_like_trials_become_int(self):
        cfg = d.McConfig(trials=np.int64(3), seed=1, tau_grid=(3, 4), f_grid=(0.2, 0.3))
        assert type(cfg.trials) is int and cfg.trials == 3

    def test_trial_indices_fit_one_word(self):
        cfg = d.McConfig(trials=2 ** 32, seed=np.int64(5), tau_grid=(3, 4), f_grid=(0.2, 0.3))
        assert type(cfg.seed) is int
        with pytest.raises(ValueError, match="trials"):
            dataclasses.replace(cfg, trials=2 ** 32 + 1)

    def test_block_memory_stays_bounded_at_many_looks(self):
        # 400 looks of noise per trial: the block size must count the noise
        # block, or 40 trials are drawn at once (about 9 MB here)
        sig, sc, cfg = mc_setup(l=200, p=200, trials=40)
        verify._mc_estimates(sig, sc, dataclasses.replace(cfg, trials=1))  # phase table
        tracemalloc.start()
        try:
            verify._mc_estimates(sig, sc, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * verify.TRIAL_BLOCK_BYTES


class TestTrialBlocks:
    @pytest.mark.parametrize("seed", [42, 2718])
    def test_workload_estimates_equal_for_every_block_size(self, monkeypatch, seed):
        sig, sc, cfg = workload_setup(seed)
        assert cfg.trials == 500
        trial = verify._trial_bytes(sig, sc, cfg)
        budget = verify.TRIAL_BLOCK_BYTES // trial
        # the budget's blocks are larger than the 50 trials of a 1 MiB budget, and several
        assert 50 < budget < cfg.trials
        runs = []
        for block in (2, 50, budget, cfg.trials):
            monkeypatch.setattr(verify, "TRIAL_BLOCK_BYTES", block * trial)
            runs.append(verify._mc_estimates(sig, sc, cfg).tobytes())
        assert runs[1:] == runs[:-1]

    def test_blocks_hold_the_tables_that_miss_the_cache(self, monkeypatch):
        seen = []
        trial_blocks = verify._trial_blocks
        monkeypatch.setattr(verify, "_trial_blocks", lambda sig, sc, cfg, block: seen.append(
            (block, verify._trial_bytes(sig, sc, cfg), 32 * len(cfg.tau_grid)
             * len(cfg.f_grid) * sig.m)) or trial_blocks(sig, sc, cfg, block))
        # the CLI default (M = 1000, 11 x 41 grid): 14.4 MB of tables, streamed
        # from memory once a block, so a block holds as many bytes, in whole products
        assert main(["montecarlo", "--trials", "2", "--out", os.devnull]) == 0
        block, trial, tables = seen.pop()
        assert tables > verify.CACHE_BYTES and block % verify.PRODUCT_ROWS == 0
        assert tables - verify.PRODUCT_ROWS * trial < block * trial <= tables
        # the workload's 0.9 MB of tables fit the cache: its blocks keep the budget
        sig, sc, cfg = workload_setup(42)
        verify._mc_estimates(sig, sc, dataclasses.replace(cfg, trials=1))
        block, trial, tables = seen.pop()
        assert tables < verify.CACHE_BYTES
        rows = verify.PRODUCT_ROWS
        assert block == verify.TRIAL_BLOCK_BYTES // trial // rows * rows

    # one case led by each large term of _trial_bytes: the statistics (9 x 2001
    # cells), the noise (L = P = 200) and the windows (M = 2000)
    @pytest.mark.parametrize("case", [
        "workload", dict(fpoints=2001), dict(l=200, p=200), dict(n_p=2000, fpoints=5)],
        ids=["workload", "statistics", "looks", "window"])
    def test_one_block_peak_is_its_counted_working_set(self, case):
        sig, sc, cfg = workload_setup(42) if case == "workload" else mc_setup(**case)
        trial = verify._trial_bytes(sig, sc, cfg)
        block = dataclasses.replace(cfg, trials=max(1, verify.TRIAL_BLOCK_BYTES // trial))
        verify._mc_estimates(sig, sc, dataclasses.replace(cfg, trials=1))  # phase table
        tracemalloc.start()
        try:
            verify._mc_estimates(sig, sc, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a count that doubled the statistics reads about 0.6 on that case
        assert 0.75 <= peak / (block.trials * trial) <= 1.25


class TestMonteCarloReport:
    def test_report_structure_and_determinism(self):
        sig, sc, cfg = mc_setup(trials=8)
        rep1 = d.monte_carlo_report(sig, sc, cfg)
        rep2 = d.monte_carlo_report(sig, sc, cfg)
        assert rep1.rows == rep2.rows
        names = [r["parameter"] for r in rep1.rows]
        assert names == ["tau0", "f0", "tau0_known", "f0_known"]
        for row in rep1.rows:
            assert row["ratio"] > 0

    def test_both_bound_pairs_come_from_one_evaluation(self, monkeypatch):
        sig, sc, cfg = mc_setup(trials=2)
        calls, real = [], bounds.signal_bounds
        monkeypatch.setattr(bounds, "signal_bounds", lambda *args: calls.append(args) or real(*args))
        rows = {row["parameter"]: row for row in d.monte_carlo_report(sig, sc, cfg).rows}
        assert len(calls) == 1
        known, unknown = d.jcrb_known(sig, sc), d.jcrb_unknown(sig, sc)
        assert (rows["tau0"]["bound"], rows["f0"]["bound"]) == tuple(unknown)
        assert (rows["tau0_known"]["bound"], rows["f0_known"]["bound"]) \
            == tuple(known.scaled(1.0 / sc.looks_reflected))

    def test_singular_scenario_reports_flag(self):
        sig, sc, cfg = mc_setup()
        sc0 = d.Scenario(tau0=sc.tau0, f0=sc.f0, looks_direct=0,
                         looks_reflected=1, sigma_w2=sc.sigma_w2,
                         record_length=sc.record_length)
        rep = d.monte_carlo_report(sig, sc0, cfg)
        assert rep.singular
        assert all(row["singular"] for row in rep.rows)

    @pytest.mark.parametrize("tau_grid,f_grid", [
        ((4,), (0.2, 0.3)), ((3, 4), (0.3,)), ((4, 3), (0.2, 0.3)),
        ((3, 4), (0.3, 0.3)), ((3, 4), (0.4, 0.2)),
    ])
    def test_degenerate_grid_rejected(self, tau_grid, f_grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            d.McConfig(trials=1, seed=1, tau_grid=tau_grid, f_grid=f_grid)

    def test_truth_outside_grid_rejected(self):
        sig, sc, cfg = mc_setup(n0=4)
        bad = d.McConfig(trials=4, seed=1, tau_grid=(10, 11), f_grid=cfg.f_grid)
        with pytest.raises(ValueError, match="tau_grid"):
            d.monte_carlo_report(sig, sc, bad)

    def test_ratio_trends_toward_one_as_noise_drops(self):
        ratios = []
        for sigma_w2 in (1e-2, 1e-3, 1e-4):
            sig, sc, cfg = mc_setup(sigma_w2=sigma_w2, trials=60, seed=3,
                                    n_p=24, fspan=0.08, fpoints=33)
            rep = d.monte_carlo_report(sig, sc, cfg)
            ratios.append({r["parameter"]: r["ratio"] for r in rep.rows}["f0"])
        # monotone approach to 1 from the coarse-grid side
        assert abs(ratios[2] - 1.0) <= abs(ratios[0] - 1.0) + 0.5
        assert 0.5 <= ratios[2] <= 3.0

    def test_unbiased_at_high_scnr(self):
        sig, sc, cfg = mc_setup(sigma_w2=1e-4, trials=50, seed=21)
        rep = d.monte_carlo_report(sig, sc, cfg)
        row = {r["parameter"]: r for r in rep.rows}["tau0"]
        stderr = row["std_estimate"] / np.sqrt(rep.trials)
        assert abs(row["mean_estimate"] - sc.tau0) <= 3 * stderr
