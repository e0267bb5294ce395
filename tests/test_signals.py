"""Signal model tests: pulse synthesis, means, eta, channel filtering."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.signals import bandlimited_derivative

from conftest import make_contained_train
from dense_oracles import synthesize_pulse_train_loop


class TestGaussianPulse:
    def test_peak_value_is_one(self):
        g, g_deriv = d.gaussian_pulse(10, 0.4, center=4.0, width2=9.0)
        assert g[10] == pytest.approx(1.0, abs=0.0)
        assert g_deriv[10] == pytest.approx(0.0, abs=0.0)

    def test_left_edge_value(self):
        g, _ = d.gaussian_pulse(500, 0.01, center=4.0, width2=9.0)
        assert g[0] == pytest.approx(np.exp(-16.0 / 9.0), rel=1e-15)
        assert g[0] == pytest.approx(0.16901, abs=5e-6)

    def test_deriv_is_analytic_gradient(self):
        g, g_deriv = d.gaussian_pulse(50, 0.1, center=2.0, width2=1.3)
        t = np.arange(51) * 0.1
        np.testing.assert_allclose(g_deriv, -2 * (t - 2.0) / 1.3 * g, rtol=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            d.gaussian_pulse(0, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            d.gaussian_pulse(4, -0.1, 1.0, 1.0)

    @settings(max_examples=300)
    @given(n_p=st.integers(1, 300), delta=st.floats(1e-3, 10.0),
           center=st.one_of(st.floats(-50.0, 50.0), st.floats(-1e200, 1e200)),
           width2=st.floats(1e-300, 1e3))
    def test_is_the_smooth_pulse_on_the_sample_grid(self, n_p, delta, center, width2):
        # byte for byte, far samples (whose square overflows, or whose g is
        # the exact 0) included
        g, g_deriv = d.gaussian_pulse(n_p, delta, center, width2)
        g_fn, dg_fn = d.gaussian_fn(center, width2)
        t = np.arange(n_p + 1) * delta
        with np.errstate(over="ignore", invalid="ignore"):
            assert g.tobytes() == g_fn(t).tobytes()
            assert g_deriv.tobytes() == dg_fn(t).tobytes()


class TestSynthesizePulseTrain:
    def test_single_unit_pulse_reproduces_shape(self):
        g, g_deriv = d.gaussian_pulse(12, 0.25, 1.5, 0.2)
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[1.0 + 0.0j], delta=0.25)
        sig = d.synthesize_pulse_train(pt)
        assert sig.m == 12
        np.testing.assert_array_equal(sig.samples, g[:-1].astype(complex))
        np.testing.assert_array_equal(sig.deriv, g_deriv[:-1].astype(complex))

    def test_two_nonoverlapping_pulses_magnitude(self):
        # hard-zero boundary samples so pulse supports are exactly disjoint
        g = np.array([0.0, 0.3, 1.0, 0.3, 0.0])
        g_deriv = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=[1 + 1j, 1 + 1j], delta=0.5)
        sig = d.synthesize_pulse_train(pt)
        expected = np.concatenate([g[:4], g[:4]]) ** 2 * 2.0
        np.testing.assert_allclose(np.abs(sig.samples) ** 2, expected, atol=1e-15)

    def test_sign_flip_preserves_energy(self):
        g = np.array([0.0, 0.3, 1.0, 0.3, 0.0])
        g_deriv = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        energies = []
        for b in ([1 + 1j, 1 + 1j], [1 + 1j, -1 - 1j]):
            pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=b, delta=0.5)
            energies.append(np.sum(np.abs(d.synthesize_pulse_train(pt).samples) ** 2))
        assert energies[0] == pytest.approx(energies[1], rel=1e-14)

    @settings(max_examples=40)
    @given(phases=st.lists(st.floats(0, 2 * np.pi), min_size=2, max_size=2))
    def test_energy_invariant_under_pulse_phase_rotation(self, phases):
        g = np.array([0.0, 0.3, 1.0, 0.3, 0.0])
        g_deriv = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        base = d.PulseTrain(g=g, g_deriv=g_deriv, b=[0.7 + 0.2j, -1.1 + 0.4j], delta=0.5)
        rotated = d.PulseTrain(g=g, g_deriv=g_deriv,
                               b=base.b * np.exp(1j * np.asarray(phases)), delta=0.5)
        e0 = np.sum(np.abs(d.synthesize_pulse_train(base).samples) ** 2)
        e1 = np.sum(np.abs(d.synthesize_pulse_train(rotated).samples) ** 2)
        assert e1 == pytest.approx(e0, rel=1e-12)

    @settings(max_examples=200)
    @given(data=st.data(), n_p=st.integers(1, 12), q=st.integers(1, 6))
    def test_equals_the_copy_by_copy_sum_bytewise(self, data, n_p, q):
        # signed zeros included; a product that overflows to inf (or to nan at
        # a shared sample) makes a signal that is not finite, which is rejected
        value = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=False))
        g, g_deriv = (np.array(data.draw(st.lists(value, min_size=n_p + 1, max_size=n_p + 1)))
                      for _ in range(2))
        b = np.empty(q, dtype=complex)
        b.real, b.imag = (data.draw(st.lists(value, min_size=q, max_size=q)) for _ in range(2))
        pt = d.PulseTrain(g=g, g_deriv=g_deriv, b=b, delta=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            samples, deriv = synthesize_pulse_train_loop(pt)
        # the library itself raises no numpy warning before it rejects them
        if not (np.isfinite(samples).all() and np.isfinite(deriv).all()):
            with pytest.raises(ValueError, match="must be finite"):
                d.synthesize_pulse_train.__wrapped__(pt)
            return
        sig = d.synthesize_pulse_train.__wrapped__(pt)
        assert sig.samples.tobytes() == samples.tobytes()
        assert sig.deriv.tobytes() == deriv.tobytes()

    def test_overflowed_copy_is_rejected_without_warning(self):
        # |b| |g| passes the largest double: a ValueError, not numpy's RuntimeWarning
        pt = d.PulseTrain(g=[1e300, 1e300], g_deriv=[0, 0], b=[1e10, 1], delta=1)
        with pytest.raises(ValueError, match="must be finite"):
            d.synthesize_pulse_train(pt)
        sig = d.SampledSignal([1e300, 1.0], 1.0, [0.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            sig.scaled(1e10)

    def test_pulse_train_invariants(self):
        g = np.zeros(5)
        with pytest.raises(ValueError):
            d.PulseTrain(g=g, g_deriv=g, b=[], delta=0.5)

    @pytest.mark.parametrize("n_p,delta,q", [(4, 0.5, 2), (3, 0.1, 1), (7, 0.3, 5)])
    def test_period_and_pulse_count_are_derived(self, n_p, delta, q):
        # stored: the pulse, its derivative, the amplitudes and delta; the period
        # and the pulse count are read from them (3 * 0.1 is not 0.3)
        g = np.linspace(0.0, 1.0, n_p + 1)
        pt = d.PulseTrain(g=g, g_deriv=g, b=np.ones(q), delta=delta)
        assert [f.name for f in dataclasses.fields(pt)] == ["g", "g_deriv", "b", "delta"]
        assert pt.t_p == n_p * delta and pt.n_pulses == q
        assert d.gaussian_pulse_train(n_p, delta, 1.0, 1.0, np.ones(q)).t_p == n_p * delta

    @pytest.mark.parametrize("kwargs", [
        {"g": [0.0, np.inf, 0.0]}, {"g_deriv": [0.0, np.nan, 0.0]},
        {"b": [1.0, complex(0.0, np.inf)]}, {"delta": np.inf}, {"delta": np.nan},
        {"delta": 0.0}, {"delta": 1e308},  # the train ends at 2 * 2 * 1e308
        {"b": [[1.0, 1.0]]}, {"b": 1.0},
    ], ids=repr)
    def test_pulse_train_rejects_what_is_not_finite(self, kwargs):
        train = {"g": [0.0, 1.0, 0.0], "g_deriv": [0.0, 0.0, 0.0], "b": [1.0, 1.0],
                 "delta": 0.5, **kwargs}
        with pytest.raises(ValueError):
            d.PulseTrain(**train)

    @pytest.mark.parametrize("samples,delta,deriv", [
        ([0.0, np.nan], 0.5, [0.0, 0.0]), ([0.0, 1.0], 0.5, [np.inf, 0.0]),
        ([0.0, 1.0], np.nan, [0.0, 0.0]), ([0.0, 1.0], np.inf, [0.0, 0.0]),
        ([0.0, 1.0, 0.0], 1e308, [0.0, 0.0, 0.0]),  # the last sample time 2e308
    ], ids=repr)
    def test_sampled_signal_rejects_what_is_not_finite(self, samples, delta, deriv):
        with pytest.raises(ValueError):
            d.SampledSignal(samples, delta, deriv)
        if np.isfinite(deriv).all():  # the samples or delta, checked before the derivative
            with pytest.raises(ValueError):
                d.SampledSignal.from_samples(samples, delta)

    def test_differences_that_overflow_are_rejected(self):
        with pytest.raises(ValueError, match="^the bandlimited derivative of the samples "
                                             "must be finite$"):
            d.SampledSignal.from_samples([0.0, 1e300, 2e300, 1.0, 0.0], 1e-300)

    def test_samples_whose_sum_overflows_keep_a_finite_derivative(self):
        # the FFT's DC term 2e308 overflows; the derivative, about 1e298, does not
        deriv = d.SampledSignal.from_samples([1e308, 1e308], 1e10).deriv
        np.testing.assert_allclose(deriv, 1e308 * bandlimited_derivative([1.0, 1.0], 1e10),
                                   rtol=1e-15)


class TestTriangleWave:
    def test_m16_slopes(self):
        sig = d.triangle_wave(16)
        np.testing.assert_array_equal(sig.deriv.real, [1.0] * 8 + [-1.0] * 8)
        assert sig.is_real

    def test_minimal_case(self):
        sig = d.triangle_wave(2)
        np.testing.assert_array_equal(sig.deriv.real, [1.0, -1.0])

    def test_slope_energy_equals_m(self):
        sig = d.triangle_wave(16)
        assert np.sum(sig.deriv.real ** 2) == pytest.approx(16.0)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            d.triangle_wave(15)


class TestMeanVector:
    def _signal(self):
        pt, _, _ = make_contained_train(n_p=8, delta=0.5, b=(1.0 + 0.5j,))
        return d.synthesize_pulse_train(pt)

    def test_zero_shift_reflected_equals_direct(self):
        sig = self._signal()
        sc = d.Scenario(tau0=0.0, f0=0.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0, record_length=12)
        np.testing.assert_allclose(d.mean_vector(sig, sc, "reflected"),
                                   d.mean_vector(sig, sc, "direct"), atol=0)

    def test_support_bookkeeping(self):
        sig = d.SampledSignal([1.0, 2.0], 1.0, [0.0, 0.0])
        sc = d.Scenario(tau0=3.0, f0=0.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0, record_length=8)
        mu = d.mean_vector(sig, sc, "reflected")
        assert np.all(mu[[0, 1, 2, 5, 6, 7]] == 0)
        assert np.all(mu[[3, 4]] != 0)

    def test_phase_factor_whole_turns(self):
        # f0=20, delta=0.01: at n=50 the phase is exp(j*2*pi*10) = 1
        sig = d.SampledSignal(np.ones(60), 0.01, np.zeros(60))
        sc = d.Scenario(tau0=0.0, f0=20.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0, record_length=60)
        mu = d.mean_vector(sig, sc, "reflected")
        assert mu[50] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_record_too_short(self):
        sig = d.SampledSignal([1.0, 2.0], 1.0, [0.0, 0.0])
        sc = d.Scenario(tau0=3.0, f0=0.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0, record_length=4)
        with pytest.raises(ValueError, match="record"):
            d.mean_vector(sig, sc, "reflected")

    def test_off_grid_delay_rejected(self):
        sig = d.SampledSignal([1.0, 2.0], 1.0, [0.0, 0.0])
        sc = d.Scenario(tau0=0.5, f0=0.0, looks_direct=1, looks_reflected=1,
                        sigma_w2=1.0, record_length=8)
        with pytest.raises(ValueError, match="integer"):
            d.mean_vector(sig, sc, "reflected")

    @settings(max_examples=30)
    @given(n0=st.integers(0, 6), f0=st.floats(-3, 3))
    def test_reflected_support_property(self, n0, f0):
        sig = self._signal()
        sc = d.Scenario(tau0=n0 * sig.delta, f0=f0, looks_direct=1,
                        looks_reflected=1, sigma_w2=1.0,
                        record_length=n0 + sig.m + 3)
        mu = d.mean_vector(sig, sc, "reflected")
        mask = np.zeros(sc.record_length, dtype=bool)
        mask[n0:n0 + sig.m] = True
        assert np.all(mu[~mask] == 0)


class TestScenario:
    @pytest.mark.parametrize("field,value", [
        ("tau0", float("nan")), ("tau0", float("inf")), ("tau0", -1.0),
        ("f0", float("nan")), ("f0", float("-inf")),
        ("sigma_w2", float("inf")), ("sigma_w2", float("nan")), ("sigma_w2", 0.0),
        ("scale", float("inf")), ("scale", float("nan")), ("scale", 0.0),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        params = dict(tau0=0.0, f0=0.0, looks_direct=1, looks_reflected=1, sigma_w2=1.0)
        with pytest.raises(ValueError, match=field):
            d.Scenario(**{**params, field: value})


class TestEta:
    def test_real_signal_zero(self):
        sig = d.triangle_wave(16)
        assert d.eta(sig, 0.7) == 0.0

    def test_proportional_parts_zero(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(20)
        dbase = rng.standard_normal(20)
        sig = d.SampledSignal(base * (1 + 2.5j), 0.1, dbase * (1 + 2.5j))
        assert d.eta(sig, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_linear_phase_signal(self):
        # s = g * exp(j*beta*t) with real g gives eta = -beta * sum t g^2
        beta = 1.0
        g, g_deriv = d.gaussian_pulse(200, 0.05, center=5.0, width2=2.0)
        t = np.arange(201) * 0.05
        samples = g * np.exp(1j * beta * t)
        deriv = (g_deriv + 1j * beta * g) * np.exp(1j * beta * t)
        sig = d.SampledSignal(samples, 0.05, deriv)
        expected = -beta * np.sum(t * g ** 2)
        assert d.eta(sig, 0.0) == pytest.approx(expected, rel=1e-12)


def derivative_consistency(n_p, delta, center, width2, q):
    """sum |g'|^2 of the analytic derivative the bounds read over sum |s'|^2
    of the bandlimited derivative of the same train's samples."""
    pt = d.gaussian_pulse_train(n_p, delta, center, width2, np.full(q, (1 + 1j) / np.sqrt(2)))
    sig = d.synthesize_pulse_train(pt)
    s_bl = bandlimited_derivative(sig.samples, delta)
    return float(np.sum(np.abs(sig.deriv) ** 2) / np.sum(np.abs(s_bl) ** 2))


class TestAnalyticDerivative:
    """The delay bounds read g' of the whole Gaussian and ignore where the
    pulse is cut off at its period's ends (README, "Conventions worth knowing");
    a signal file without deriv takes the bandlimited derivative."""

    def test_contained_gaussian_reads_the_analytic_derivative(self):
        # exp(-32) of its peak at both ends: the record is bandlimited to rounding
        g, g_deriv = d.gaussian_pulse(400, 0.02, center=4.0, width2=0.5)
        for samples, deriv in ((g, g_deriv), (g * (1 - 2j), g_deriv * (1 - 2j))):
            err = np.max(np.abs(bandlimited_derivative(samples, 0.02) - deriv))
            assert err <= 1e-9 * np.max(np.abs(deriv))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_real_record_has_a_real_derivative(self, m):
        samples = np.random.default_rng(m).standard_normal(m)
        for record in (samples, samples.astype(complex)):
            deriv = bandlimited_derivative(record, 0.5)
            assert deriv.dtype == float and deriv.shape == (m,)
        assert d.SampledSignal.from_samples(samples, 0.5).is_real

    def test_cut_off_default_train_reads_a_fraction_of_the_sample_derivative(self):
        # the CLI default train, cut off at 0.17 and 0.89 of its peak, reads 0.0023
        assert derivative_consistency(500, 0.01, 4.0, 9.0, 2) < 0.01

    @pytest.mark.parametrize("n_p,delta,center,width2,q", [
        (500, 0.01, 2.5, 0.09, 2), (64, 0.25, 8.0, 9.0, 1)], ids=["contained", "montecarlo"])
    def test_contained_pulse_reads_the_sample_derivative(self, n_p, delta, center, width2, q):
        # the results/montecarlo pulse, 8e-4 of its peak at both ends, reads 1 - 1.4e-5
        ratio = derivative_consistency(n_p, delta, center, width2, q)
        assert abs(ratio - 1.0) <= 2e-5
