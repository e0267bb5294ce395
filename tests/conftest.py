"""Shared fixtures: reference signals and comparison helpers."""

import numpy as np
import pytest
from hypothesis import settings

import ddcrb as d

# one profile for the suite: examples build FIMs and run grid searches whose
# time varies with the drawn sizes, so no per-example deadline
settings.register_profile("ddcrb", deadline=None)
settings.load_profile("ddcrb")


def rel_err(a, b):
    """Max elementwise relative error, guarded against zero entries."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-7 * scale)
    return float(np.max(np.abs(a - b) / den))


@pytest.fixture(scope="session")
def table1_signal():
    """The reference two-pulse signal: delta=0.01, n_p=500, |b_q|^2 = 1."""
    b = np.full(2, (1.0 + 1.0j) / np.sqrt(2.0))
    pt = d.gaussian_pulse_train(500, 0.01, 4.0, 9.0, b)
    return d.synthesize_pulse_train(pt)


@pytest.fixture(scope="session")
def table1_scenario():
    return d.Scenario(tau0=0.05, f0=20.0, looks_direct=1, looks_reflected=1,
                      sigma_w2=1.0)


def make_contained_train(n_p=24, delta=0.25, b=(0.8 + 0.5j, -0.3 + 1.1j, 1.2 - 0.2j),
                         center_frac=0.5, width_frac=0.1):
    """Pulse train whose pulse is negligible at the period boundaries.

    Boundary magnitude ~ exp(-(center_frac/width_frac)^2) ~ 1e-11 for the
    defaults, so simplified-form and exact-form paths agree to ~1e-12.
    """
    t_p = n_p * delta
    center = center_frac * t_p
    width2 = (width_frac * t_p) ** 2
    pt = d.gaussian_pulse_train(n_p, delta, center, width2, np.asarray(b, complex))
    g_fn, dg_fn = d.gaussian_fn(center, width2)
    return pt, g_fn, dg_fn


@pytest.fixture()
def contained_train():
    return make_contained_train()


@pytest.fixture()
def contained_signal():
    """Single contained pulse (M=16) with its smooth continuous-time view."""
    pt, g_fn, dg_fn = make_contained_train(n_p=16, delta=0.25, b=(0.9 - 0.4j,))
    sig = d.synthesize_pulse_train(pt)
    s_fn, ds_fn = d.pulse_train_fn(pt, g_fn, dg_fn)
    return sig, s_fn, ds_fn
