"""Band kernels of the bordered core against dense numpy.

The nuisance block C = c (K kron I_2) keeps K as its lower band,
band[d, j] = K[j + d, j]. Factor, solve, dense expansion and the inertia
test of K are checked here against the N x N matrix the band encodes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import (SINGULAR_COND, Border, band_cholesky, band_norm1, band_solve,
                       schur_complement)


def dense_of(band):
    """The symmetric N x N matrix whose lower band is band."""
    n = band.shape[1]
    k = np.zeros((n, n))
    for off, diag in enumerate(band[:n]):
        k += np.diag(diag[:n - off], -off)
        if off:
            k += np.diag(diag[:n - off], off)
    return k


@st.composite
def dominant_bands(draw):
    """A strictly diagonally dominant (so positive definite) band, zero past the end."""
    bw = draw(st.integers(0, 3))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    band = rng.uniform(-1.0, 1.0, (bw + 1, n))
    for off in range(1, bw + 1):
        band[off, max(n - off, 0):] = 0.0
    k = dense_of(band)
    band[0] = np.sum(np.abs(k), axis=1) - np.abs(np.diag(k)) + rng.uniform(0.5, 2.0, n)
    return band


def lower_of(factor):
    n = factor.shape[1]
    return np.tril(dense_of(factor))[:n, :n]


@settings(max_examples=200)
@given(band=dominant_bands(), r=st.integers(1, 6), seed=st.integers(0, 2 ** 31 - 1))
def test_factor_and_solve_match_dense(band, r, seed):
    k = dense_of(band)
    factor = band_cholesky(band)
    assert factor is not None and factor.shape == band.shape
    lower = lower_of(factor)
    expected = np.linalg.cholesky(k)
    np.testing.assert_allclose(lower, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
    rhs = np.random.default_rng(seed).standard_normal((band.shape[1], r))
    y = band_solve(factor, rhs)
    oracle = np.linalg.solve(expected, rhs)
    np.testing.assert_allclose(y, oracle, rtol=1e-12, atol=1e-12 * np.max(np.abs(oracle)))
    assert band_norm1(band) == pytest.approx(np.linalg.norm(k, 1), rel=1e-14)


@settings(max_examples=100)
@given(band=dominant_bands(), kdim=st.integers(2, 3), c=st.floats(0.1, 5.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_dense_expansion_equals_the_encoded_matrix(band, kdim, c, seed):
    rng = np.random.default_rng(seed)
    n = band.shape[1]
    a = rng.standard_normal((kdim, kdim))
    b = rng.standard_normal((kdim, 2 * n))
    for gram, kmat in ((band, dense_of(band)), (1.7, 1.7 * np.eye(n))):
        expected = np.block([[a, b], [b.T, np.kron(c * kmat, np.eye(2))]])
        out = Border(a, b, c, gram).dense()
        np.testing.assert_array_equal(out, expected)
        assert not out.flags.writeable


@settings(max_examples=200)
@given(band=dominant_bands(), exponent=st.floats(-16.0, -6.0), sign=st.sampled_from((-1, 1)))
def test_inertia_test_flags_exactly_the_near_singular(band, exponent, sign):
    # move lambda_min of K to sign * 10^exponent of its norm
    k0 = dense_of(band)
    shifted = band.copy()
    shifted[0] += sign * 10.0 ** exponent * np.linalg.norm(k0, 1) - np.linalg.eigvalsh(k0)[0]
    k = dense_of(shifted)
    assume(np.any(k))  # a 1 x 1 K can round to exactly zero
    ratio = np.linalg.eigvalsh(k)[0] / (np.linalg.norm(k, 1) / SINGULAR_COND)
    assume(ratio >= 10.0 or ratio <= 0.1)
    n = band.shape[1]
    border = Border(np.eye(2), np.zeros((2, 2 * n)), 1.0, shifted)
    assert border.gram_singular == (ratio <= 0.1)
    assert not Border(np.eye(2), np.zeros((2, 2 * n)), 1.0, band).gram_singular


def test_not_positive_definite_has_no_factor():
    assert band_cholesky(np.array([[1.0, 1.0], [2.0, 0.0]])) is None  # [[1, 2], [2, 1]]
    assert band_cholesky(np.array([[0.0]])) is None
    assert Border(np.eye(2), np.zeros((2, 2)), 1.0, 0.0).gram_singular
    assert not Border(np.eye(2), np.zeros((2, 2)), 1.0, 3.0).gram_singular


def small_only(fn):
    """fn, failing the test when given anything larger than the 3 x 3 blocks
    of the parameters of interest."""
    def guarded(x, *args, **kwargs):
        if np.shape(x)[-1] > 3:
            raise AssertionError(f"{fn.__name__} of a {np.shape(x)} matrix")
        return fn(x, *args, **kwargs)
    return guarded


@pytest.mark.parametrize("with_a", (False, True))
def test_long_truncated_train_never_goes_dense(monkeypatch, with_a):
    # Q = 2000 overlapping copies: a dense 2Q x 2Q nuisance block would be
    # 128 MB and its decompositions O(Q^3); the band path needs neither
    q = np.arange(2000)
    b = np.exp(2j * np.pi * q / 7.0) * (1.0 + 0.5 * np.cos(q))
    pt = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, b)
    sc = d.Scenario(tau0=0.5, f0=0.7, looks_direct=2, looks_reflected=1, sigma_w2=0.5,
                    scale=1.3 if with_a else 1.0)
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, small_only(getattr(np.linalg, name)))
    tracemalloc.start()
    try:
        fim = d.fim_unknown_a(pt, sc, structure=True) if with_a else d.fim_known_structure(pt, sc)
        reduced = schur_complement(fim, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fim.meta["blocks"] == "general" and fim.border.gram.shape == (2, 2000)
    assert "entries" not in vars(fim)
    assert peak < 16e6, peak  # the Gram matrix alone would be 32 MB dense
    assert np.all(np.isfinite(reduced)) and np.all(np.linalg.eigvalsh(reduced) > 0)
