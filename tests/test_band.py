"""Band kernels of the bordered core against dense numpy.

The nuisance block C = c (K kron I_2) keeps K as its lower band,
band[d, j] = K[j + d, j]. Factor, solve, dense expansion and the inertia
test of K are checked here against the N x N matrix the band encodes. One
column loop per kernel serves every bandwidth, the tridiagonal pulse Gram
band (b = 1) among them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import (SINGULAR_COND, Border, GramBand, _eliminate, band_cholesky, band_norm1,
                       band_solve, eliminated_pair, schur_complement)


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


@st.composite
def tridiagonal_bands(draw):
    """A b = 1 band (the pulse Gram matrix's), zero past the end, positive
    definite by diagonal dominance, its columns scaled by powers of ten from
    1e-3 to 1e3."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    sub = rng.uniform(-1.0, 1.0, n)
    sub[-1] = 0.0
    diag = np.abs(sub) + np.abs(np.concatenate(([0.0], sub[:-1]))) + rng.uniform(0.05, 2.0, n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)  # K -> S K S keeps it positive definite
    return np.vstack([diag * scale * scale, sub * scale * np.concatenate((scale[1:], [1.0]))])


@settings(max_examples=200)
@given(band=st.one_of(dominant_bands(), tridiagonal_bands()), r=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_factor_and_solve_match_dense(band, r, seed):
    k = dense_of(band)
    factor = band_cholesky(band)
    assert factor is not None and factor.shape == band.shape
    lower = lower_of(factor)
    expected = np.linalg.cholesky(k)
    np.testing.assert_allclose(lower, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
    rhs = np.random.default_rng(seed).standard_normal((band.shape[1], r))
    y = band_solve(factor, rhs)
    assert y.shape == rhs.shape
    assert y.flags.c_contiguous  # the layout the projection's product was recorded with
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
    for gram, kmat in ((GramBand(band), dense_of(band)), (GramBand([[1.7]]), 1.7 * np.eye(n))):
        expected = np.block([[a, b], [b.T, np.kron(c * kmat, np.eye(2))]])
        out = Border(a, b, c, gram).dense()
        np.testing.assert_array_equal(out, expected)
        assert not out.flags.writeable


@settings(max_examples=100)
@given(n=st.integers(1, 40), g=st.floats(0.1, 10.0), c=st.floats(0.1, 5.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_one_entry_band_is_g_times_identity_at_any_n(n, g, c, seed):
    # [[g]] is g I for every N: its dense matrix, Schur complement, norm and
    # verdict are those of the N x N matrix g I
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((2, 2 * n))
    a = b @ b.T / (c * g) + np.eye(2)
    border = Border(a, b, c, GramBand([[g]]))
    dense = np.block([[a, b], [b.T, c * g * np.eye(2 * n)]])
    np.testing.assert_array_equal(border.dense(), dense)
    oracle = a - b @ np.linalg.solve(dense[2:, 2:], b.T)
    np.testing.assert_allclose(border.schur, oracle, rtol=1e-12, atol=1e-12 * np.max(np.abs(a)))
    assert border.gram.norm1 == g and not border.gram.singular


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
    border = Border(np.eye(2), np.zeros((2, 2 * n)), 1.0, GramBand(shifted))
    assert border.gram.singular == (ratio <= 0.1)
    assert not Border(np.eye(2), np.zeros((2, 2 * n)), 1.0, GramBand(band)).gram.singular


def test_not_positive_definite_has_no_factor():
    assert band_cholesky(np.array([[1.0, 1.0], [2.0, 0.0]])) is None  # [[1, 2], [2, 1]]
    assert band_cholesky(np.array([[0.0]])) is None
    assert Border(np.eye(2), np.zeros((2, 2)), 1.0, GramBand([[0.0]])).gram.singular
    assert not Border(np.eye(2), np.zeros((2, 2)), 1.0, GramBand([[3.0]])).gram.singular


@settings(max_examples=150)
@given(band=tridiagonal_bands(), fault=st.sampled_from(("first", "zero", "later", "nan_diag",
                                                         "nan_sub")),
       at=st.floats(0.0, 1.0))
def test_no_factor_where_a_pivot_is_not_positive(band, fault, at):
    n = band.shape[1]
    bad = band.copy()
    j = min(int(at * n), n - 1)
    if fault == "first":
        bad[0, 0] = -band[0, 0]
    elif fault in ("zero", "later"):
        # c0 = K[j, j] - l^2 with l from column j - 1: exactly 0, or negative
        j = max(j, 1)
        assume(n > 1)
        ell = band_cholesky(band)[1, j - 1]
        assume(ell != 0.0)
        bad[0, j] = ell * ell if fault == "zero" else 0.5 * ell * ell
    elif fault == "nan_diag":
        bad[0, j] = np.nan
    else:  # the last entry of the lower diagonal lies past the end and is never read
        assume(n > 1)
        bad[1, min(j, n - 2)] = np.nan
    assert band_cholesky(bad) is None


def long_truncated_train(with_a):
    """Q = 2000 overlapping Gaussian copies (b = 1 Gram band) and its scenario."""
    q = np.arange(2000)
    b = np.exp(2j * np.pi * q / 7.0) * (1.0 + 0.5 * np.cos(q))
    pt = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, b)
    sc = d.Scenario(tau0=0.5, f0=0.7, looks_direct=2, looks_reflected=1, sigma_w2=0.5,
                    scale=1.3 if with_a else 1.0)
    return pt, sc


def nuisance_bases_train(with_a):
    """The 200-pulse truncated train of the perfbench nuisance_bases workload
    and its scenario there."""
    q = np.arange(200)
    b = np.exp(2j * np.pi * q / 7.0) * (1.0 + 0.5 * np.cos(q))
    pt = d.gaussian_pulse_train(32, 0.25, 7.0, 4.0, b)
    sc = d.Scenario(tau0=0.5, f0=2.0, looks_direct=2, looks_reflected=1, sigma_w2=0.1,
                    scale=1.5 if with_a else 1.0)
    return pt, sc


# (tau0, f0) of eliminated_pair, joint then separate, as float.hex. No file
# under results/ reads a banded K; the perfbench nuisance_bases cells of its
# truncated train do, but at rel 1e-9 they cannot see the last bit, so these
# hold the band path bit for bit. Like results/, they rest on numpy's LAPACK
# (eigvalsh and inv of the 2 x 2 block). RECORDED_WITH_SCHUR_OF_CK holds the
# pairs of the elimination that factored c K for every FIM (recorded with the
# band loop that still factors K once per train); PINNED_PAIRS
# those of the eliminated block from the train's kept projection, which moved
# some pairs by one unit in the last place.
RECORDED_WITH_SCHUR_OF_CK = {
    (nuisance_bases_train, False): ("0x1.2fb045c57fd40p-13", "0x1.41dd8cc3a8d4dp-40",
                                    "0x1.2fb045c579f52p-13", "0x1.41dd8cc3a29c0p-40"),
    (nuisance_bases_train, True): ("0x1.1dfae05f2251dp-14", "0x1.954fd3a397138p-41",
                                   "0x1.1dfae05f1e2f8p-14", "0x1.954fd3a391379p-41"),
    (long_truncated_train, False): ("0x1.128dbe7a68f67p-15", "0x1.2b5210e6e7768p-45",
                                    "0x1.128db32f755e1p-15", "0x1.2b5204972a8f0p-45"),
    (long_truncated_train, True): ("0x1.465c958ddc285p-16", "0x1.b3b285438fc6ep-46",
                                   "0x1.465c8a978bf44p-16", "0x1.b3b276a1182a4p-46"),
}
PINNED_PAIRS = {
    (nuisance_bases_train, False): ("0x1.2fb045c57fd40p-13", "0x1.41dd8cc3a8d4dp-40",
                                    "0x1.2fb045c579f52p-13", "0x1.41dd8cc3a29c0p-40"),
    (nuisance_bases_train, True): ("0x1.1dfae05f2251dp-14", "0x1.954fd3a39713ap-41",
                                   "0x1.1dfae05f1e2f8p-14", "0x1.954fd3a39137bp-41"),
    (long_truncated_train, False): ("0x1.128dbe7a68f67p-15", "0x1.2b5210e6e7768p-45",
                                    "0x1.128db32f755e1p-15", "0x1.2b5204972a8f1p-45"),
    (long_truncated_train, True): ("0x1.465c958ddc284p-16", "0x1.b3b285438fc70p-46",
                                   "0x1.465c8a978bf43p-16", "0x1.b3b276a1182a6p-46"),
}


@pytest.mark.parametrize("train, with_a", PINNED_PAIRS, ids=lambda x: getattr(x, "__name__", x))
def test_truncated_train_pairs_are_pinned(train, with_a):
    pt, sc = train(with_a)
    fim = d.fim_unknown_a(pt, sc, structure=True) if with_a else d.fim_known_structure(pt, sc)
    assert fim.border.gram.band.shape[0] == 2  # a tridiagonal K
    pairs = (eliminated_pair(fim), eliminated_pair(fim, separate=True))
    assert not any(p.singular for p in pairs)
    assert tuple(float.hex(v) for p in pairs for v in p) == PINNED_PAIRS[train, with_a]
    for new, old in zip(PINNED_PAIRS[train, with_a], RECORDED_WITH_SCHUR_OF_CK[train, with_a]):
        assert float.fromhex(new) == pytest.approx(float.fromhex(old), rel=1e-13, abs=0.0)


@settings(max_examples=150)
@given(n=st.integers(1, 6), k=st.integers(2, 4), keep=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), per_matrix_outer=st.booleans())
def test_stacked_elimination_is_each_matrix_alone(n, k, keep, seed, per_matrix_outer):
    # a stack of symmetric positive definite matrices, each scaled by its own
    # power of ten, some with C made singular by a zeroed nuisance row
    assume(keep < k)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, k, k))
    e = (m @ m.transpose(0, 2, 1) + 0.1 * np.eye(k)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1, 1))
    zeroed = rng.random(n) < 0.3
    e[zeroed, keep, :] = e[zeroed, :, keep] = 0.0
    outer = rng.uniform(0.0, 2.0, n) if per_matrix_outer else 1.0
    out, singular = _eliminate(e, keep, outer)
    assert out.shape == (n, keep, keep) and singular.shape == (n,)
    for i in range(n):
        outer_i = outer[i] if per_matrix_outer else outer
        alone, alone_singular = _eliminate(e[i:i + 1], keep, outer_i)
        assert out[i].tobytes() == alone[0].tobytes() and singular[i] == alone_singular[0]
        c_eigs = np.linalg.eigvalsh(e[i, keep:, keep:])
        assert singular[i] == (c_eigs[0] <= max(abs(c_eigs[-1]), outer_i) / SINGULAR_COND)
        if zeroed[i]:
            assert singular[i]
        if singular[i]:  # eliminated as I
            assert np.array_equal(out[i], np.eye(keep))
        else:
            a, b, c = e[i, :keep, :keep], e[i, :keep, keep:], e[i, keep:, keep:]
            dense = a - b @ np.linalg.inv(c) @ b.T
            np.testing.assert_allclose(out[i], dense, rtol=1e-9, atol=1e-9 * np.max(np.abs(a)))
            np.testing.assert_array_equal(out[i], out[i].T)


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
    pt, sc = long_truncated_train(with_a)
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, small_only(getattr(np.linalg, name)))
    tracemalloc.start()
    try:
        fim = d.fim_unknown_a(pt, sc, structure=True) if with_a else d.fim_known_structure(pt, sc)
        reduced = schur_complement(fim, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fim.meta["blocks"] == "general" and fim.border.gram.band.shape == (2, 2000)
    assert "entries" not in vars(fim)
    assert peak < 16e6, peak  # the Gram matrix alone would be 32 MB dense
    assert np.all(np.isfinite(reduced)) and np.all(np.linalg.eigvalsh(reduced) > 0)
