"""Cross-module FIM invariants: every builder yields a valid FimMatrix.

FimMatrix validates symmetry and positive semidefiniteness at construction,
so these tests simply drive each builder across randomized scenarios; a
violation would raise inside the constructor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import PairColumns, schur_complement

from conftest import make_contained_train


@settings(max_examples=60)
@given(l=st.integers(0, 6), p=st.integers(1, 6),
       a=st.floats(0.3, 3.0), sigma_w2=st.floats(0.05, 5.0),
       f0=st.floats(-5.0, 5.0), seed=st.integers(0, 2 ** 31 - 1))
def test_every_fim_builder_is_symmetric_psd(l, p, a, sigma_w2, f0, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pt, _, _ = make_contained_train(n_p=12, delta=0.4, b=tuple(b))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=0.8, f0=f0, looks_direct=l, looks_reflected=p,
                    sigma_w2=sigma_w2)
    sc_a = d.Scenario(tau0=0.8, f0=f0, looks_direct=l, looks_reflected=p,
                      sigma_w2=sigma_w2, scale=a)
    d.fim_known_signal(sig, sc)
    d.fim_unknown_signal(sig, sc_a)
    d.fim_known_structure(pt, sc_a)
    d.fim_unknown_a(sig, sc_a, structure=False)
    d.fim_unknown_a(pt, sc_a, structure=True)


@settings(max_examples=30)
@given(l=st.integers(1, 3), p=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
def test_covariance_fim_is_symmetric_psd(l, p, seed):
    rng = np.random.default_rng(seed)
    pt, _, _ = make_contained_train(n_p=4, delta=0.5, b=(1.0 - 0.5j,))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=2 * sig.delta, f0=float(rng.uniform(-1, 1)),
                    looks_direct=l, looks_reflected=p, sigma_w2=1.0,
                    record_length=7)
    dim = 7 * (l + p)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    model = d.build_stacked(sig, sc, mat @ mat.conj().T / dim + 0.4 * np.eye(dim))
    d.fim_trace_form(model, d.dc_list(model, sig, sc))


@settings(max_examples=40)
@given(l=st.integers(1, 8), p=st.integers(1, 8), a=st.floats(0.4, 2.5))
def test_schur_reduction_of_scaled_fim_stays_psd(l, p, a):
    pt, _, _ = make_contained_train(n_p=12, delta=0.4, b=(0.7 + 0.2j, -0.4 + 0.9j))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=0.8, f0=0.5, looks_direct=l, looks_reflected=p,
                    sigma_w2=0.9, scale=a)
    reduced = schur_complement(d.fim_unknown_a(sig, sc, structure=False), keep=3)
    eigs = np.linalg.eigvalsh(reduced)
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)


def test_fim_matrix_rejects_asymmetry_and_indefiniteness():
    with pytest.raises(ValueError, match="symmetric"):
        d.FimMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]), ("x", "y"))
    with pytest.raises(ValueError, match="semidefinite"):
        d.FimMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]), ("x", "y"))
    with pytest.raises(ValueError, match="square"):
        d.FimMatrix(np.zeros((2, 3)), ("x", "y"))


def test_fim_matrix_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="at least one parameter"):
        d.FimMatrix(np.zeros((0, 0)), ())


def test_pair_columns_with_no_condition_held_keep_the_values_given():
    tau0, f0 = np.array([1.0, np.inf, 0.0, -2.0]), np.array([3.0, 2.0, np.nan, 5.0])
    for conditions in ((), ((np.zeros(4, dtype=bool), "never"), (np.array([False]), "never"))):
        cols = PairColumns.flagged(tau0, f0, *conditions)
        assert cols.tau0 is tau0 and cols.f0 is f0
        assert cols.notes.dtype == object and cols.notes.tolist() == [""] * 4
    # a condition that holds still flags its rows, and only those
    cols = PairColumns.flagged(tau0, f0, (np.array([False, True, False, True]), "held"),
                               (np.array([False, False, False, True]), "later"))
    assert cols.notes.tolist() == ["", "held", "", "held"]
    assert cols.tau0.tolist() == [1.0, np.inf, 0.0, np.inf]
    assert cols.f0[0] == 3.0 and np.isnan(cols.f0[2]) and cols.f0[3] == np.inf
