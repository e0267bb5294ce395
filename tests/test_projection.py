"""The structured bounds' nuisance projection and the numeric columns form it
feeds, against paths that do not use it.

For a train and a delay the eliminated block of every structured FIM is
(P/s2) Lam [A0 - pfrac W] Lam with one unit-scale projection (A0, W). The
columns form evaluates that block at many scenarios at once; it is checked
here against inverting the whole dense bordered FIM, against the closed forms
where the pulse is contained in its period, and against eliminated_pair of the
FIM builders, and the band factor of K is counted.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb import fim as fim_module
from ddcrb import structure
from ddcrb.fim import METHOD_SCHUR_NUMERIC, FimMatrix, eliminated_pair
from ddcrb.scaled import ZERO_PULSE_NOTE, eliminated_structure_columns, structure_bound_columns
from ddcrb.signals import ScenarioColumns

from conftest import make_contained_train
from dense_oracles import dense_inverse_pairs


@st.composite
def truncated_trains(draw):
    """A one-to-four-pulse train cut off at its period's right end: adjacent
    copies overlap and K is a tridiagonal Gram band."""
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    pt = d.gaussian_pulse_train(16, 0.25, draw(st.floats(2.5, 4.0)), draw(st.floats(0.8, 3.0)), b)
    assume(not d.support_assumption_holds(pt))
    return pt


@st.composite
def scenario_rows(draw):
    """One to four scenario rows at one delay: (Scenario of row 0, columns)."""
    n = draw(st.integers(1, 4))
    cols = {"looks_direct": draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
            "looks_reflected": draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
            "scale": draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)),
            "sigma_w2": draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))}
    sc = d.Scenario(tau0=draw(st.floats(0.0, 3.0)), f0=0.7, looks_direct=1, looks_reflected=1,
                    sigma_w2=1.0)
    return sc, cols


def row_scenario(sc, cols, i):
    return dataclasses.replace(sc, **{name: values[i] for name, values in cols.items()})


def build(pt, sc, with_a):
    return d.fim_unknown_a(pt, sc, structure=True) if with_a else d.fim_known_structure(pt, sc)


@settings(max_examples=60)
@given(pt=truncated_trains(), rows=scenario_rows(), with_a=st.booleans())
def test_columns_equal_dense_inversion_of_the_bordered_fim(pt, rows, with_a):
    sc, cols = rows
    joint, separate = eliminated_structure_columns([pt], ScenarioColumns.of(sc, **cols),
                                                   scale_known=not with_a)
    assert joint.method == separate.method == METHOD_SCHUR_NUMERIC
    for i in range(len(cols["scale"])):
        fim = build(pt, row_scenario(sc, cols, i), with_a)
        assert fim.border.eliminated is not None
        pairs = (joint.pair(i), separate.pair(i))
        # the columns form is the FIM path's elimination, row by row
        assert pairs == (eliminated_pair(fim), eliminated_pair(fim, separate=True))
        assert not any(p.singular for p in pairs)
        for pair, expected in zip(pairs, dense_inverse_pairs(fim)):
            assert tuple(pair) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60)
@given(b=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0), min_size=1,
                  max_size=4),
       rows=scenario_rows(), with_a=st.booleans())
def test_columns_equal_the_closed_forms_on_contained_trains(b, rows, with_a):
    sc, cols = rows
    pt = make_contained_train(n_p=12, delta=0.4, b=tuple(b))[0]
    assert d.support_assumption_holds(pt)
    pts = ScenarioColumns.of(sc, **cols)
    numeric = eliminated_structure_columns([pt], pts, scale_known=not with_a)
    closed = structure_bound_columns([pt], pts, scale_known=not with_a)
    for i in range(len(cols["scale"])):
        # the block is diagonal under containment: joint equals separate
        for col in numeric:
            assert not col.pair(i).singular
            assert tuple(col.pair(i)) == pytest.approx(tuple(closed.pair(i)), rel=1e-12)


def test_band_factor_runs_once_per_train(monkeypatch):
    # over two truncated trains, three delays and many scenarios, each builder
    # and the columns form: K is factored once per train, the projection is
    # solved once per train and delay, and no FIM factors c K
    factored, solved = [], []
    factor = fim_module.band_cholesky
    monkeypatch.setattr(fim_module, "band_cholesky",
                        lambda band: factored.append(band.shape) or factor(band))
    fresh = structure.nuisance_projection.__wrapped__
    monkeypatch.setattr(structure.nuisance_projection, "__wrapped__",
                        lambda pt, tau0: solved.append(tau0) or fresh(pt, tau0))
    trains = [d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, np.exp(0.4j * np.arange(q)) * (1 + q))
              for q in (3, 5)]
    for pt in trains:
        for tau0 in (0.0, 0.5, 1.75):
            for l, p, a, s2 in ((0, 1, 1.0, 1.0), (2, 3, 0.5, 0.2), (5, 1, 2.0, 3.0)):
                sc = d.Scenario(tau0=tau0, f0=0.7, looks_direct=l, looks_reflected=p,
                                sigma_w2=s2, scale=a)
                for with_a in (False, True):
                    eliminated_pair(build(pt, sc, with_a), separate=with_a)
            pts = ScenarioColumns.of(sc, looks_direct=np.arange(1, 40))
            for scale_known in (True, False):
                eliminated_structure_columns([pt], pts, scale_known)
    # per train: one factor of K and one inertia test of the shifted K
    assert sorted(factored) == [(2, 3)] * 2 + [(2, 5)] * 2
    assert solved == [0.0, 0.5, 1.75] * 2


@pytest.mark.parametrize("n_p", [10, 20])
def test_sweep_np_trains_past_containment_are_eliminated(n_p):
    # rows of the sweep_np result (Tp = 4, Q = 1, one unit amplitude): the pulse
    # is cut off at its period's ends, where the closed form reads low by
    # 9.7 % (tau0) and 31.0 % (f0) at n_p = 10, and 5.0 % and 16.9 % at n_p = 20
    pt = d.gaussian_pulse_train(n_p, 4.0 / n_p, 4.0, 9.0,
                                np.full(1, (1.0 + 1.0j) / np.sqrt(2.0)))
    sc = d.Scenario(tau0=0.5, f0=2.0, looks_direct=1, looks_reflected=1, sigma_w2=0.1)
    assert not d.support_assumption_holds(pt)
    pair = d.jcrb_structure_known_a(pt, sc)
    assert pair.method == METHOD_SCHUR_NUMERIC and not pair.singular
    fim = d.fim_known_structure(pt, sc)
    assert pair == eliminated_pair(fim)
    assert tuple(pair) == pytest.approx(dense_inverse_pairs(fim)[0], rel=1e-10)
    dense = eliminated_pair(FimMatrix(fim.entries, fim.labels))
    assert tuple(pair) == pytest.approx(tuple(dense), rel=1e-12)
    closed = structure_bound_columns([pt], ScenarioColumns.of(sc)).pair()
    low = {10: (0.097, 0.310), 20: (0.050, 0.169)}[n_p]
    assert (1.0 - closed.tau0 / pair.tau0, 1.0 - closed.f0 / pair.f0) == \
        pytest.approx(low, abs=1e-3)


@pytest.mark.parametrize("zero_pulse", (False, True))
def test_no_information_is_flagged_before_any_projection(monkeypatch, zero_pulse):
    def no_projection(pt, tau0):
        raise AssertionError("a projection was built")

    monkeypatch.setattr(structure.nuisance_projection, "__wrapped__", no_projection)
    if zero_pulse:
        pt = d.PulseTrain(g=[0.0, 0.0, 0.0], g_deriv=[0.0, 0.0, 0.0],
                          b=np.ones(2, dtype=complex), delta=0.5)
    else:
        pt = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, np.array([1.0, 0.5j]))
    assert not d.support_assumption_holds(pt)
    pts = ScenarioColumns.of(d.Scenario(tau0=0.5, f0=0.1, looks_direct=1, looks_reflected=1,
                                        sigma_w2=1.0),
                             looks_reflected=[1, 2] if zero_pulse else [0])
    for scale_known in (True, False):
        for col in eliminated_structure_columns([pt], pts, scale_known):
            assert list(col.notes) == [ZERO_PULSE_NOTE] * len(col.notes)
            assert col.method == METHOD_SCHUR_NUMERIC
    sc = d.Scenario(tau0=0.5, f0=0.1, looks_direct=1, looks_reflected=1 if zero_pulse else 0,
                    sigma_w2=1.0)
    assert d.jcrb_structure_known_a(pt, sc).note == ZERO_PULSE_NOTE
