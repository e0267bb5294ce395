"""Per-signal memo: the kept sums equal a fresh computation and cannot change."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.bounds import signal_bounds, unknown_signal_labels, weighted_sums
from ddcrb.fim import GramBand
from ddcrb.scaled import energy_sums
from ddcrb.structure import structure_labels, structure_quantities

finite = st.floats(-1e3, 1e3, allow_nan=False)
delays = st.lists(st.floats(0.0, 50.0), min_size=2, max_size=4, unique=True)


@st.composite
def sampled_signals(draw):
    m = draw(st.integers(1, 24))
    parts = draw(st.lists(finite, min_size=4 * m, max_size=4 * m))
    samples = np.array(parts[:m]) + 1j * np.array(parts[m:2 * m])
    deriv = np.array(parts[2 * m:3 * m]) + 1j * np.array(parts[3 * m:])
    return d.SampledSignal(samples, draw(st.floats(0.01, 2.0)), deriv)


@st.composite
def pulse_trains(draw):
    n_p = draw(st.integers(1, 16))
    q = draw(st.integers(1, 5))
    parts = draw(st.lists(finite, min_size=2 * q, max_size=2 * q))
    b = np.array(parts[:q]) + 1j * np.array(parts[q:])
    return d.gaussian_pulse_train(n_p, draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 4.0)),
                                  draw(st.floats(0.1, 9.0)), b)


def assert_same_quantities(kept, fresh):
    for field in dataclasses.fields(kept):
        a, b = getattr(kept, field.name), getattr(fresh, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, strict=True)
        else:
            assert a == b, field.name


@settings(max_examples=60)
@given(sig=sampled_signals(), taus=delays)
def test_kept_signal_sums_equal_fresh_ones(sig, taus):
    kept = [weighted_sums(sig, tau0) for tau0 in taus]
    for tau0, sums in zip(taus, kept):
        # the second call returns the kept tuple itself
        assert weighted_sums(sig, tau0) is sums
        assert sums == weighted_sums.__wrapped__(sig, tau0)
    assert energy_sums(sig) is energy_sums(sig)
    assert energy_sums(sig) == energy_sums.__wrapped__(sig)


@settings(max_examples=60)
@given(pt=pulse_trains(), taus=delays)
def test_kept_pulse_sums_equal_fresh_ones(pt, taus):
    kept = [structure_quantities(pt, tau0) for tau0 in taus]
    sig = d.synthesize_pulse_train(pt)
    for tau0, sq in zip(taus, kept):
        assert structure_quantities(pt, tau0) is sq
        assert_same_quantities(sq, structure_quantities.__wrapped__(pt, tau0))
        assert weighted_sums(sig, tau0) == weighted_sums.__wrapped__(sig, tau0)
    assert pt.amp_energy == float(np.sum(np.abs(pt.b) ** 2))
    assert "amp_energy" in vars(pt)


def _memo_values(obj):
    return list(vars(obj).get("_memo", {}).values())


def test_kept_values_cannot_be_changed():
    pt = d.gaussian_pulse_train(20, 0.25, 2.5, 0.3, [1.0, 0.5j, -1.0 + 1.0j])
    # centred near the period edge and wide: the general basis and a Gram band
    wide = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, [1.0, 0.5j, -1.0 + 1.0j])
    sig = d.synthesize_pulse_train(pt)
    for tau0 in (0.0, 0.75):
        sc = d.Scenario(tau0=tau0, f0=0.3, looks_direct=2, looks_reflected=1, sigma_w2=0.5,
                        scale=1.5)
        signal_bounds(sig, sc)
        d.crb_separate_unknown_a(sig, sc)
        d.jcrb_structure_known_a(pt, sc)
        d.jcrb_known_signal_pulse(pt, sc)
        for train in (pt, wide):
            d.eliminated_pair(d.fim_known_structure(train, sc))
            d.fim_unknown_a(train, sc, structure=True)
    # each train keeps its synthesized signal, its containment verdict, its Gram
    # band and per delay one pulse basis; the contained train per delay one
    # StructureQuantities too
    assert len(_memo_values(sig)) == 3 and len(_memo_values(pt)) == 7
    for value in _memo_values(sig):
        assert isinstance(value, tuple) and all(type(v) is float for v in value)
    assert d.synthesize_pulse_train(pt) is sig and _memo_values(pt)[0] is sig
    assert [v for v in _memo_values(pt) if type(v) is bool] == [True]
    fresh = d.synthesize_pulse_train.__wrapped__(pt)
    assert fresh is not sig
    for field in dataclasses.fields(sig):
        np.testing.assert_array_equal(getattr(sig, field.name), getattr(fresh, field.name),
                                      strict=True)
    for arr in (sig.samples, sig.deriv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    sqs = [v for v in _memo_values(pt) if isinstance(v, d.StructureQuantities)]
    assert len(sqs) == 2
    for sq in sqs:
        with pytest.raises(dataclasses.FrozenInstanceError):
            sq.w_b2 = 0.0
        for arr in (sq.gamma, sq.w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
    assert type(pt.amp_energy) is float
    kept_wide = _memo_values(wide)
    assert len(kept_wide) == 5 and [v for v in kept_wide if type(v) is bool] == [False]
    assert d.synthesize_pulse_train(wide) in kept_wide
    [gram], [wide_gram] = ([v for v in kept if isinstance(v, GramBand)]
                           for kept in (_memo_values(pt), kept_wide))
    assert gram.band.shape == (1, 1) and wide_gram.band.shape == (2, 3)
    for band in (gram, wide_gram):
        # its norm and inertia verdict are kept with it
        assert {"norm1", "singular"} <= set(vars(band))
        with pytest.raises(dataclasses.FrozenInstanceError):
            band.band = np.zeros((2, 3))
    bases = [v for v in _memo_values(pt) + kept_wide if type(v) is tuple]
    assert [form for _, form in bases] == ["simplified"] * 2 + ["general"] * 2
    for basis, form in bases:
        assert len(basis) == 5 and basis[1] == 1.0
        assert basis[4] is (gram if form == "simplified" else wide_gram)
        for arr in (basis[0], *basis[2:4], basis[4].band):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_labels_are_shared_tuples():
    assert unknown_signal_labels(3) is unknown_signal_labels(3)
    assert unknown_signal_labels(2) == ("tau0", "f0", "sR_0", "sI_0", "sR_1", "sI_1")
    assert structure_labels(2) is structure_labels(2)
    assert structure_labels(2) == ("tau0", "f0", "b1R", "b1I", "b2R", "b2I")


def test_signal_with_kept_sums_pickles():
    pt = d.gaussian_pulse_train(12, 0.5, 3.0, 1.0, [1.0, 1.0j])
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=1.0, f0=0.1, looks_direct=1, looks_reflected=2, sigma_w2=1.0)
    wide = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, [1.0, 0.5j, -1.0 + 1.0j])
    first = (signal_bounds(sig, sc), d.jcrb_structure_known_a(pt, sc),
             d.eliminated_pair(d.fim_known_structure(wide, sc)))
    sig2, pt2, wide2 = pickle.loads(pickle.dumps((sig, pt, wide)))
    assert len(_memo_values(wide2)) == 4  # its verdict, signal, Gram band and basis
    assert (signal_bounds(sig2, sc), d.jcrb_structure_known_a(pt2, sc),
            d.eliminated_pair(d.fim_known_structure(wide2, sc))) == first
