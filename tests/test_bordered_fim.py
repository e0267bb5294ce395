"""Bordered FIMs: structured validation and elimination match the dense path.

Every unknown-signal builder returns a FIM kept as blocks A, B and
C = c (K kron I_2), at any reflected-path scale a, with a as a parameter or
not. The reference here is today's dense code: the same matrix rebuilt from
`.entries` as a dense FimMatrix, validated with a full eigendecomposition
and eliminated with a dense solve. Where the closed forms hold (raw samples
and contained pulse trains) they must agree with the eliminated FIMs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcrb as d
import ddcrb.fim as fim_module
from ddcrb import structure
from ddcrb.fim import (METHOD_SCHUR_NUMERIC, PSD_RTOL, UNIT_GRAM, Border, FimMatrix, GramBand,
                       SingularFimError, eliminated_pair, invert_bound_matrix,
                       schur_complement)

from conftest import make_contained_train

KINDS = ("samples", "contained", "truncated")


def build_source(kind, l, p, a, sigma_w2, seed):
    """(source, scenario): random samples, or a one-to-three-pulse train."""
    rng = np.random.default_rng(seed)
    sc = d.Scenario(tau0=0.5, f0=0.7, looks_direct=l, looks_reflected=p,
                    sigma_w2=sigma_w2, scale=a)
    if kind == "samples":
        m = int(rng.integers(2, 12))
        return d.SampledSignal(rng.standard_normal(m) + 1j * rng.standard_normal(m), 0.25,
                               rng.standard_normal(m) + 1j * rng.standard_normal(m)), sc
    q = int(rng.integers(1, 4))
    b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    if kind == "contained":
        return make_contained_train(n_p=12, delta=0.4, b=tuple(b))[0], sc
    # centred near the period edge and wide: adjacent copies overlap
    return d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, b), sc


def build_fim(kind, with_a, l, p, a, sigma_w2, seed):
    """The bordered FIM of a build_source case at the scale a, with a as an
    unknown when with_a."""
    source, sc = build_source(kind, l, p, a, sigma_w2, seed)
    if kind == "samples":
        return d.fim_unknown_a(source, sc) if with_a else d.fim_unknown_signal(source, sc)
    fim = (d.fim_unknown_a(source, sc, structure=True) if with_a
           else d.fim_known_structure(source, sc))
    assert fim.meta["blocks"] == ("simplified" if kind == "contained" else "general")
    return fim


def eliminate(fim, keep):
    try:
        return schur_complement(fim, keep)
    except SingularFimError:
        return "singular"


@settings(max_examples=150)
@given(kind=st.sampled_from(KINDS), with_a=st.booleans(), keep_a=st.booleans(),
       l=st.integers(0, 4), p=st.integers(0, 4), a=st.floats(0.5, 2.0),
       sigma_w2=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 31 - 1))
def test_structured_elimination_matches_dense(kind, with_a, keep_a, l, p, a, sigma_w2, seed):
    # keep counts parameters of interest only: a is one when with_a
    keep = 2 + (with_a and keep_a)
    if p == 0 and (with_a or kind != "samples"):
        with pytest.raises(ValueError):
            build_fim(kind, with_a, l, p, a, sigma_w2, seed)
        return
    fim = build_fim(kind, with_a, l, p, a, sigma_w2, seed)
    assert fim.border is not None
    dense = FimMatrix(fim.entries, fim.labels)
    structured, reference = eliminate(fim, keep), eliminate(dense, keep)
    if isinstance(reference, str):
        assert structured == reference
        return
    assert not isinstance(structured, str)
    # absolute floor: with L = 0 or P = 0 both results are rounding noise
    floor = 1e-12 * np.max(np.abs(fim.entries[:keep, :keep]))
    np.testing.assert_allclose(structured, reference, rtol=1e-12, atol=floor)
    scale = float(np.max(np.abs(fim.submatrix(fim.labels[:2]))))
    assert (invert_bound_matrix(structured, scale) is None) == \
        (invert_bound_matrix(reference, scale) is None)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("with_a", (False, True))
def test_validation_errors_match_dense(kind, with_a):
    fim = build_fim(kind, with_a, 2, 1, 1.3, 0.5, seed=7)
    border = fim.border
    shift = 2.0 * np.max(np.abs(np.linalg.eigvalsh(border.a))) * np.eye(len(border.a))
    skew = np.zeros_like(border.a)
    skew[0, 1] = 1e-6 * np.max(np.abs(border.a))
    for a_block, message in ((border.a - shift, "semidefinite"),
                             (border.a + skew, "symmetric")):
        bad = Border(a_block, border.b, border.c, border.gram)
        with pytest.raises(ValueError, match=message):
            FimMatrix(None, fim.labels, border=bad)
        with pytest.raises(ValueError, match=message):
            FimMatrix(bad.dense(), fim.labels)
    # B = 0: the Schur complement is A itself and both norms are |A|_F to
    # within 0.1 % (C is small beside A), so one rule gives one verdict with
    # lambda_min just inside or just outside -PSD_RTOL spec
    eye = np.eye(len(border.a))
    lam = np.linalg.eigvalsh(border.a)[0]
    spec = np.linalg.norm(border.a - lam * eye)
    for theta, accepted in ((0.99, True), (1.01, False)):
        a_block = border.a - (lam + theta * PSD_RTOL * spec) * eye
        flat = Border(a_block, np.zeros_like(border.b), border.c, border.gram)
        for build in (lambda: FimMatrix(None, fim.labels, border=flat),
                      lambda: FimMatrix(flat.dense(), fim.labels)):
            if accepted:
                build()
            else:
                with pytest.raises(ValueError, match="semidefinite"):
                    build()


def test_entries_built_lazily_and_read_only():
    sig = d.triangle_wave(8, delta=0.4)
    fim = d.fim_unknown_signal(sig, d.Scenario(tau0=0.4, f0=0.1, looks_direct=1,
                                               looks_reflected=1, sigma_w2=1.0))
    assert "entries" not in vars(fim)
    assert fim.submatrix(("tau0", "f0")).shape == (2, 2)
    assert "entries" not in vars(fim)
    entries = fim.entries
    assert entries is fim.entries and not entries.flags.writeable
    assert entries.shape == (fim.dim, fim.dim)


def test_no_look_nuisance_block_falls_back_to_dense():
    sig = d.triangle_wave(8, delta=0.4)
    sc = d.Scenario(tau0=0.4, f0=0.1, looks_direct=0, looks_reflected=0, sigma_w2=1.0)
    fim = d.fim_unknown_signal(sig, sc)
    assert fim.border.schur is None
    with pytest.raises(SingularFimError):
        schur_complement(fim)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("with_a", (False, True))
def test_each_builder_validates_once(kind, with_a, monkeypatch):
    calls = []
    validate = FimMatrix.__post_init__
    monkeypatch.setattr(FimMatrix, "__post_init__",
                        lambda self, dense: calls.append(1) or validate(self, dense))
    build_fim(kind, with_a, 2, 1, 1.3, 0.5, seed=5)
    assert len(calls) == 1


def test_drop_a_eliminates_on_the_blocks():
    """At the CLI default train neither FIM builds its dense (2 + 2M)^2
    matrix, and dropping a leaves the known-scale FIM bit for bit."""
    pt = d.gaussian_pulse_train(500, 0.01, 4.0, 9.0, np.ones(2, dtype=complex))
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=0.05, f0=20.0, looks_direct=1, looks_reflected=1,
                    sigma_w2=1.0, scale=1.5)
    with_a, plain = d.fim_unknown_a(sig, sc), d.fim_unknown_signal(sig, sc)
    dropped = with_a.drop("a")
    pair = eliminated_pair(dropped)
    assert sig.m == 1000 and dropped.labels == plain.labels
    assert "entries" not in vars(with_a) and "entries" not in vars(dropped)
    assert pair == eliminated_pair(plain)


def test_cuts_outside_the_parameters_of_interest_rejected():
    fim = build_fim("samples", False, 2, 1, 1.3, 0.5, seed=5)
    for label in ("sR_0", "a", "nope"):
        with pytest.raises(ValueError, match="parameter of interest"):
            fim.drop(label)
        with pytest.raises(ValueError, match="parameter of interest"):
            fim.submatrix(("tau0", label))
    for keep in (0, 3):
        with pytest.raises(ValueError, match="parameters of interest"):
            schur_complement(fim, keep)
    assert "entries" not in vars(fim)


def _counted_choleskies(monkeypatch) -> list:
    calls = []
    factor = fim_module.band_cholesky
    monkeypatch.setattr(fim_module, "band_cholesky", lambda x: calls.append(1) or factor(x))
    return calls


def test_gram_schur_computed_once_per_fim(monkeypatch):
    calls = _counted_choleskies(monkeypatch)
    pt, sc = build_source("truncated", 2, 1, 1.0, 0.5, seed=3)
    fim = d.fim_known_structure(pt, sc)
    assert len(calls) == 1  # validation
    first = schur_complement(fim, 2)
    assert len(calls) == 2  # the inertia test of K
    np.testing.assert_array_equal(schur_complement(fim, 2), first)
    assert len(calls) == 2
    assert not fim.border.schur.flags.writeable
    # another FIM of the train factors its own c K once and reads the inertia
    # verdict that K keeps for the train
    other = d.fim_unknown_a(pt, dataclasses.replace(sc, looks_direct=3, sigma_w2=2.0, scale=1.4),
                            structure=True)
    assert len(calls) == 3 and other.border.gram is fim.border.gram
    schur_complement(other, 2)
    eliminated_pair(other, separate=True)
    assert len(calls) == 3


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("with_a", (False, True))
def test_every_builder_keeps_k_as_a_gram_band(kind, with_a):
    # one K type: the unit band for raw samples, [[E_g]] for a contained
    # train, the train's Gram band past containment
    fim = build_fim(kind, with_a, 2, 1, 1.3, 0.5, seed=5)
    gram = fim.border.gram
    assert isinstance(gram, GramBand)
    if kind == "samples":
        assert gram is UNIT_GRAM
    else:
        pt, _ = build_source(kind, 2, 1, 1.3, 0.5, seed=5)
        expected = (1, 1) if kind == "contained" else (2, pt.n_pulses)
        assert gram.band.shape == expected


def test_unit_gram_verdict_taken_once_per_process(monkeypatch):
    # the raw samples' K = I is one band for every signal: its shifted
    # Cholesky runs once, not once per eliminated FIM
    monkeypatch.delitem(vars(UNIT_GRAM), "singular", raising=False)
    calls = _counted_choleskies(monkeypatch)
    for seed in range(4):
        source, sc = build_source("samples", 1 + seed, 1, 1.0, 0.5, seed)
        assert not eliminated_pair(d.fim_unknown_signal(source, sc)).singular
    assert len(calls) == 1
    assert not eliminated_pair(d.fim_unknown_a(source, sc)).singular
    assert len(calls) == 1 and vars(UNIT_GRAM)["singular"] is False


def test_contained_train_verdict_kept_with_its_basis(monkeypatch):
    # a second FIM of the same contained train and delay reads the verdict
    # its kept [[E_g]] holds: no inertia Cholesky runs
    pt, sc = build_source("contained", 2, 1, 1.0, 0.5, seed=4)
    eliminated_pair(d.fim_known_structure(pt, sc))
    calls = _counted_choleskies(monkeypatch)
    other = dataclasses.replace(sc, looks_direct=3, sigma_w2=2.0, scale=1.4)
    eliminated_pair(d.fim_known_structure(pt, other))
    eliminated_pair(d.fim_unknown_a(pt, other, structure=True), separate=True)
    assert calls == []


def test_contained_train_keeps_one_gram_and_verdict_for_all_delays(monkeypatch):
    # K = E_g I and the containment verdict depend on the train alone: over
    # three delays each is computed once, and the inertia Cholesky runs once
    misses = []
    for fn in (structure._pulse_gram, structure.support_assumption_holds):
        monkeypatch.setattr(fn, "__wrapped__",
                            lambda pt, _fresh=fn.__wrapped__: misses.append(_fresh) or _fresh(pt))
    calls = _counted_choleskies(monkeypatch)
    pt, sc = build_source("contained", 2, 1, 1.0, 0.5, seed=4)
    fims = [build(pt, dataclasses.replace(sc, tau0=tau0))
            for tau0 in (0.0, 0.5, 1.75) for build in (
                d.fim_known_structure, lambda pt, sc: d.fim_unknown_a(pt, sc, structure=True))]
    for fim in fims:
        eliminated_pair(fim)
        assert fim.border.gram is fims[0].border.gram
    assert fims[0].border.gram.band.shape == (1, 1)
    assert sorted(f.__name__ for f in misses) == ["_pulse_gram", "support_assumption_holds"]
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ("contained", "truncated"))
def test_pulse_basis_built_once_per_train_and_delay(kind, monkeypatch):
    built = []
    fresh = structure.pulse_basis.__wrapped__
    monkeypatch.setattr(structure.pulse_basis, "__wrapped__",
                        lambda pt, tau0: built.append(tau0) or fresh(pt, tau0))
    pt, _ = build_source(kind, 1, 1, 1.0, 1.0, seed=2)
    fims = {}
    for tau0 in (0.5, 1.25):
        for l, p, a, sigma_w2 in ((0, 1, 1.0, 1.0), (2, 3, 0.5, 0.2), (5, 1, 2.0, 3.0)):
            sc = d.Scenario(tau0=tau0, f0=0.7, looks_direct=l, looks_reflected=p,
                            sigma_w2=sigma_w2, scale=a)
            fims.setdefault(tau0, []).extend(
                [d.fim_known_structure(pt, sc), d.fim_unknown_a(pt, sc, structure=True)])
    assert built == [0.5, 1.25]
    basis = {tau0: structure.pulse_basis(pt, tau0) for tau0 in fims}
    assert len(built) == 2
    # every FIM of a delay holds that delay's kept basis, and K is one per train
    for tau0, group in fims.items():
        assert {id(f.border.gram) for f in group} == {id(basis[tau0][0][4])}
        assert {f.meta["blocks"] for f in group} == {basis[tau0][1]}
        assert basis[tau0][1] == ("simplified" if kind == "contained" else "general")
    assert basis[0.5][0][4] is basis[1.25][0][4] is structure._pulse_gram(pt)


def _pair_bytes(pair):
    return tuple(float.hex(v) for v in pair), pair.singular, pair.note, pair.method


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("contained", "truncated")), with_a=st.booleans(),
       l=st.integers(0, 4), p=st.integers(1, 4), a=st.floats(0.25, 4.0),
       sigma_w2=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 31 - 1))
def test_kept_basis_gives_the_fresh_basis_fim_bytewise(kind, with_a, l, p, a, sigma_w2, seed):
    """A FIM built from the kept basis and K, after other FIMs of the train have
    filled them, against one built from a basis and a K computed afresh."""
    pt, sc = build_source(kind, l, p, a, sigma_w2, seed)
    warm = dataclasses.replace(sc, looks_direct=l + 1, looks_reflected=p + 1, sigma_w2=1.0,
                               scale=1.0)
    eliminated_pair(d.fim_known_structure(pt, warm))
    fim = d.fim_unknown_a(pt, sc, structure=True) if with_a else d.fim_known_structure(pt, sc)
    basis, form = structure.pulse_basis.__wrapped__(pt, sc.tau0)
    basis = basis[:4] + (structure._pulse_gram.__wrapped__(pt),)
    assert basis[4] is not fim.border.gram
    fresh = d.bounds.bordered_fim(d.synthesize_pulse_train(pt), sc,
                                  structure.structure_labels(pt.n_pulses), basis,
                                  {"blocks": form}, scale_known=not with_a)
    kept, new = fim.border, fresh.border
    assert fim.labels == fresh.labels and fim.meta == fresh.meta
    for block in ("a", "b"):
        assert getattr(kept, block).tobytes() == getattr(new, block).tobytes()
    assert float.hex(kept.c) == float.hex(new.c)
    assert kept.gram.band.shape == ((2, pt.n_pulses) if form == "general" else (1, 1))
    assert kept.gram.band.tobytes() == new.gram.band.tobytes()
    assert (kept.gram.norm1, kept.gram.singular) == (new.gram.norm1, new.gram.singular)
    assert kept.schur.tobytes() == new.schur.tobytes()
    for separate in (False, True):
        assert _pair_bytes(eliminated_pair(fim, separate)) == \
            _pair_bytes(eliminated_pair(fresh, separate))


@settings(max_examples=120)
@given(kind=st.sampled_from(("samples", "contained")), l=st.integers(1, 6),
       p=st.integers(1, 6), a=st.floats(0.25, 4.0), sigma_w2=st.floats(0.1, 3.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_known_scale_closed_forms_match_elimination(kind, l, p, a, sigma_w2, seed):
    """The pairs behind jcrb_{}_s, jcrb_{}_b and jcrb_unknown_a_structure
    against eliminated_pair of their bordered FIMs. Truncated trains are left
    out: the structured closed forms do not hold there (ROADMAP item 1)."""
    source, sc = build_source(kind, l, p, a, sigma_w2, seed)
    sig = source if kind == "samples" else d.synthesize_pulse_train(source)
    cases = [(d.jcrb_unknown(sig, sc), d.fim_unknown_signal(sig, sc))]
    if kind == "contained":
        cases += [(d.jcrb_structure_known_a(source, sc), d.fim_known_structure(source, sc)),
                  (d.jcrb_unknown_a_structure(source, sc)[0],
                   d.fim_unknown_a(source, sc, structure=True))]
    for closed, fim in cases:
        numeric = eliminated_pair(fim)
        assert closed.singular == numeric.singular
        if not closed.singular:
            assert numeric.tau0 == pytest.approx(closed.tau0, rel=1e-9)
            assert numeric.f0 == pytest.approx(closed.f0, rel=1e-9)


@settings(max_examples=60)
@given(l=st.integers(1, 6), p=st.integers(1, 6), a=st.floats(0.25, 4.0),
       sigma_w2=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 31 - 1))
def test_truncated_train_bounds_are_eliminated(l, p, a, sigma_w2, seed):
    """Past the support assumption the pulse-form bounds are numeric: the
    unknown-scale pair against dense elimination (the separate pair against
    eliminating tau0 or f0 alone), the known-signal pair against the sample
    form of the synthesized train."""
    pt, sc = build_source("truncated", l, p, a, sigma_w2, seed)
    assert not d.support_assumption_holds(pt)
    fim = d.fim_unknown_a(pt, sc, structure=True)
    dense = FimMatrix(fim.entries, fim.labels)
    joint, separate = d.jcrb_unknown_a_structure(pt, sc)
    assert joint.method == separate.method == METHOD_SCHUR_NUMERIC
    expected = eliminated_pair(dense)
    assert joint.singular == separate.singular == expected.singular
    if not expected.singular:
        assert joint.tau0 == pytest.approx(expected.tau0, rel=1e-9)
        assert joint.f0 == pytest.approx(expected.f0, rel=1e-9)
        for coord, other in (("tau0", "f0"), ("f0", "tau0")):
            info = schur_complement(dense.drop(other), keep=1)[0, 0]
            assert getattr(separate, coord) == pytest.approx(1.0 / info, rel=1e-9)
    known = d.jcrb_known_signal_pulse(pt, sc)
    inverse = np.linalg.inv(d.fim_known_signal(d.synthesize_pulse_train(pt), sc).entries)
    assert known.tau0 == pytest.approx(inverse[0, 0], rel=1e-9)
    assert known.f0 == pytest.approx(inverse[1, 1], rel=1e-9)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", (0.25, 1.0, 4.0))
def test_known_scale_fim_is_the_unknown_a_fim_without_a(kind, a):
    known, unknown = (build_fim(kind, with_a, 2, 3, a, 0.7, seed=11) for with_a in (False, True))
    dropped = unknown.drop("a")
    assert known.labels == dropped.labels
    np.testing.assert_array_equal(known.entries, dropped.entries)
