"""Bounds when the reflected path carries an amplitude scale factor a.

A known scale changes the look-count factor to (L + a^2 P)/(L P) around
a-rescaled single-look baselines. When the scale itself must be estimated,
the parameter vector grows by one; remarkably the joint bounds and the
separate Doppler bound keep their known-scale closed forms, the separate
delay baseline picks up an energy-flow correction (the squared sum of
s_R s_R' + s_I s_I' enters its denominator), and the structured
(pulse-train) bounds take closed forms of their own in which the delay
bound loses its explicit L dependence.
"""

from __future__ import annotations

import numpy as np

from .bounds import (TWO_PI2, eliminated_block, energy_sums, fim_unknown_signal,
                     signal_bound_columns, signal_bounds, weighted_sums)
from .fim import (METHOD_SCHUR_NUMERIC, OVERFLOW_NOTE, SINGULAR_COND, SINGULAR_NOTE, BoundPair,
                  FimMatrix, PairColumns, _eliminate, inverted_blocks)
from .signals import PulseTrain, SampledSignal, Scenario, ScenarioColumns
from .structure import (fim_known_structure, nuisance_projection, pulse_basis,
                        structure_quantities, support_assumption_holds)

ZERO_PULSE_NOTE = "P = 0 or zero pulse: no delay/Doppler information"


def jcrb_scaled_known_a(sig: SampledSignal, sc: Scenario) -> tuple[BoundPair, BoundPair]:
    """(joint, separate) delay/Doppler bounds for unknown signal, known scale.

    Both are (L + a^2 P)/(L P) times the a-rescaled single-look baselines:
    the joint baseline is jcrb_known divided by a^2, the separate one is
    sigma_w2/(2 a^2 sum|s'|^2) and sigma_w2/(8 pi^2 a^2 sum (t+tau0)^2|s|^2).
    """
    return signal_bounds(sig, sc)[1:]


def fim_unknown_a(source: SampledSignal | PulseTrain, sc: Scenario,
                  structure: bool = False) -> FimMatrix:
    """FIM with the scale a prepended to the unknowns, evaluated at sc.scale.

    structure=False: source is a SampledSignal, parameters
    (tau0, f0, a, sR_0, sI_0, ...). structure=True: source is a PulseTrain,
    parameters (tau0, f0, a, b1R, b1I, ...).
    """
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    build = fim_known_structure if structure else fim_unknown_signal
    return build(source, sc, scale_known=False)


def structure_bound_columns(trains: list[PulseTrain], pts: ScenarioColumns,
                            scale_known: bool = True) -> PairColumns:
    """1/V11 and 1/V22 of the eliminated structured block at every row of pts,
    from the pulse sums of each row's train at its delay: trains holds one
    train per row and pts one delay, or one train for every row:

    V11 = (2 a^2 P/s2) sum|b|^2 (sum g'^2 - k rho^2/E_g),
    V22 = (8 pi^2 a^2 P/s2) (sum_q w_q |b_q|^2 - pfrac sum_q gamma_q^2 |b_q|^2/E_g),
    pfrac = a^2 P/(L + a^2 P); k = pfrac for a known scale, 1 for an unknown one.
    Flagged singular for P = 0 or a zero pulse, and when a difference falls
    to its lead / SINGULAR_COND. Python's operations in the scalar form's
    order, so each row is that form's value bit for bit.
    """
    sqs = [(structure_quantities(pt, t), pt.amp_energy) for pt in trains for t in pts.tau0.tolist()]
    rho, e_g, dg2, w_b2, gamma2_b2, amp_energy = np.array(
        [(sq.rho, sq.e_g, sq.dg2, sq.w_b2, sq.gamma2_b2, amp) for sq, amp in sqs]).T
    l, p, s2, a2 = pts.looks_direct, pts.looks_reflected, pts.sigma_w2, pts.scale2
    with np.errstate(all="ignore"):
        pfrac = a2 * p / (l + a2 * p)
        d11 = dg2 - (pfrac if scale_known else 1.0) * (rho * rho) / e_g
        d22 = w_b2 - pfrac * gamma2_b2 / e_g
        v11 = (2.0 * a2 * p / s2) * amp_energy * d11
        v22 = (TWO_PI2 * a2 * p / s2) * d22
        return PairColumns.flagged(
            1.0 / v11, 1.0 / v22,
            ((p == 0) | (e_g <= 0.0), ZERO_PULSE_NOTE),
            ((d11 <= dg2 / SINGULAR_COND) | (d22 <= w_b2 / SINGULAR_COND),
             "degenerate pulse: amplitude block absorbs all delay/Doppler information"))


@np.errstate(all="ignore")  # rows whose sums overflowed or vanished are flagged
def eliminated_structure_columns(trains: list[PulseTrain], pts: ScenarioColumns,
                                 scale_known: bool = True) -> tuple[PairColumns, PairColumns]:
    """(joint, separate) structured bounds at every row of pts by numeric
    elimination, tagged schur_numeric, for trains past containment (any
    train): trains holds one train per row and pts one delay, or one train
    for every row.

    Row i is eliminated_pair of fim_known_structure (fim_unknown_a with
    structure=True when the scale is unknown) at that row, joint and
    separate, and judged by the same rules, without building the FIM: the
    eliminated block is bounds.eliminated_block of the kept
    nuisance_projection, the a row is eliminated by schur_complement's rule,
    and inverted_blocks judges the (tau0, f0) block against the FIM's
    leading diagonal. P = 0 and a zero pulse are flagged first, by
    structure_bound_columns's rule, before any projection is built.
    """
    keys = [(pt, t) for pt in trains for t in pts.tau0.tolist()]
    # one row per key, or per scenario when one key serves every row
    l, p, s2, a = np.broadcast_arrays(pts.looks_direct, pts.looks_reflected, pts.sigma_w2,
                                      pts.scale, np.zeros(len(keys)))[:4]
    row, k = np.arange(len(l)) % len(keys), 2 if scale_known else 3  # each row's key
    no_info = (p == 0) | np.array([not np.sum(pt.g ** 2) > 0.0 for pt, _ in keys])[row]
    # a (train, delay) is projected only for a row that has information
    wanted = np.bincount(row[~no_info], minlength=len(keys)) > 0
    projections = [nuisance_projection(pt, t) if want else None
                   for (pt, t), want in zip(keys, wanted)]
    grams = [None if proj is None else pulse_basis(pt, t)[0][4]
             for (pt, t), proj in zip(keys, projections)]
    no_factor = np.array([proj is None for proj in projections])[row] & ~no_info
    # a key without a projection takes I as a stand-in: its rows are flagged
    a0, w = (np.array([np.eye(3) if proj is None else proj[j]
                       for proj in projections])[row, :k, :k] for j in (0, 1))
    norm1 = np.array([1.0 if g is None else g.norm1 for g in grams])[row]
    singular = np.array([g is not None and g.singular for g in grams])[row]
    a2 = a * a
    c = (2.0 * l + 2.0 * a2 * p) / s2
    red = eliminated_block(a0, w, l, p, s2, a)
    outer = c * norm1
    finite = np.isfinite(outer) & np.isfinite(red).all(axis=(1, 2))
    # a goes first, as schur_complement eliminates it; a row that is not finite takes I
    red, c_singular = _eliminate(np.where(finite[:, None, None], red, np.eye(k)), 2, outer)
    # the FIM's leading diagonal, as bordered_fim forms A
    diag = a2[:, None] * (np.diagonal(a0, axis1=1, axis2=2)[:, :2] / s2[:, None]) * p[:, None]
    inv, inv_singular = inverted_blocks(red, diag)
    values = (np.diagonal(inv, axis1=1, axis2=2), 1.0 / np.diagonal(red, axis1=1, axis2=2))
    # c = 0 (L = 0 and a^2 underflowed): C is not positive definite
    conditions = ((no_info, ZERO_PULSE_NOTE), (no_factor | ~(c > 0.0), SINGULAR_NOTE),
                  (~finite, OVERFLOW_NOTE), (singular | c_singular | inv_singular, SINGULAR_NOTE))
    return tuple(PairColumns.flagged(v[:, 0], v[:, 1], *conditions, method=METHOD_SCHUR_NUMERIC)
                 for v in values)


def jcrb_structure_known_a(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Structured joint bounds (known pulse shape, unknown amplitudes) with a
    known reflected-path scale.

    The eliminated delay/Doppler block is diagonal under the containment
    assumption, with amplitude weight a^2 P/(L + a^2 P) and an overall a^2;
    a = 1 gives the unscaled structured bounds, weight P/(L+P). Joint equals
    separate. Flagged singular for P = 0 and when the amplitude block
    absorbs all information (pulse proportional to its derivative). Past
    containment the joint pair of eliminated_structure_columns, tagged
    schur_numeric.
    """
    pts = ScenarioColumns.of(sc)
    if support_assumption_holds(pt):
        return structure_bound_columns([pt], pts).pair()
    return eliminated_structure_columns([pt], pts)[0].pair()


def jcrb_unknown_a_structure(pt: PulseTrain, sc: Scenario) -> tuple[BoundPair, BoundPair]:
    """(joint, separate) structured bounds when the scale a is also unknown.

    tau0: the known-a form at weight 1, sigma_w2 E_g / (2 a^2 P sum|b|^2
    (E_g sum g'^2 - rho^2)), which no longer depends on L; f0: the known-a
    form. The delay/Doppler block of the eliminated FIM stays diagonal, so
    separate equals joint for both coordinates. These forms need the pulse
    contained in its period; otherwise joint is eliminated_pair of
    fim_unknown_a(pt, sc, structure=True) and separate the reciprocal
    diagonal of the same eliminated block (eliminated_structure_columns),
    both tagged schur_numeric.
    """
    if sc.looks_direct == 0 or sc.looks_reflected == 0:
        sing = BoundPair.singular_pair(
            "L = 0 or P = 0: scale and amplitudes are not jointly identifiable")
        return sing, sing
    pts = ScenarioColumns.of(sc)
    if support_assumption_holds(pt):
        joint = structure_bound_columns([pt], pts, scale_known=False).pair()
        return joint, joint
    return tuple(col.pair() for col in eliminated_structure_columns([pt], pts, scale_known=False))


def crb_separate_unknown_a(sig: SampledSignal, sc: Scenario) -> BoundPair:
    """Separate bounds with the signal unknown when the scale a is estimated too.

    tau0: crb_separate_unknown's times the energy-flow correction
    sum|s'|^2 sum|s|^2 / (sum|s'|^2 sum|s|^2 - (sum s_R s_R' + s_I s_I')^2),
    i.e. (L + a^2 P)/(L P) sigma_w2 sum|s|^2 / (2 a^2 (that denominator));
    f0: crb_separate_unknown's, which estimating a leaves unchanged. Flagged
    singular as crb_separate_unknown is (L = 0 or P = 0) and at Schwartz
    equality (signal proportional to its derivative).
    """
    separate = signal_bound_columns([sig], ScenarioColumns.of(sc))[2]
    s_dd, _, _ = weighted_sums(sig, sc.tau0)
    s_e, s_x = energy_sums(sig)
    lead = s_dd * s_e
    den = np.array([lead - s_x * s_x])
    with np.errstate(all="ignore"):
        return PairColumns.flagged(
            separate.tau0 * (lead / den), separate.f0, (separate.notes != "", separate.notes),
            ((den <= lead / SINGULAR_COND) | (s_e <= 0.0),
             "signal proportional to its derivative (Schwartz equality)")).pair()
