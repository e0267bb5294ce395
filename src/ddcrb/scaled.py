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

from .bounds import (DEGENERACY_RTOL, TWO_PI2, energy_sums, fim_unknown_signal,
                     signal_bounds, weighted_sums)
from .fim import Bound, BoundPair, FimMatrix, PairColumns, eliminated_pair
from .signals import PulseTrain, SampledSignal, Scenario, ScenarioColumns, squares
from .structure import _shared_quantities, fim_known_structure, support_assumption_holds


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
    to DEGENERACY_RTOL of its lead. Python's operations in the scalar form's
    order, so each row is that form's value bit for bit.
    """
    sqs = [(_shared_quantities(pt, t), pt.amp_energy) for pt in trains for t in pts.tau0.tolist()]
    rho, e_g, dg2, w_b2, gamma2_b2, amp_energy = np.array(
        [(sq.rho, sq.e_g, sq.dg2, sq.w_b2, sq.gamma2_b2, amp) for sq, amp in sqs]).T
    l, p, s2, a2 = pts.looks_direct, pts.looks_reflected, pts.sigma_w2, pts.scale2
    with np.errstate(all="ignore"):
        pfrac = a2 * p / (l + a2 * p)
        d11 = dg2 - (pfrac if scale_known else 1.0) * squares(rho) / e_g
        d22 = w_b2 - pfrac * gamma2_b2 / e_g
        v11 = (2.0 * a2 * p / s2) * amp_energy * d11
        v22 = (TWO_PI2 * a2 * p / s2) * d22
        return PairColumns.flagged(
            1.0 / v11, 1.0 / v22,
            ((p == 0) | (e_g <= 0.0), "P = 0 or zero pulse: no delay/Doppler information"),
            ((d11 <= DEGENERACY_RTOL * dg2) | (d22 <= DEGENERACY_RTOL * w_b2),
             "degenerate pulse: amplitude block absorbs all delay/Doppler information"))


def _structure_pair(pt: PulseTrain, sc: Scenario, scale_known: bool) -> BoundPair:
    """The one-point case of structure_bound_columns."""
    return structure_bound_columns([pt], ScenarioColumns.of(sc), scale_known).pair()


def jcrb_structure_known_a(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Structured joint bounds (known pulse shape, unknown amplitudes) with a
    known reflected-path scale.

    The eliminated delay/Doppler block is diagonal under the containment
    assumption, with amplitude weight a^2 P/(L + a^2 P) and an overall a^2;
    a = 1 gives the unscaled structured bounds, weight P/(L+P). Joint equals
    separate. Flagged singular for P = 0 and when the amplitude block
    absorbs all information (pulse proportional to its derivative).
    """
    return _structure_pair(pt, sc, scale_known=True)


def jcrb_unknown_a_structure(pt: PulseTrain, sc: Scenario) -> tuple[BoundPair, BoundPair]:
    """(joint, separate) structured bounds when the scale a is also unknown.

    tau0: the known-a form at weight 1, sigma_w2 E_g / (2 a^2 P sum|b|^2
    (E_g sum g'^2 - rho^2)), which no longer depends on L; f0: the known-a
    form. The delay/Doppler block of the eliminated FIM stays diagonal, so
    separate equals joint for both coordinates. These forms need the pulse
    contained in its period; otherwise joint is eliminated_pair of
    fim_unknown_a(pt, sc, structure=True) and separate the reciprocal
    diagonal of the same eliminated block, both tagged schur_numeric.
    """
    if sc.looks_direct == 0 or sc.looks_reflected == 0:
        sing = BoundPair.singular_pair(
            "L = 0 or P = 0: scale and amplitudes are not jointly identifiable")
        return sing, sing
    if support_assumption_holds(pt):
        joint = _structure_pair(pt, sc, scale_known=False)
        return joint, joint
    fim = fim_unknown_a(pt, sc, structure=True)
    return eliminated_pair(fim), eliminated_pair(fim, separate=True)


def crb_separate_unknown_a(sig: SampledSignal, sc: Scenario) -> Bound:
    """Single-look delay bound baseline with signal, f0-free, a unknown.

    sigma_w2 sum|s|^2 / (2 a^2 (sum|s'|^2 sum|s|^2 - (sum s_R s_R'+s_I s_I')^2)).
    Multiply by (L + a^2 P)/(L P) for the multi-look bound. Flagged singular
    at Schwartz equality (signal proportional to its derivative).
    """
    s_dd, _, _ = weighted_sums(sig, sc.tau0)
    s_e, s_x = energy_sums(sig)
    den = s_dd * s_e - s_x ** 2
    if den <= DEGENERACY_RTOL * s_dd * s_e or s_e <= 0.0:
        return Bound.singular_bound("signal proportional to its derivative (Schwartz equality)")
    return Bound(value=sc.sigma_w2 * s_e / (2.0 * sc.scale ** 2 * den))
