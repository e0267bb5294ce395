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

from .bounds import (TWO_PI2, bordered_fim, jcrb_known, unknown_signal_labels,
                     weighted_sums)
from .fim import Bound, BoundPair, FimMatrix
from .signals import PulseTrain, SampledSignal, Scenario, synthesize_pulse_train
from .structure import (pulse_basis, pulse_moment2, structure_labels,
                        structure_quantities)


def scale_look_factor(sc: Scenario) -> float | None:
    """(L + a^2 P)/(L P), or None when either look count is zero."""
    l, p = sc.looks_direct, sc.looks_reflected
    if l == 0 or p == 0:
        return None
    return (l + sc.scale ** 2 * p) / (l * p)


def energy_sums(sig: SampledSignal) -> tuple[float, float]:
    """(sum |s|^2, sum (s_R s_R' + s_I s_I')) over the sample grid."""
    s, d = sig.samples, sig.deriv
    s_e = float(np.sum(np.abs(s) ** 2))
    s_x = float(np.sum(s.real * d.real + s.imag * d.imag))
    return s_e, s_x


def fim_known_signal_scale(sig: SampledSignal, sc: Scenario) -> FimMatrix:
    """3x3 single-look FIM for (tau0, f0, a) with the signal known."""
    a = sc.scale
    s2 = sc.sigma_w2
    s_dd, s_ww, e = weighted_sums(sig, sc.tau0)
    s_e, s_x = energy_sums(sig)
    entries = np.array([
        [2.0 * a * a * s_dd / s2, 4.0 * np.pi * a * a * e / s2, -2.0 * a * s_x / s2],
        [4.0 * np.pi * a * a * e / s2, TWO_PI2 * a * a * s_ww / s2, 0.0],
        [-2.0 * a * s_x / s2, 0.0, 2.0 * s_e / s2],
    ])
    return FimMatrix(entries, ("tau0", "f0", "a"))


def jcrb_scaled_known_a(sig: SampledSignal, sc: Scenario) -> tuple[BoundPair, BoundPair]:
    """(joint, separate) delay/Doppler bounds for unknown signal, known scale.

    Both are (L + a^2 P)/(L P) times the a-rescaled single-look baselines:
    the joint baseline is jcrb_known divided by a^2, the separate one is
    sigma_w2/(2 a^2 sum|s'|^2) and sigma_w2/(8 pi^2 a^2 sum (t+tau0)^2|s|^2).
    """
    factor = scale_look_factor(sc)
    if factor is None:
        sing = BoundPair.singular_pair("L = 0 or P = 0: no unbiased estimator")
        return sing, sing
    a2 = sc.scale ** 2
    joint = jcrb_known(sig, sc).scaled(factor / a2)
    s_dd, s_ww, _ = weighted_sums(sig, sc.tau0)
    if s_dd <= 0.0 or s_ww <= 0.0:
        sep = BoundPair.singular_pair("degenerate signal: zero information")
    else:
        sep = BoundPair(tau0=factor * sc.sigma_w2 / (2.0 * a2 * s_dd),
                        f0=factor * sc.sigma_w2 / (TWO_PI2 * a2 * s_ww))
    return joint, sep


def fim_unknown_a(source: SampledSignal | PulseTrain, sc: Scenario,
                  structure: bool = False) -> FimMatrix:
    """FIM with the scale a prepended to the unknowns, evaluated at sc.scale.

    structure=False: source is a SampledSignal, parameters
    (tau0, f0, a, sR_0, sI_0, ...). structure=True: source is a PulseTrain,
    parameters (tau0, f0, a, b1R, b1I, ...).
    """
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    if not structure:
        return bordered_fim(fim_known_signal_scale(source, sc), source, sc,
                            unknown_signal_labels(source.m))
    sig = synthesize_pulse_train(source)
    return bordered_fim(fim_known_signal_scale(sig, sc), sig, sc,
                        structure_labels(source.n_pulses), *pulse_basis(source, sc.tau0))


def jcrb_structure_known_a(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Structured joint bounds with a known reflected-path scale.

    The eliminated delay/Doppler block keeps its diagonal form with
    P/(L+P) replaced by a^2 P/(L + a^2 P) and an overall a^2; reduces to the
    unscaled structured bounds at a = 1. Joint equals separate here too.
    """
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    p, l = sc.looks_reflected, sc.looks_direct
    a2 = sc.scale ** 2
    s2 = sc.sigma_w2
    sq = structure_quantities(pt, sc.tau0)
    sum_b2 = pt.amp_energy
    sum_dg2 = float(np.sum(pt.g_deriv ** 2))
    b2 = np.abs(pt.b) ** 2
    w_q = pulse_moment2(pt, sc.tau0)
    pfrac = a2 * p / (l + a2 * p)
    v11 = (2.0 * a2 * p / s2) * sum_b2 * (sum_dg2 - pfrac * sq.rho ** 2 / sq.e_g)
    v22 = (TWO_PI2 * a2 * p / s2) * (float(np.sum(w_q * b2))
                                     - pfrac * float(np.sum(sq.gamma ** 2 * b2)) / sq.e_g)
    if v11 <= 0.0 or v22 <= 0.0:
        return BoundPair.singular_pair("degenerate pulse: amplitude block absorbs all information")
    return BoundPair(tau0=1.0 / v11, f0=1.0 / v22)


def jcrb_unknown_a_structure(pt: PulseTrain, sc: Scenario) -> tuple[BoundPair, BoundPair]:
    """(joint, separate) structured bounds when the scale a is also unknown.

    tau0: sigma_w2 E_g / (2 a^2 P sum|b|^2 (E_g sum g'^2 - rho^2));
    f0:   sigma_w2/(8 pi^2 a^2 P) over the gamma-corrected second moment with
    the a^2 P/(L + a^2 P) weight. The delay/Doppler block of the eliminated
    FIM stays diagonal, so separate equals joint for both coordinates.
    """
    l, p = sc.looks_direct, sc.looks_reflected
    if l == 0 or p == 0:
        sing = BoundPair.singular_pair(
            "L = 0 or P = 0: scale and amplitudes are not jointly identifiable")
        return sing, sing
    a2 = sc.scale ** 2
    s2 = sc.sigma_w2
    sq = structure_quantities(pt, sc.tau0)
    sum_b2 = pt.amp_energy
    sum_dg2 = float(np.sum(pt.g_deriv ** 2))
    b2 = np.abs(pt.b) ** 2
    w_q = pulse_moment2(pt, sc.tau0)
    schwartz = sq.e_g * sum_dg2 - sq.rho ** 2
    if schwartz <= 1e-12 * sq.e_g * sum_dg2 or sum_dg2 <= 0.0:
        sing = BoundPair.singular_pair("pulse proportional to its derivative (Schwartz equality)")
        return sing, sing
    tau = s2 * sq.e_g / (2.0 * a2 * p * sum_b2 * schwartz)
    den_f = (float(np.sum(w_q * b2))
             - a2 * p / (l + a2 * p) * float(np.sum(sq.gamma ** 2 * b2)) / sq.e_g)
    if den_f <= 0.0:
        sing = BoundPair.singular_pair("degenerate pulse second moment")
        return sing, sing
    f = s2 / (TWO_PI2 * a2 * p * den_f)
    joint = BoundPair(tau0=tau, f0=f)
    return joint, joint


def crb_separate_unknown_a(sig: SampledSignal, sc: Scenario) -> Bound:
    """Single-look delay bound baseline with signal, f0-free, a unknown.

    sigma_w2 sum|s|^2 / (2 a^2 (sum|s'|^2 sum|s|^2 - (sum s_R s_R'+s_I s_I')^2)).
    Multiply by (L + a^2 P)/(L P) for the multi-look bound. Flagged singular
    at Schwartz equality (signal proportional to its derivative).
    """
    s_dd, _, _ = weighted_sums(sig, sc.tau0)
    s_e, s_x = energy_sums(sig)
    den = s_dd * s_e - s_x ** 2
    if den <= 1e-12 * s_dd * s_e or s_e <= 0.0:
        return Bound.singular_bound("signal proportional to its derivative (Schwartz equality)")
    return Bound(value=sc.sigma_w2 * s_e / (2.0 * sc.scale ** 2 * den))
