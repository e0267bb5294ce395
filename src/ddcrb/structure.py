"""Bounds when the signal is a pulse train with unknown complex amplitudes.

Estimating Q pulse amplitudes instead of M raw samples shrinks the nuisance
block from 2M to 2Q parameters. When each pulse is contained in its own
period the information matrix simplifies to closed forms driven by three
pulse-shape quantities (rho, gamma_q, E_g), the delay/Doppler block of the
eliminated FIM becomes exactly diagonal, and the joint bounds drop strictly
below the totally-unknown-signal bounds whenever the pulse shape is not a
scalar multiple of its own derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import TWO_PI2, bordered_fim, fim_known_signal
from .fim import BoundPair, FimMatrix
from .signals import PulseTrain, Scenario, synthesize_pulse_train

SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class StructureQuantities:
    """Pulse-shape sums driving the known-structure information matrix.

    rho    = sum_n g'(n*delta) g(n*delta)                (n = 0..n_p)
    gamma  = gamma_q = sum_n (n*delta + tau0 + (q-1)*t_p) g(n*delta)^2
    e_g    = sum_n g(n*delta)^2
    h, u, v = couplings of the synthesized signal (derivative / time-weighted
             / itself) against each shifted pulse copy
    c      = Gram matrix of the shifted pulse copies
    """

    rho: float
    gamma: np.ndarray
    e_g: float
    h: np.ndarray
    u: np.ndarray
    v: np.ndarray
    c: np.ndarray


def shifted_pulse_matrix(pt: PulseTrain) -> np.ndarray:
    """Rows hold g(n*delta - (q-1)*t_p) on the synthesized M-sample grid."""
    m = pt.m
    mat = np.zeros((pt.n_pulses, m))
    for q in range(pt.n_pulses):
        start = q * pt.n_p
        stop = min(start + pt.n_p + 1, m)
        mat[q, start:stop] = pt.g[: stop - start]
    return mat


def pulse_moment2(pt: PulseTrain, tau0: float) -> np.ndarray:
    """Per-pulse second time moments sum_n (n*delta+tau0+(q-1)*t_p)^2 g^2."""
    t = np.arange(pt.n_p + 1) * pt.delta
    g2 = pt.g ** 2
    return np.array([float(np.sum((t + tau0 + q * pt.t_p) ** 2 * g2))
                     for q in range(pt.n_pulses)])


def structure_quantities(pt: PulseTrain, tau0: float) -> StructureQuantities:
    """All pulse-shape sums, exact for arbitrary pulse overlap."""
    t = np.arange(pt.n_p + 1) * pt.delta
    g2 = pt.g ** 2
    rho = float(np.sum(pt.g_deriv * pt.g))
    e_g = float(np.sum(g2))
    gamma = np.array([float(np.sum((t + tau0 + q * pt.t_p) * g2))
                      for q in range(pt.n_pulses)])
    sig = synthesize_pulse_train(pt)
    shifted = shifted_pulse_matrix(pt)
    w = sig.times + tau0
    h = shifted @ sig.deriv
    u = shifted @ (w * sig.samples)
    c = shifted @ shifted.T
    return StructureQuantities(rho=rho, gamma=gamma, e_g=e_g, h=h, u=u,
                               v=shifted @ sig.samples, c=c)


def support_assumption_holds(pt: PulseTrain, rtol: float = SUPPORT_RTOL) -> bool:
    """Whether the pulse is effectively contained in one period.

    The simplified (rho, gamma, E_g) forms are exact only when the pulse
    boundary samples and their derivatives are negligible, so that adjacent
    pulses do not interact and the per-pulse sums match the synthesized
    signal. Every error term carries at least one factor from the right
    boundary of the pulse.
    """
    e_g = float(np.sum(pt.g ** 2))
    if e_g <= 0.0:
        return False
    left = max(abs(pt.g[0]), pt.delta * abs(pt.g_deriv[0]))
    right = max(abs(pt.g[-1]), pt.delta * abs(pt.g_deriv[-1]))
    return right * max(left, right) <= rtol * e_g


def structure_labels(n_pulses: int) -> tuple[str, ...]:
    labels = ["tau0", "f0"]
    for q in range(1, n_pulses + 1):
        labels += [f"b{q}R", f"b{q}I"]
    return tuple(labels)


def pulse_basis(pt: PulseTrain, tau0: float) -> tuple[tuple, dict]:
    """Pulse-amplitude basis and meta for bordered_fim: the simplified
    (rho, gamma, E_g) forms with K = E_g I for a pulse contained in its
    period, else the exact (h, u, v) couplings and Gram matrix."""
    sq, b = structure_quantities(pt, tau0), pt.b
    if support_assumption_holds(pt):
        return (sq.rho * b, 1.0, sq.gamma * b, sq.e_g * b, sq.e_g), {"blocks": "simplified"}
    return (sq.h, 1.0, sq.u, sq.v, sq.c), {"blocks": "general"}


def fim_known_structure(pt: PulseTrain, sc: Scenario) -> FimMatrix:
    """(2+2Q) FIM for (tau0, f0, b_1R, b_1I, ..., b_QR, b_QI).

    The delay/Doppler block is the known-signal FIM of the synthesized
    train scaled by P; the amplitude couplings come from pulse_basis and
    meta records its block form.
    """
    if sc.scale != 1.0:
        raise ValueError("reflected-path scale must be 1 here; see ddcrb.scaled")
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    sig = synthesize_pulse_train(pt)
    return bordered_fim(fim_known_signal(sig, sc), sig, sc, structure_labels(pt.n_pulses),
                        *pulse_basis(pt, sc.tau0))


def _v_terms(pt: PulseTrain, sc: Scenario):
    """Leading terms and amplitude-elimination corrections of V11/V22."""
    if sc.scale != 1.0:
        raise ValueError("reflected-path scale must be 1 here; see ddcrb.scaled")
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    p, l = sc.looks_reflected, sc.looks_direct
    s2 = sc.sigma_w2
    sq = structure_quantities(pt, sc.tau0)
    sum_b2 = pt.amp_energy
    sum_dg2 = float(np.sum(pt.g_deriv ** 2))
    w_q = pulse_moment2(pt, sc.tau0)
    b2 = np.abs(pt.b) ** 2
    pfrac = p / (l + p)
    lead11 = (2.0 * p / s2) * sum_b2 * sum_dg2
    corr11 = (2.0 * p / s2) * pfrac * sq.rho ** 2 / sq.e_g * sum_b2
    lead22 = (TWO_PI2 * p / s2) * float(np.sum(w_q * b2))
    corr22 = (TWO_PI2 * p / s2) * pfrac * float(np.sum(sq.gamma ** 2 * b2)) / sq.e_g
    return lead11, corr11, lead22, corr22


def v_matrix(pt: PulseTrain, sc: Scenario) -> np.ndarray:
    """Closed-form delay/Doppler block after eliminating the amplitudes.

    V11 = (2P/s2) (sum|b|^2 sum g'^2 - P/(L+P) rho^2/E_g sum|b|^2),
    V22 = (8 pi^2 P/s2) (sum_q w_q |b_q|^2 - P/(L+P) sum gamma_q^2 |b_q|^2 / E_g),
    V12 = V21 = 0 under the pulse-containment assumption.
    """
    lead11, corr11, lead22, corr22 = _v_terms(pt, sc)
    return np.array([[lead11 - corr11, 0.0], [0.0, lead22 - corr22]])


def jcrb_known_structure(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Joint delay/Doppler bounds with known pulse shape, unknown amplitudes.

    Because the eliminated block V is diagonal, the separate-estimation
    bounds coincide with these joint ones. Flagged singular when V collapses
    (Schwartz equality: pulse proportional to its derivative).
    """
    lead11, corr11, lead22, corr22 = _v_terms(pt, sc)
    v11 = lead11 - corr11
    v22 = lead22 - corr22
    if v11 <= 1e-12 * lead11 or v22 <= 1e-12 * lead22 or lead11 <= 0.0:
        return BoundPair.singular_pair(
            "degenerate pulse: amplitude block absorbs all delay/Doppler information")
    return BoundPair(tau0=1.0 / v11, f0=1.0 / v22)


def jcrb_known_signal_pulse(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Known-signal joint bounds written in pulse-train form (single look).

    tau0: sigma_w2 / (2 sum|b|^2 sum g'^2);
    f0:   sigma_w2 / (8 pi^2 sum_q w_q |b_q|^2).
    Agrees with the sample-form known-signal bounds whenever the pulse is
    contained in its period.
    """
    sum_b2 = pt.amp_energy
    sum_dg2 = float(np.sum(pt.g_deriv ** 2))
    w_q = pulse_moment2(pt, sc.tau0)
    den_tau = 2.0 * sum_b2 * sum_dg2
    den_f = TWO_PI2 * float(np.sum(w_q * np.abs(pt.b) ** 2))
    if den_tau <= 0.0 or den_f <= 0.0:
        return BoundPair.singular_pair("degenerate pulse: zero information")
    return BoundPair(tau0=sc.sigma_w2 / den_tau, f0=sc.sigma_w2 / den_f)
