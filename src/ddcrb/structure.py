"""Bounds when the signal is a pulse train with unknown complex amplitudes.

Estimating Q pulse amplitudes instead of M raw samples shrinks the nuisance
block from 2M to 2Q parameters. When each pulse is contained in its own
period the information matrix simplifies to closed forms driven by three
pulse-shape quantities (rho, gamma_q, E_g), the delay/Doppler block of the
eliminated FIM becomes exactly diagonal, and the joint bounds drop strictly
below the totally-unknown-signal bounds whenever the pulse shape is not a
scalar multiple of its own derivative. Those bounds are the a = 1 case of
ddcrb.scaled.jcrb_structure_known_a.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import TWO_PI2, bordered_fim, jcrb_known
from .fim import BoundPair, FimMatrix, GramBand, PairColumns
from .signals import PulseTrain, Scenario, memoised, synthesize_pulse_train

SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class StructureQuantities:
    """Pulse-shape sums driving the known-structure closed forms.

    rho   = sum_n g'(n*delta) g(n*delta)                  (n = 0..n_p)
    gamma = gamma_q = sum_n (n*delta + tau0 + (q-1)*t_p) g(n*delta)^2
    e_g   = sum_n g(n*delta)^2
    dg2   = sum_n g'(n*delta)^2
    w     = w_q = sum_n (n*delta + tau0 + (q-1)*t_p)^2 g(n*delta)^2
    w_b2      = sum_q w_q |b_q|^2
    gamma2_b2 = sum_q gamma_q^2 |b_q|^2
    """

    rho: float
    gamma: np.ndarray
    e_g: float
    dg2: float
    w: np.ndarray
    w_b2: float
    gamma2_b2: float


@memoised
@np.errstate(over="ignore", invalid="ignore")  # the bounds flag such sums
def structure_quantities(pt: PulseTrain, tau0: float) -> StructureQuantities:
    """The pulse sums, taken from g, g', the period and b alone (no synthesis),
    once per train and delay and read-only: every point of a sweep over looks
    or scale asks for the same."""
    g2, b2 = pt.g ** 2, np.abs(pt.b) ** 2
    # row q: the pulse's sample times shifted by tau0 + (q-1) t_p
    t = np.arange(pt.n_p + 1) * pt.delta + tau0 + np.arange(pt.n_pulses)[:, None] * pt.t_p
    gamma, w = np.sum(t * g2, axis=1), np.sum(t ** 2 * g2, axis=1)
    gamma.setflags(write=False)
    w.setflags(write=False)
    return StructureQuantities(rho=float(np.sum(pt.g_deriv * pt.g)), gamma=gamma,
                               e_g=float(np.sum(g2)), dg2=float(np.sum(pt.g_deriv ** 2)),
                               w=w, w_b2=float(np.sum(w * b2)),
                               gamma2_b2=float(np.sum(gamma ** 2 * b2)))


@memoised
def support_assumption_holds(pt: PulseTrain) -> bool:
    """Whether the pulse is effectively contained in one period, decided once
    per train.

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
    return bool(right * max(left, right) <= SUPPORT_RTOL * e_g)


@functools.lru_cache
def structure_labels(n_pulses: int) -> tuple[str, ...]:
    return ("tau0", "f0", *(f"b{q}{part}" for q in range(1, n_pulses + 1) for part in "RI"))


@memoised
def _pulse_gram(pt: PulseTrain) -> GramBand:
    """The Gram matrix K of the shifted pulse copies, once per train: every FIM
    of the train reads its norm and inertia verdict. E_g I, the band [[E_g]],
    for a pulse contained in its period; else tridiagonal, kept as its 2 x Q
    lower band (band[0] the diagonal, band[1, q] = K[q + 1, q])."""
    g2 = pt.g ** 2
    if support_assumption_holds(pt):
        return GramBand([[np.sum(g2)]])
    band = np.zeros((2, pt.n_pulses))
    band[0] = np.sum(g2)
    band[0, -1] = np.sum(g2[:-1])  # the last copy loses its final sample
    band[1, :-1] = pt.g[-1] * pt.g[0]  # adjacent copies share one boundary sample
    return GramBand(band)


@memoised
def pulse_basis(pt: PulseTrain, tau0: float) -> tuple[tuple, str]:
    """Pulse-amplitude basis (h, 1.0, u, v, K) for bordered_fim and the name of
    its form, once per train and delay, read-only: the simplified (rho b,
    gamma b, E_g b) for a pulse contained in its period ("simplified"), else
    the exact couplings over the synthesized train ("general"); K is the
    train's _pulse_gram either way."""
    if support_assumption_holds(pt):
        sq, b = structure_quantities(pt, tau0), pt.b
        (h, u, v), form = (sq.rho * b, sq.gamma * b, sq.e_g * b), "simplified"
    else:
        sig = synthesize_pulse_train(pt)
        # pulse q spans samples q n_p .. (q+1) n_p, one window each; the train
        # ends a sample early, so the last window reads a zero pad there
        x = np.zeros((3, sig.m + 1), dtype=complex)
        x[:, :-1] = sig.deriv, (sig.times + tau0) * sig.samples, sig.samples
        (h, u, v), form = sliding_window_view(x, pt.n_p + 1, axis=1)[:, ::pt.n_p] @ pt.g, "general"
    for arr in (h, u, v):
        arr.setflags(write=False)
    return (h, 1.0, u, v, _pulse_gram(pt)), form


def fim_known_structure(pt: PulseTrain, sc: Scenario, scale_known: bool = True) -> FimMatrix:
    """(2+2Q) FIM for (tau0, f0, b_1R, b_1I, ..., b_QR, b_QI) at the scale
    sc.scale; scale_known=False adds a as the third parameter. The
    amplitude couplings come from pulse_basis and meta records its form."""
    if sc.looks_reflected < 1:
        raise ValueError("need at least one reflected-path look")
    basis, form = pulse_basis(pt, sc.tau0)
    return bordered_fim(synthesize_pulse_train(pt), sc, structure_labels(pt.n_pulses), basis,
                        {"blocks": form}, scale_known=scale_known)


def jcrb_known_signal_pulse(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Known-signal joint bounds written in pulse-train form (single look).

    tau0: sigma_w2 / (2 sum|b|^2 sum g'^2);
    f0:   sigma_w2 / (8 pi^2 sum_q w_q |b_q|^2).
    Agrees with the sample-form known-signal bounds whenever the pulse is
    contained in its period, and is that sample form (jcrb_known of the
    synthesized train) otherwise.
    """
    if not support_assumption_holds(pt):
        return jcrb_known(synthesize_pulse_train(pt), sc)
    sq = structure_quantities(pt, sc.tau0)
    den_tau, den_f = np.array([[2.0 * pt.amp_energy * sq.dg2], [TWO_PI2 * sq.w_b2]])
    with np.errstate(divide="ignore"):
        return PairColumns.flagged(sc.sigma_w2 / den_tau, sc.sigma_w2 / den_f,
                                   ((den_tau <= 0.0) | (den_f <= 0.0),
                                    "degenerate pulse: zero information")).pair()
