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

from .bounds import TWO_PI2, bordered_fim, fim_known_signal
from .fim import BoundPair, FimMatrix
from .signals import PulseTrain, SampledSignal, Scenario, memoised, synthesize_pulse_train

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


def structure_quantities(pt: PulseTrain, tau0: float) -> StructureQuantities:
    """The pulse sums, taken from g, g', the period and b alone (no synthesis)."""
    g2, b2 = pt.g ** 2, np.abs(pt.b) ** 2
    # row q: the pulse's sample times shifted by tau0 + (q-1) t_p
    t = np.arange(pt.n_p + 1) * pt.delta + tau0 + np.arange(pt.n_pulses)[:, None] * pt.t_p
    gamma, w = np.sum(t * g2, axis=1), np.sum(t ** 2 * g2, axis=1)
    return StructureQuantities(rho=float(np.sum(pt.g_deriv * pt.g)), gamma=gamma,
                               e_g=float(np.sum(g2)), dg2=float(np.sum(pt.g_deriv ** 2)),
                               w=w, w_b2=float(np.sum(w * b2)),
                               gamma2_b2=float(np.sum(gamma ** 2 * b2)))


@memoised
def _shared_quantities(pt: PulseTrain, tau0: float) -> StructureQuantities:
    """structure_quantities(pt, tau0), computed once per train and delay and
    read-only: every point of a sweep over looks or scale asks for the same."""
    sq = structure_quantities(pt, tau0)
    sq.gamma.setflags(write=False)
    sq.w.setflags(write=False)
    return sq


def support_assumption_holds(pt: PulseTrain) -> bool:
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
    return right * max(left, right) <= SUPPORT_RTOL * e_g


@functools.lru_cache
def structure_labels(n_pulses: int) -> tuple[str, ...]:
    labels = ["tau0", "f0"]
    for q in range(1, n_pulses + 1):
        labels += [f"b{q}R", f"b{q}I"]
    return tuple(labels)


def pulse_basis(pt: PulseTrain, sig: SampledSignal, tau0: float) -> tuple[tuple, dict]:
    """Pulse-amplitude basis and meta for bordered_fim over the synthesized
    train sig: the simplified (rho, gamma, E_g) forms with K = E_g I for a
    pulse contained in its period, else the exact (h, u, v) couplings and
    the tridiagonal Gram matrix K of the shifted pulse copies, kept as its
    2 x Q lower band (gram[0] the diagonal, gram[1, q] = K[q + 1, q])."""
    if support_assumption_holds(pt):
        sq, b = _shared_quantities(pt, tau0), pt.b
        return (sq.rho * b, 1.0, sq.gamma * b, sq.e_g * b, sq.e_g), {"blocks": "simplified"}
    # pulse q spans samples q n_p .. (q+1) n_p, one window each; the train
    # ends a sample early, so the last window reads a zero pad there
    x = np.pad([sig.deriv, (sig.times + tau0) * sig.samples, sig.samples], ((0, 0), (0, 1)))
    h, u, v = sliding_window_view(x, pt.n_p + 1, axis=1)[:, ::pt.n_p] @ pt.g
    g2 = pt.g ** 2
    gram = np.zeros((2, pt.n_pulses))  # K's diagonal, then its subdiagonal
    gram[0] = np.sum(g2)
    gram[0, -1] = np.sum(g2[:-1])  # the last copy loses its final sample
    gram[1, :-1] = pt.g[-1] * pt.g[0]  # adjacent copies share one boundary sample
    return (h, 1.0, u, v, gram), {"blocks": "general"}


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
                        *pulse_basis(pt, sig, sc.tau0))


def jcrb_known_signal_pulse(pt: PulseTrain, sc: Scenario) -> BoundPair:
    """Known-signal joint bounds written in pulse-train form (single look).

    tau0: sigma_w2 / (2 sum|b|^2 sum g'^2);
    f0:   sigma_w2 / (8 pi^2 sum_q w_q |b_q|^2).
    Agrees with the sample-form known-signal bounds whenever the pulse is
    contained in its period.
    """
    sq = _shared_quantities(pt, sc.tau0)
    den_tau = 2.0 * pt.amp_energy * sq.dg2
    den_f = TWO_PI2 * sq.w_b2
    if den_tau <= 0.0 or den_f <= 0.0:
        return BoundPair.singular_pair("degenerate pulse: zero information")
    return BoundPair(tau0=sc.sigma_w2 / den_tau, f0=sc.sigma_w2 / den_f)
