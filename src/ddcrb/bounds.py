"""Core delay/Doppler bounds: known signal and totally unknown signal.

The known-signal case reduces to a 2x2 information matrix in (tau0, f0).
When the transmitted signal is unknown, its real and imaginary samples are
appended as 2M nuisance parameters estimated from L direct-path and P
reflected-path looks; eliminating them multiplies both known-signal bounds
by the look-count factor (L+P)/(L*P), or by (L + a^2 P)/(L P) / a^2 when
the reflected path carries an amplitude scale a.
"""

from __future__ import annotations

import functools

import numpy as np

from .fim import (OVERFLOW_NOTE, SINGULAR_COND, UNIT_GRAM, Border, BoundPair, FimMatrix,
                  PairColumns)
from .signals import SampledSignal, Scenario, ScenarioColumns, eta, memoised

TWO_PI2 = 8.0 * np.pi ** 2


@memoised
@np.errstate(over="ignore", invalid="ignore")  # signal_bound_columns flags such sums
def weighted_sums(sig: SampledSignal, tau0: float) -> tuple[float, float, float]:
    """(sum |ds/dt|^2, sum (t+tau0)^2 |s|^2, eta) over the sample grid,
    computed once per signal and delay: every point of a sweep over looks
    or scale asks for the same."""
    w = sig.times + tau0
    s_dd = float(np.sum(np.abs(sig.deriv) ** 2))
    s_ww = float(np.sum(w ** 2 * np.abs(sig.samples) ** 2))
    return s_dd, s_ww, eta(sig, tau0)


def fim_known_signal(sig: SampledSignal, sc: Scenario) -> FimMatrix:
    """2x2 information matrix for (tau0, f0) with the signal known, one look."""
    return FimMatrix(_known_signal_info(sig, sc), ("tau0", "f0"))


def _known_signal_info(sig: SampledSignal, sc: Scenario) -> np.ndarray:
    """The unvalidated array of fim_known_signal: I11 = (2/sigma_w2) sum |ds/dt|^2,
    I22 = (8 pi^2/sigma_w2) sum (t+tau0)^2 |s|^2, I12 = (4 pi/sigma_w2) eta."""
    s_dd, s_ww, e = weighted_sums(sig, sc.tau0)
    s2 = sc.sigma_w2
    return np.array([[2.0 * s_dd / s2, 4.0 * np.pi * e / s2],
                     [4.0 * np.pi * e / s2, TWO_PI2 * s_ww / s2]])


@memoised
def energy_sums(sig: SampledSignal) -> tuple[float, float]:
    """(sum |s|^2, sum (s_R s_R' + s_I s_I')) over the sample grid, computed
    once per signal."""
    s, d = sig.samples, sig.deriv
    return float(np.sum(np.abs(s) ** 2)), float(np.sum(s.real * d.real + s.imag * d.imag))


def _known_signal_block(sig: SampledSignal, sc: Scenario, scale_known: bool) -> np.ndarray:
    """a^2 _known_signal_info, the single-look known-signal information of the
    reflected path, bordered unless the scale is known by the a row
    I13 = -(2a/sigma_w2) sum (s_R s_R' + s_I s_I'), I23 = 0,
    I33 = (2/sigma_w2) sum |s|^2. Unvalidated: bordered_fim validates."""
    a, s2 = sc.scale, sc.sigma_w2
    block = a * a * _known_signal_info(sig, sc)
    if scale_known:
        return block
    s_e, s_x = energy_sums(sig)
    block = np.pad(block, ((0, 1), (0, 1)))
    block[2] = block[:, 2] = (-2.0 * a * s_x / s2, 0.0, 2.0 * s_e / s2)
    return block


def jcrb_known(sig: SampledSignal, sc: Scenario) -> BoundPair:
    """Joint delay/Doppler bounds for a known signal (single look).

    Singular when the derivative energy vanishes or the Cauchy-Schwarz
    denominator sum|s'|^2 * sum(t+tau0)^2|s|^2 - eta^2 is not positive.
    """
    return signal_bounds(sig, sc)[0]


def signal_bounds(sig: SampledSignal, sc: Scenario) -> tuple[BoundPair, BoundPair, BoundPair]:
    """(jcrb_known, jcrb_unknown, crb_separate_unknown) from one set of weighted
    sums: the one-point case of signal_bound_columns."""
    return tuple(col.pair() for col in signal_bound_columns([sig], ScenarioColumns.of(sc)))


def signal_bound_columns(signals: list[SampledSignal],
                         pts: ScenarioColumns) -> tuple[PairColumns, ...]:
    """(known, joint, separate) bounds of every row of pts, from the weighted
    sums of each row's signal at its delay: signals holds one signal per row
    and pts one delay, or one signal for every row.

    known: sigma_w2 sum (t+tau0)^2|s|^2 / (2 den) and sigma_w2 sum|s'|^2 /
    (8 pi^2 den), den = sum|s'|^2 sum (t+tau0)^2|s|^2 - eta^2, singular when
    den is not above its lead / SINGULAR_COND or sum|s'|^2 is not positive,
    and with OVERFLOW_NOTE first when a sum is not finite.
    joint: known times (L + a^2 P)/(L P) / a^2. separate: that look factor
    times sigma_w2/(2 a^2 sum|s'|^2) and sigma_w2/(8 pi^2 a^2 sum
    (t+tau0)^2|s|^2). L = 0 or P = 0 flags joint and separate. Python's
    operations in the scalar forms' order, so each row is those forms' value
    bit for bit.
    """
    tau0s = pts.tau0.tolist()
    s_dd, s_ww, e = np.array([weighted_sums(sig, t) for sig in signals for t in tau0s]).T
    l, p, s2, a2 = pts.looks_direct, pts.looks_reflected, pts.sigma_w2, pts.scale2
    no_looks = (l == 0) | (p == 0)
    with np.errstate(all="ignore"):
        den = s_dd * s_ww - e * e
        known = PairColumns.flagged(
            s2 * s_ww / (2.0 * den), s2 * s_dd / (TWO_PI2 * den),
            (~np.isfinite([s_dd, s_ww, e]).all(axis=0), OVERFLOW_NOTE),
            ((den <= s_dd * s_ww / SINGULAR_COND) | (s_dd <= 0.0),
             "degenerate signal: zero information determinant"))
        factor = (l + a2 * p) / (l * p)
        joint = PairColumns.flagged(
            known.tau0 * (factor / a2), known.f0 * (factor / a2),
            (no_looks, "L = 0 or P = 0: no unbiased joint estimator"),
            (known.notes != "", known.notes))
        separate = PairColumns.flagged(
            factor * s2 / (2.0 * a2 * s_dd), factor * s2 / (TWO_PI2 * a2 * s_ww),
            (no_looks, "L = 0 or P = 0: no unbiased estimator"),
            ((s_dd <= 0.0) | (s_ww <= 0.0), "degenerate signal: zero information"))
    return known, joint, separate


@functools.lru_cache
def unknown_signal_labels(m: int) -> tuple[str, ...]:
    return ("tau0", "f0", *(f"s{part}_{k}" for k in range(m) for part in "RI"))


@np.errstate(over="ignore", invalid="ignore")  # eliminated_pair flags such a FIM
def bordered_fim(sig: SampledSignal, sc: Scenario, labels: tuple[str, ...],
                 basis=None, meta=None, scale_known: bool = True) -> FimMatrix:
    """Bordered FIM of (tau0, f0[, a]) and N complex nuisance coefficients.

    A is P times the single-look known-signal information of the scaled
    reflected path (_known_signal_block), without its a row when the scale
    is known. labels: those of the FIM without a. basis: (h, wt, u, v,
    gram), the derivative, time-weighted (wt u) and plain signal couplings
    with each basis vector and K's GramBand; None means the raw samples
    (s', t + tau0, s, s, UNIT_GRAM). Border rows -(2a^2 P/s2) h,
    (4 pi a^2 P/s2) j wt u, (2aP/s2) v in (real, imaginary) columns;
    C = (2L + 2a^2 P)/s2 (K kron I_2).
    """
    p, l, a, s2 = sc.looks_reflected, sc.looks_direct, sc.scale, sc.sigma_w2
    known = _known_signal_block(sig, sc, scale_known)
    a2 = a * a  # A's factor too, so where it underflows A, C and the (tau0, f0) rows all vanish
    k_tau, k_f, k_a = -(2.0 * a2 * p / s2), 4.0 * np.pi * a2 * p / s2, 2.0 * a * p / s2
    h, wt, u, v, gram = basis or (sig.deriv, sig.times + sc.tau0, sig.samples, sig.samples,
                                  UNIT_GRAM)
    rows = [k_tau * h, (k_f * wt) * (1j * u), k_a * v]
    # a complex row viewed as floats interleaves (real, imaginary) columns
    b_block = np.array(rows[:len(known)]).view(float)
    border = Border(known * p, b_block, (2.0 * l + 2.0 * a2 * p) / s2, gram)
    return FimMatrix(None, ("tau0", "f0", "a")[:len(known)] + tuple(labels[2:]), meta or {},
                     border)


def fim_unknown_signal(sig: SampledSignal, sc: Scenario, scale_known: bool = True) -> FimMatrix:
    """(2+2M)x(2+2M) FIM for (tau0, f0, sR_0, sI_0, ..., sI_{M-1}) at the
    scale sc.scale; scale_known=False adds a as the third parameter."""
    return bordered_fim(sig, sc, unknown_signal_labels(sig.m), scale_known=scale_known)


def jcrb_unknown(sig: SampledSignal, sc: Scenario) -> BoundPair:
    """Joint bounds with the signal unknown: (L + a^2 P)/(L P) times
    jcrb_known divided by a^2 (at a = 1, (L+P)/(L*P) times jcrb_known).

    L = 0 or P = 0 leaves the delay/Doppler block of the FIM with no
    invertible Schur complement, so no unbiased joint estimator exists and
    the pair is flagged singular.
    """
    return signal_bounds(sig, sc)[1]


def crb_separate_unknown(sig: SampledSignal, sc: Scenario) -> BoundPair:
    """Bounds when tau0 and f0 are estimated separately, signal unknown.

    tau0: (L + a^2 P)/(L P) * sigma_w2 / (2 a^2 sum|s'|^2);
    f0:   (L + a^2 P)/(L P) * sigma_w2 / (8 pi^2 a^2 sum (t+tau0)^2 |s|^2).
    """
    return signal_bounds(sig, sc)[2]
