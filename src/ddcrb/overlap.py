"""Delay bounds when direct and reflected paths are not separated.

Each of P looks contains the sum of the signal and its delayed copy in real
noise, and only the delay plus the M signal samples are estimated. The FIM
bordering structure depends on how far the copies overlap: disjoint support
gives a diagonal nuisance block, total overlap (zero delay) makes the delay
unidentifiable, and partial overlap couples samples n and n - n0. The
nuisance block splits into tridiagonal chains that are eliminated exactly in
O(M) at every depth; overlap of at most half the support (2*n0 >= M) also
has a short closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fim import (METHOD_CLOSED_FORM, METHOD_SCHUR_NUMERIC, CrbReport,
                  SingularFimError, SINGULAR_COND)
from .signals import SampledSignal, Scenario, triangle_wave

SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class OverlapFim:
    """Bordered FIM (e, b, D) for (tau0, s(0), ..., s((M-1)delta))."""

    e: float
    b_vec: np.ndarray
    n0: int
    regime: str
    deriv: np.ndarray
    sigma_w2: float
    looks: int

    @property
    def m(self) -> int:
        return self.b_vec.size

    @property
    def d_mat(self) -> np.ndarray:
        """Dense sample block D, built on request; the bound never reads it."""
        c, eye = self.looks / self.sigma_w2, np.eye(self.m)
        if self.regime == "total":
            return 4.0 * c * eye
        # the +-n0 band is empty for disjoint support (n0 >= M)
        return c * (2.0 * eye + np.eye(self.m, k=self.n0) + np.eye(self.m, k=-self.n0))


def overlap_regime(n0: int, m: int) -> str:
    if n0 > m - 1:
        return "none"
    if n0 == 0:
        return "total"
    return "partial"


def fim_overlap(sig: SampledSignal, n0: int, sc: Scenario) -> OverlapFim:
    """Assemble the real-noise FIM blocks for overlap offset n0.

    e = (P/sigma_w2) sum s'(n*delta)^2 always. Outside overlap the coupling
    is b_j = -(P/sigma_w2) s' and D = (2P/sigma_w2) I; at total overlap both
    double; partial overlap adds s'((n-n0)*delta) to b on n >= n0 and a
    P/sigma_w2 band at offset n0 in D.
    """
    if not sig.is_real:
        raise ValueError("nonseparated-path analysis is for real signals")
    if sc.looks_reflected < 1:
        raise ValueError("need at least one look")
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    p = sc.looks_reflected
    s2 = sc.sigma_w2
    d = sig.deriv.real.copy()
    m = sig.m
    regime = overlap_regime(n0, m)
    e = p / s2 * float(np.sum(d ** 2))
    b = -(p / s2) * d
    if regime == "total":
        b = 2.0 * b
    elif regime == "partial":
        b[n0:] += -(p / s2) * d[: m - n0]
    return OverlapFim(e=e, b_vec=b, n0=n0, regime=regime,
                      deriv=d, sigma_w2=s2, looks=p)


def _chain_quadratic(of: OverlapFim) -> tuple[float, float]:
    """b^T D^{-1} b and cond(D) from the chain structure of D.

    Outside total overlap D = (P/sigma_w2) * (2I + band at +-n0), which
    splits into chains r, r + n0, r + 2 n0, ... each equal to
    (P/sigma_w2) * tridiag(1, 2, 1). With the sign flip S = diag((-1)^k),
    S tridiag(1, 2, 1) S is the second-difference matrix, so for a chain v
    of length l, v^T tridiag(1, 2, 1)^{-1} v = sum_k (Q_k - mean Q)^2 where
    Q = (0, cumsum(S v)) has l + 1 entries. tridiag(1, 2, 1) of size l has
    eigenvalues 2 + 2 cos(k pi / (l + 1)), so the longest chain sets cond(D).
    Disjoint support (n0 >= M) is the case of chains of length one.
    """
    c = of.looks / of.sigma_w2
    if of.regime == "total":
        return float(of.b_vec @ of.b_vec) / (4.0 * c), 1.0
    step = min(of.n0, of.m)
    q, rem = divmod(of.m, step)
    quad = 0.0
    # chains starting at r < rem have q + 1 entries, the rest q
    for length, starts in ((q + 1, np.arange(rem)), (q, np.arange(rem, step))):
        k = np.arange(length)[:, None]
        cum = np.cumsum((-1.0) ** k * of.b_vec[starts + step * k], axis=0)
        cum = np.vstack([np.zeros(starts.size), cum])
        quad += float(np.sum((cum - cum.mean(axis=0)) ** 2))
    cos1 = np.cos(np.pi / (q + (rem > 0) + 1))
    return quad / c, float((1.0 + cos1) / (1.0 - cos1))


def _closed_form_partial(of: OverlapFim) -> float | None:
    """Closed-form CRB for overlap of at most half the support (2*n0 >= M).

    (sigma_w2/P) / [ 1/3 sum_{n=n0}^{M-1} (s'(n d) - s'((n-n0) d))^2
                   + 1/2 sum_{n=M-n0}^{n0-1} s'(n d)^2 ].
    """
    m, n0 = of.m, of.n0
    if 2 * of.n0 < m:
        return None
    d = of.deriv
    den = float(np.sum((d[n0:] - d[: m - n0]) ** 2)) / 3.0
    den += float(np.sum(d[m - n0: n0] ** 2)) / 2.0
    if den <= 0.0:
        return None
    return of.sigma_w2 / of.looks / den


def crb_overlap(of: OverlapFim) -> CrbReport:
    """Delay bound after eliminating the signal samples.

    No overlap has the closed form (2P/P^2) sigma_w2 / sum s'^2; total
    overlap makes e - b^T D^{-1} b exactly zero (no finite bound exists);
    partial overlap is eliminated through the chain form of D, with the
    short closed form attached and preferred when 2*n0 >= M.
    """
    quad, cond = _chain_quadratic(of)
    if cond > SINGULAR_COND:
        raise SingularFimError("sample block of the overlap FIM is singular")
    x = of.e - quad
    details = {"regime": of.regime, "n0": of.n0,
               "information_after_elimination": x}
    if abs(x) <= SINGULAR_RTOL * max(of.e, 1e-300):
        return CrbReport(values={"tau0": float("inf")},
                         method=METHOD_SCHUR_NUMERIC, singular=True,
                         details={**details, "note": "overlap leaves no delay information"})
    numeric = 1.0 / x
    if of.regime == "none":
        value = 2.0 * of.sigma_w2 / (of.looks * float(np.sum(of.deriv ** 2)))
        return CrbReport(values={"tau0": value}, method=METHOD_CLOSED_FORM,
                         details={**details, "tau0_numeric": numeric})
    closed = _closed_form_partial(of)
    if closed is not None:
        return CrbReport(values={"tau0": closed}, method=METHOD_CLOSED_FORM,
                         details={**details, "tau0_numeric": numeric})
    return CrbReport(values={"tau0": numeric}, method=METHOD_SCHUR_NUMERIC, details=details)


def triangle_overlap_curve(m: int, sc: Scenario) -> list[dict]:
    """Delay bound versus overlap offset for the slope +-1 triangle wave.

    Emits one row per n0 = 0..M (n0 = M is the first disjoint offset),
    carrying the bound or a singularity marker, the formula path, and the
    disjoint-support reference value (sigma_w2/P) * 2/M.
    """
    sig = triangle_wave(m)
    rows = []
    for n0 in range(m + 1):
        # fim_overlap validates P >= 1 before the reference divides by it
        of = fim_overlap(sig, n0, sc)
        report = crb_overlap(of)
        rows.append({
            "n0": n0,
            "crb_tau0": None if report.singular else report.values["tau0"],
            "singular": report.singular,
            "method": report.method,
            "regime": report.details["regime"],
            "crb_non": 2.0 * of.sigma_w2 / (of.looks * m),
        })
    return rows
