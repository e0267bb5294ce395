"""Delay bounds when direct and reflected paths are not separated.

Each of P looks contains the sum of the signal and its delayed copy in real
noise, and only the delay plus the M signal samples are estimated. The FIM
bordering structure depends on how far the copies overlap: disjoint support
gives a diagonal nuisance block, total overlap (zero delay) makes the delay
unidentifiable, and partial overlap couples samples n and n - n0. The
nuisance block splits into chains r, r + n0, r + 2 n0, ..., each
(P/sigma_w2) tridiag(1, 2, 1), and Sherman-Morrison leaves the delay
information (P/sigma_w2) S in closed form at every offset: S sums
A^2 / (l + 1) over the chains, A the chain's alternating slope sum and l its
length. Overlap of at most half the support (2*n0 >= M) is the case of
chains of one and two entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fim import (METHOD_CLOSED_FORM, METHOD_SCHUR_NUMERIC, OVERFLOW_NOTE, CrbReport,
                  SingularFimError, SINGULAR_COND)
from .signals import SampledSignal, Scenario, triangle_wave

# Most signed derivative entries binned at once. A step's M entries are never
# split, so working memory is a few arrays of max(STEP_BLOCK, M) entries,
# however many offsets a curve has.
STEP_BLOCK = 1 << 14

TOTAL_NOTE = "total overlap leaves no delay information"
CHAIN_NOTE = ("every chain's alternating slope sum is zero "
              "(S <= sum s'^2 / SINGULAR_COND)")


@dataclass(frozen=True)
class OverlapFim:
    """What the delay bound at overlap offset n0 reads of the FIM of (tau0,
    s(0), ..., s((M-1)delta)): the real derivative, the offset, the noise
    level and the look count. The blocks themselves are never formed."""

    deriv: np.ndarray
    n0: int
    sigma_w2: float
    looks: int

    @property
    def m(self) -> int:
        return self.deriv.size


def overlap_regime(n0: int, m: int) -> str:
    if n0 > m - 1:
        return "none"
    if n0 == 0:
        return "total"
    return "partial"


def _check_signal(sig: SampledSignal, sc: Scenario) -> None:
    if not sig.is_real:
        raise ValueError("nonseparated-path analysis is for real signals")
    if sc.looks_reflected < 1:
        raise ValueError("need at least one look")


def fim_overlap(sig: SampledSignal, n0: int, sc: Scenario) -> OverlapFim:
    """The FIM for overlap offset n0 as crb_overlap reads it: its blocks
    e, b and D all follow from the real derivative (see _overlap_columns)."""
    _check_signal(sig, sc)
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    return OverlapFim(deriv=sig.deriv.real, n0=n0, sigma_w2=sc.sigma_w2, looks=sc.looks_reflected)


def _alternating_sums(d: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """S per step s in 1..M: the sum over the chains r, r + s, r + 2s, ...
    of A^2 / (l + 1), A = sum_j (-1)^j s'(r + js) and l the chain's length.

    At step s the first M mod s chains have floor(M/s) + 1 entries, the rest
    floor(M/s). For a block of steps one bincount sums the signed derivative
    into chains, each along its own order, and one sums A^2 into each step's
    long and short chains in order of r, so a step's sums do not depend on
    the block it falls in. The long sum is added first: for 2s >= M the
    chains are pairs and singletons and S = pairs / 3 + singles / 2.
    """
    m = d.size
    q, rem = np.divmod(m, steps)
    sums = np.empty(2 * steps.size)
    # int32 division takes about 60 % of the time of int64
    n = np.arange(m, dtype=np.int32)
    per = max(1, STEP_BLOCK // m)
    for lo in range(0, steps.size, per):
        step = steps[lo:lo + per]
        # sample n at step s is entry j of chain r, numbered first + r
        j, r = np.divmod(n, step[:, None].astype(np.int32))
        first = np.cumsum(step) - step
        a = np.bincount((r + first[:, None]).ravel(), np.where(j & 1, -d, d).ravel())
        # chain first + r is long when r < M mod s
        which = np.repeat(np.arange(step.size), step)
        short = np.arange(a.size) >= np.repeat(first + rem[lo:lo + per], step)
        sums[2 * lo:2 * lo + 2 * step.size] = np.bincount(2 * which + short, a * a,
                                                          minlength=2 * step.size)
    return sums[0::2] / (q + 2) + sums[1::2] / (q + 1)


def _overlap_columns(d: np.ndarray, n0s: np.ndarray, looks: int, sigma_w2: float):
    """Per offset n0: S, the delay bound (inf when singular), why it is
    singular ("" when it is not) and the method tag: closed_form for an
    offset with 2*n0 >= M that is not singular, schur_numeric otherwise.

    The chain of length l through s' carries b = -(P/sigma_w2) J s' with J
    the lower bidiagonal of ones, and its block of D is (P/sigma_w2)(J J^T +
    e_0 e_0^T); so b^T D^{-1} b = (P/sigma_w2)(s'^T s' - A^2 / (l + 1)), and
    the information left is (P/sigma_w2) S: the bound is (sigma_w2/P) / S.
    Total overlap leaves S = 0; no overlap keeps its closed form
    2 sigma_w2 / (P sum s'^2). An offset is singular when S <= sum s'^2 /
    SINGULAR_COND, P/sigma_w2 cancelled from both sides, so no scale
    overflows or underflows the test. The sample block is singular when its
    condition number, set by the longest chain of length l through the
    eigenvalues 2 + 2 cos(k pi / (l + 1)) of tridiag(1, 2, 1), exceeds
    SINGULAR_COND.
    """
    m = d.size
    chained = n0s > 0
    steps = np.minimum(n0s[chained], m)
    longest = -(-m // steps)
    cos1 = np.cos(np.pi / (longest + 1))
    if np.any((1.0 + cos1) / (1.0 - cos1) > SINGULAR_COND):
        raise SingularFimError("sample block of the overlap FIM is singular")
    s = np.zeros(n0s.size)
    s[chained] = _alternating_sums(d, steps)
    sum_d2 = np.sum(d ** 2)
    with np.errstate(all="ignore"):  # such bounds are flagged below
        bound = sigma_w2 / looks / s
        bound[n0s >= m] = 2.0 * sigma_w2 / (looks * sum_d2)
    notes = np.full(n0s.size, "", dtype=object)
    notes[~((bound > 0.0) & (bound < np.inf))] = OVERFLOW_NOTE
    notes[s <= sum_d2 / SINGULAR_COND] = CHAIN_NOTE
    notes[n0s == 0] = TOTAL_NOTE
    bound[notes != ""] = np.inf
    methods = np.full(n0s.size, METHOD_SCHUR_NUMERIC, dtype=object)
    methods[(notes == "") & (2 * n0s >= m)] = METHOD_CLOSED_FORM
    return s, bound, notes, methods


def crb_overlap(of: OverlapFim) -> CrbReport:
    """Delay bound after eliminating the signal samples: the one-offset case
    of the overlap curve's columns, with b and D read through of.deriv."""
    n0, looks, sigma_w2 = of.n0, of.looks, of.sigma_w2
    s, bound, notes, methods = _overlap_columns(of.deriv, np.array([n0]), looks, sigma_w2)
    s, note, method = float(s[0]), notes[0], methods[0]
    # S = 0 stays 0 however large P/sigma_w2 is
    details = {"regime": overlap_regime(n0, of.m), "n0": n0,
               "information_after_elimination": looks / sigma_w2 * s if s > 0.0 else 0.0}
    if note:
        details["note"] = note
    return CrbReport(values={"tau0": float(bound[0])}, method=method, singular=bool(note),
                     details=details)


def triangle_overlap_curve(m: int, sc: Scenario) -> list[dict]:
    """Delay bound versus overlap offset for the slope +-1 triangle wave.

    Emits one row per n0 = 0..M (n0 = M is the first disjoint offset),
    carrying the bound or a singularity marker, the formula path, and the
    disjoint-support reference value (sigma_w2/P) * 2/M.
    """
    sig = triangle_wave(m)
    # validates P >= 1 before the reference divides by it
    _check_signal(sig, sc)
    crb_non = 2.0 * sc.sigma_w2 / (sc.looks_reflected * m)
    n0s = np.arange(m + 1)
    _, bound, notes, methods = _overlap_columns(sig.deriv.real, n0s, sc.looks_reflected,
                                                sc.sigma_w2)
    return [{"n0": n0,
             "crb_tau0": None if note else value,
             "singular": bool(note),
             "method": method,
             "regime": overlap_regime(n0, m),
             "crb_non": crb_non}
            for n0, value, note, method in zip(n0s.tolist(), bound.tolist(), notes, methods)]
