"""Delay bounds when direct and reflected paths are not separated.

Each of P looks contains the sum of the signal and its delayed copy in real
noise, and only the delay plus the M signal samples are estimated. The FIM
bordering structure depends on how far the copies overlap: disjoint support
gives a diagonal nuisance block, total overlap (zero delay) makes the delay
unidentifiable, and partial overlap couples samples n and n - n0. The
nuisance block splits into tridiagonal chains that are eliminated exactly in
O(M) at every depth, with chains of one length from all offsets eliminated
together; overlap of at most half the support (2*n0 >= M) also has a short
closed form.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fim import (METHOD_CLOSED_FORM, METHOD_SCHUR_NUMERIC, CrbReport,
                  SingularFimError, SINGULAR_COND)
from .signals import SampledSignal, Scenario, triangle_wave

# Most chain entries eliminated in one block. One offset's chains are never
# split, so working memory is a few arrays of max(CHAIN_BLOCK, about 2M)
# entries, however many offsets a curve has.
CHAIN_BLOCK = 1 << 12


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


def _check_signal(sig: SampledSignal, sc: Scenario) -> None:
    if not sig.is_real:
        raise ValueError("nonseparated-path analysis is for real signals")
    if sc.looks_reflected < 1:
        raise ValueError("need at least one look")


def fim_overlap(sig: SampledSignal, n0: int, sc: Scenario) -> OverlapFim:
    """Assemble the real-noise FIM blocks for overlap offset n0.

    e = (P/sigma_w2) sum s'(n*delta)^2 always. Outside overlap the coupling
    is b_j = -(P/sigma_w2) s' and D = (2P/sigma_w2) I; at total overlap both
    double; partial overlap adds s'((n-n0)*delta) to b on n >= n0 and a
    P/sigma_w2 band at offset n0 in D.
    """
    _check_signal(sig, sc)
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


def _chain_runs(steps: np.ndarray, m: int):
    """Chains of every step, as runs (length, step index, first start, count).

    At step s the chains start at r = 0..s-1 and visit r, r + s, r + 2s, ...
    below M; the first M mod s of them have floor(M/s) + 1 entries, the
    rest floor(M/s). Runs come sorted by length, in step order within one.
    """
    q, rem = np.divmod(m, steps)
    long_ = np.flatnonzero(rem > 0)
    length = np.concatenate([q[long_] + 1, q])
    which = np.concatenate([long_, np.arange(steps.size)])
    first = np.concatenate([np.zeros(long_.size, dtype=int), rem])
    count = np.concatenate([rem[long_], steps - rem])
    order = np.argsort(length, kind="stable")
    return length[order], which[order], first[order], count[order]


def _blocks(length: np.ndarray, count: np.ndarray):
    """Slices of runs that share a length and together hold at most
    CHAIN_BLOCK entries; a run is never split, so a larger one is alone."""
    start, total, lengths = 0, 0, length.tolist()
    for i, (size, n) in enumerate(zip(lengths, count.tolist())):
        if total and (size != lengths[start] or total + (size + 1) * n > CHAIN_BLOCK):
            yield start, i
            start, total = i, 0
        total += (size + 1) * n
    if total:
        yield start, len(lengths)


def _chain_sums(d: np.ndarray, neg_c: float, steps: np.ndarray):
    """Per step s: (P/sigma_w2) b^T D^{-1} b, and the two closed-form sums.

    Each chain v (b along r, r + s, ...) gives sum_k (Q_k - mean Q)^2 with
    Q = (0, cumsum(S v)), S = diag((-1)^k); b_vec @ D^{-1} b_vec is that sum
    over all chains divided by P/sigma_w2. Chains of one length are
    eliminated together, a block of columns at a time, with the operations
    and summation order of a one-step elimination: columns reduce one row
    after another, a step's lone chain pairwise, and each step's squares in
    one pairwise sum. For 2s >= M the chains have one or two entries, and
    the same gathered samples give sum (s'(n) - s'(n-s))^2 over the pairs
    and sum s'(n)^2 over the singletons.
    """
    m = d.size
    quad, pairs, singles = np.zeros((3, steps.size))
    closed_form = (2 * steps >= m) & (steps < m)
    length, which, first, count = _chain_runs(steps, m)
    for lo, hi in _blocks(length, count):
        size, runs, n = int(length[lo]), which[lo:hi], count[lo:hi]
        edges = np.concatenate([[0], np.cumsum(n)])
        within = np.arange(edges[-1]) - np.repeat(edges[:-1], n)
        gathered = d[np.repeat(first[lo:hi], n) + within
                     + np.repeat(steps[runs], n) * np.arange(size)[:, None]]
        if size <= 2:
            terms = (gathered[1] - gathered[0]) ** 2 if size == 2 else gathered[0] ** 2
            target, ends = (pairs if size == 2 else singles), edges.tolist()
            for j in np.flatnonzero(closed_form[runs]).tolist():
                target[runs[j]] = np.add.reduce(terms[ends[j]:ends[j + 1]])
        base = neg_c * gathered
        del gathered
        # Q = (0, cumsum(S v)) in place, v(n) = base(n) + base(n - s) after
        # a chain's first entry
        cum = np.zeros((size + 1, edges[-1]))
        cum[1] = base[0]
        np.add(base[1:], base[:-1], out=cum[2:])
        del base
        cum[2::2] *= -1.0
        np.cumsum(cum[1:], axis=0, out=cum[1:])
        colsum = np.add.reduce(cum, axis=0)
        if hi - lo > 1:
            # a lone column reduces pairwise, as it would on its own
            for j in edges[:-1][n == 1].tolist():
                colsum[j] = np.add.reduce(cum[:, j])
        cum -= colsum / (size + 1)
        np.square(cum, out=cum)
        # each run's (size + 1) x count block, row after row, sums pairwise
        # as one contiguous array
        ends = edges.tolist()
        quad[runs] += [np.add.reduce(cum[:, a:b].ravel()) for a, b in zip(ends[:-1], ends[1:])]
    return quad, pairs, singles


def _overlap_reports(d: np.ndarray, offsets, looks: int, sigma_w2: float) -> Iterator[CrbReport]:
    """Delay bound reports for one real derivative d at every offset n0, in
    order (made one at a time, so a long curve holds its rows, not reports).

    No overlap has the closed form (2P/P^2) sigma_w2 / sum s'^2; total
    overlap makes e - b^T D^{-1} b exactly zero (no finite bound exists);
    partial overlap is eliminated through the chain form of D, with the
    short closed form
        (sigma_w2/P) / [ 1/3 sum_{n=n0}^{M-1} (s'(n d) - s'((n-n0) d))^2
                       + 1/2 sum_{n=M-n0}^{n0-1} s'(n d)^2 ]
    attached and preferred when 2*n0 >= M. The sample block is singular
    when its condition number, set by the longest chain of length l
    through the eigenvalues 2 + 2 cos(k pi / (l + 1)) of tridiag(1, 2, 1),
    exceeds SINGULAR_COND.
    """
    m = d.size
    n0s = np.asarray(offsets, dtype=int)
    c = looks / sigma_w2
    sum_d2 = float(np.sum(d ** 2))
    e = c * sum_d2
    chained = n0s > 0
    steps = np.minimum(n0s[chained], m)
    longest = -(-m // steps)
    cos1 = np.cos(np.pi / (longest + 1))
    if np.any((1.0 + cos1) / (1.0 - cos1) > SINGULAR_COND):
        raise SingularFimError("sample block of the overlap FIM is singular")
    x = np.empty(n0s.size)
    if not chained.all():
        b = 2.0 * (-c * d)
        x[~chained] = e - float(b @ b) / (4.0 * c)
    quad, pairs, singles = _chain_sums(d, -c, steps)
    x[chained] = e - quad / c
    # closed-form denominators; _report reads them only where 2*n0 >= M
    den = np.zeros(n0s.size)
    den[chained] = pairs / 3.0 + singles / 2.0
    for n0, xi, di in zip(n0s.tolist(), x.tolist(), den.tolist()):
        yield _report(n0, m, xi, e, di, looks, sigma_w2, sum_d2)


def _report(n0: int, m: int, x: float, e: float, den: float, looks: int,
            sigma_w2: float, sum_d2: float) -> CrbReport:
    regime = overlap_regime(n0, m)
    details = {"regime": regime, "n0": n0, "information_after_elimination": x}
    if abs(x) <= e / SINGULAR_COND:
        return CrbReport(values={"tau0": float("inf")},
                         method=METHOD_SCHUR_NUMERIC, singular=True,
                         details={**details, "note": "overlap leaves no delay information"})
    numeric = 1.0 / x
    if regime == "none":
        value = 2.0 * sigma_w2 / (looks * sum_d2)
        return CrbReport(values={"tau0": value}, method=METHOD_CLOSED_FORM,
                         details={**details, "tau0_numeric": numeric})
    if 2 * n0 >= m and den > 0.0:
        return CrbReport(values={"tau0": sigma_w2 / looks / den}, method=METHOD_CLOSED_FORM,
                         details={**details, "tau0_numeric": numeric})
    return CrbReport(values={"tau0": numeric}, method=METHOD_SCHUR_NUMERIC, details=details)


def crb_overlap(of: OverlapFim) -> CrbReport:
    """Delay bound after eliminating the signal samples: the one-offset case
    of _overlap_reports, which recomputes b from of.deriv bit for bit."""
    return next(_overlap_reports(of.deriv, (of.n0,), of.looks, of.sigma_w2))


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
    reports = _overlap_reports(sig.deriv.real, range(m + 1), sc.looks_reflected, sc.sigma_w2)
    return [{"n0": n0,
             "crb_tau0": None if report.singular else report.values["tau0"],
             "singular": report.singular,
             "method": report.method,
             "regime": report.details["regime"],
             "crb_non": crb_non} for n0, report in enumerate(reports)]
