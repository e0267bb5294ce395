"""Labeled Fisher information matrices and bound-report containers.

Every FimMatrix is one bordered matrix [[A, B], [B^T, C]] (a Border): A over
the parameters of interest, B its border with N nuisance coefficients and
C = c (K kron I_2), empty (N = 0) for a matrix given densely. One rule
validates every FIM: A symmetric and A - B C^{-1} B^T PSD, to tolerances
relative to |A|_F + |B|_F + |c| |K|_1. K is always a GramBand, which keeps
|K|_1 and K's inertia verdict; a one-entry band [[g]] is g I at any N.
submatrix, drop and the keep of schur_complement act on the parameters of
interest only, through the blocks. The dense matrix is built only as
FimMatrix.entries, on request, and as the fallback of FimMatrix.solvable when
C has no Cholesky factor (L = P = 0, or a singular K): validation and
elimination then take it as a border with C empty. eliminated_pair turns a
FIM into delay/Doppler bounds; BoundPair, PairColumns and CrbReport carry
bound values, a method tag and a singularity flag, so rank-deficient
scenarios (no unbiased estimator) give flagged results.
SINGULAR_COND is the one threshold of "no information" for every model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterator

import numpy as np

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
SINGULAR_COND = 1e12

METHOD_CLOSED_FORM = "closed_form"
METHOD_SCHUR_NUMERIC = "schur_numeric"
METHOD_MONTE_CARLO = "monte_carlo"


class SingularFimError(np.linalg.LinAlgError):
    """Raised when a nuisance block that must be inverted is singular."""


def band_cholesky(band: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric band matrix K, or None when K is
    not positive definite.

    band[d, j] = K[j + d, j] for the b + 1 diagonals of K on and below the
    main one, zero past the end (LAPACK pbtrf 'L' layout); the factor L
    comes back in the same layout. Column by column, each column updated by
    the b before it (Golub and Van Loan, Matrix Computations, band Cholesky
    in 4.3): O(N b^2), on Python floats. A tridiagonal K (b = 1, the pulse
    Gram matrix) takes the written-out recurrence c0 = K[j, j] - l^2,
    piv = sqrt(c0), l = K[j + 1, j] / piv: the general loop's operations in
    its order, so the factor is the same bit for bit (tests/test_band.py
    compares the bytes of both paths).
    """
    f = np.asarray(band, dtype=float).tolist()
    return _cholesky_tridiagonal(*f) if len(f) == 2 else _cholesky_loop(f)


def _cholesky_loop(f: list) -> np.ndarray | None:
    """band_cholesky of the band rows f (lists, overwritten), any b."""
    nb, n = len(f), len(f[0])
    for j in range(n):
        top = min(nb, n - j)  # rows j .. j + top - 1 of column j
        col = [f[d][j] for d in range(top)]
        for k in range(max(0, j - nb + 1), j):
            ljk = f[j - k][k]
            for d in range(min(top, nb - j + k)):
                col[d] -= ljk * f[j - k + d][k]
        if not col[0] > 0.0:
            return None
        piv = math.sqrt(col[0])
        f[0][j] = piv
        for d in range(1, top):
            f[d][j] = col[d] / piv
    return np.array(f)


def _cholesky_tridiagonal(diag: list, sub: list) -> np.ndarray | None:
    """band_cholesky of the b = 1 band rows (diag, sub)."""
    pivs, low, l = [], [], 0.0
    for dj, ej in zip(diag, sub):
        c0 = dj - l * l  # dj - 0.0 is dj in the first column
        if not c0 > 0.0:
            return None
        piv = math.sqrt(c0)
        l = ej / piv
        pivs.append(piv)
        low.append(l)
    if low:
        low[-1] = sub[-1]  # no row below the last column: kept as given
    return np.array([pivs, low])


def band_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Y with L Y = rhs by forward substitution, L a band_cholesky factor
    and rhs N x r: O(N b r). For b = 1 each column of rhs runs the
    recurrence y[i] = (rhs[i] - L[i, i - 1] y[i - 1]) / L[i, i], the general
    loop's operations in its order, so Y is the same bit for bit (and
    C-ordered, as the general loop returns it)."""
    f = factor.tolist()
    rhs = np.asarray(rhs, dtype=float)
    return _solve_tridiagonal(*f, rhs) if len(f) == 2 else _solve_loop(f, rhs)


def _solve_loop(f: list, rhs: np.ndarray) -> np.ndarray:
    """band_solve by the factor's band rows f, any b: one row of Y at a time."""
    nb, n = len(f), len(f[0])
    y = rhs.tolist()
    for i in range(n):
        row = y[i]
        for m in range(1, min(nb, i + 1)):
            lim = f[m][i - m]
            row = [a - lim * b for a, b in zip(row, y[i - m])]
        piv = f[0][i]
        y[i] = [a / piv for a in row]
    return np.array(y)


def _solve_tridiagonal(pivs: list, sub: list, rhs: np.ndarray) -> np.ndarray:
    """band_solve by the b = 1 factor rows (pivs, sub): one column at a time."""
    out = []
    for r in rhs.T.tolist():
        yi = r[0] / pivs[0]
        col = [yi]
        for ri, li, piv in zip(r[1:], sub, pivs[1:]):
            yi = (ri - li * yi) / piv
            col.append(yi)
        out.append(col)
    return np.array(out).T.copy()


def band_norm1(band: np.ndarray) -> float:
    """|K|_1 (= |K|_inf, K symmetric) of the band matrix K, an upper bound on
    its spectral radius."""
    absb = np.abs(np.asarray(band, dtype=float))
    sums = absb.sum(axis=0)
    for d in range(1, len(absb)):
        sums[d:] += absb[d, :-d]  # the mirrored entries above the diagonal
    return float(np.max(sums))


@dataclass(frozen=True, eq=False)
class GramBand:
    """A Gram matrix K kept as its read-only lower band, (bw + 1) x N,
    band[d, j] = K[j + d, j], zero past the end (see band_cholesky); a
    one-entry band [[g]] stands for g I at any N. K depends on the nuisance
    basis alone, so one GramBand serves every FIM of a basis: its |K|_1 and
    inertia verdict are computed on first use and kept for each Border."""

    band: np.ndarray

    def __post_init__(self):
        band = np.array(self.band, dtype=float)
        band.setflags(write=False)
        object.__setattr__(self, "band", band)

    @functools.cached_property
    def norm1(self) -> float:
        """|K|_1, an upper bound on the largest eigenvalue of K."""
        return band_norm1(self.band)

    @functools.cached_property
    def singular(self) -> bool:
        """Whether lambda_min(K) <= |K|_1 / SINGULAR_COND, |K|_1 >= lambda_max(K):
        flags every K whose eigenvalue range exceeds SINGULAR_COND. By Sylvester's
        law of inertia K - t I is positive definite exactly when lambda_min(K) > t,
        so one band Cholesky of the shifted K decides it."""
        shifted = self.band.copy()
        shifted[0] -= self.norm1 / SINGULAR_COND
        return band_cholesky(shifted) is None


# K = I of the raw samples and of a dense matrix: its verdict is taken once per process
UNIT_GRAM = GramBand([[1.0]])


@dataclass(frozen=True)
class Border:
    """Blocks of a bordered FIM [[A, B], [B^T, C]] with C = c (K kron I_2).

    a is the k x k block of the parameters of interest, b the k x 2N border
    over (real, imaginary) pairs of N nuisance coefficients, and gram is K,
    always a GramBand holding K's lower band ([[g]] for K = g I). No N x N
    matrix is built or decomposed except by dense().
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    gram: GramBand

    @classmethod
    def of(cls, entries) -> "Border":
        """A matrix given densely: a read-only copy as A, no nuisance columns."""
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise ValueError("FIM must be square with at least one parameter")
        a.setflags(write=False)
        return cls(a, np.zeros((len(a), 0)), 0.0, UNIT_GRAM)

    def dense(self) -> np.ndarray:
        k, n = len(self.a), self.b.shape[1] // 2
        size = k + 2 * n
        out = np.zeros((size, size))
        out[:k, :k] = self.a
        out[:k, k:] = self.b
        out[k:, :k] = self.b.T
        flat = out.reshape(-1)
        # entry (k + p + 2(j + d), k + p + 2j) of C and its mirror, for the
        # real (p = 0) and imaginary (p = 1) parts of the d-th diagonal of K ([[g]]: all g)
        for d, diag in enumerate(self.gram.band[:n]):
            ck = self.c * diag[:n - d]
            for p in (k, k + 1):
                flat[p * (size + 1) + 2 * d * size::2 * (size + 1)][:n - d] = ck
                flat[p * (size + 1) + 2 * d::2 * (size + 1)][:n - d] = ck
        out.setflags(write=False)
        return out

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a block that is not finite is flagged
    def schur(self) -> np.ndarray | None:
        """Read-only A - B C^{-1} B^T, or None when C is not positive definite.

        Computed on first use and shared by validation and elimination. With
        no nuisance columns it is A as given, not symmetrised, so a dense
        matrix is eliminated exactly as it was built.
        """
        if not self.b.size:
            return self.a
        if self.gram.band.size == 1:  # K = g I
            ck = self.c * self.gram.band.item()
            if not ck > 0.0:
                return None
            # the reciprocal scaling is what the LU solve of the dense path
            # does with a diagonal C, so both paths agree bit for bit
            out = self.a - self.b @ (self.b.T * (1.0 / ck))
        else:
            factor = band_cholesky(self.c * self.gram.band)
            if factor is None:
                return None
            k = len(self.a)
            y = band_solve(factor, np.hstack([self.b[:, 0::2].T, self.b[:, 1::2].T]))
            # as written, on a C-ordered y: numpy may send another layout or
            # product form to another BLAS routine, which can move the last bits
            out = self.a - (y[:, :k].T @ y[:, :k] + y[:, k:].T @ y[:, k:])
        out = 0.5 * (out + out.T)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def finite(self) -> bool:
        """Whether every block is finite (no sum behind it overflowed), so that an
        eigenvalue routine may see it; needs a positive definite C. c |K|_1 bounds
        C, and while it is finite C^{-1} is not 0, so a nan or inf in A or B reaches
        A - B C^{-1} B^T: two small tests stand for the whole matrix."""
        return math.isfinite(self.c * self.gram.norm1) and bool(np.isfinite(self.schur).all())

    @np.errstate(over="ignore", invalid="ignore")  # eliminated_pair flags such a FIM
    def validate(self) -> None:
        """Symmetry and PSD checks, the one rule for every FIM; needs a
        positive definite C (schur not None). A FIM that is not finite is
        accepted unchecked: eliminated_pair flags it as overflowed.

        Haynsworth inertia additivity: the matrix is PSD iff C is PD and
        A - B C^{-1} B^T is PSD. Tolerances scale with |A|_F + |B|_F + |C|_1,
        an upper bound on the full spectral norm within a small factor. C is
        symmetric by construction (K is stored as its lower band).
        """
        if not self.finite:
            return
        # |x|_F in units of the largest entry: its squares neither underflow nor overflow
        spec = sum(top * np.linalg.norm(x / top) for x in (self.a, self.b)
                   if (top := np.max(np.abs(x), initial=0.0)) > 0.0)
        spec = max(spec + abs(self.c) * self.gram.norm1, 1e-300)
        asym = np.max(np.abs(self.a - self.a.T))
        if asym > SYMMETRY_RTOL * spec:
            raise ValueError(f"FIM not symmetric: |A - A^T| = {asym:.3e}")
        eigmin = float(np.linalg.eigvalsh(self.schur)[0])
        if eigmin < -PSD_RTOL * spec:
            raise ValueError(f"FIM not positive semidefinite: Schur lambda_min = {eigmin:.3e}")


@dataclass(frozen=True, eq=False)
class FimMatrix:
    """Labeled FIM: FimMatrix(dense, labels) or FimMatrix(None, labels, meta,
    border). The dense entries are built on first use, cached and read-only."""

    dense: InitVar[np.ndarray | None]
    labels: tuple[str, ...]
    meta: dict = field(default_factory=dict)
    border: Border | None = field(default=None, repr=False)

    def __post_init__(self, dense):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.border is None:
            object.__setattr__(self, "border", Border.of(dense))
        if len(self.labels) != len(self.border.a) + self.border.b.shape[1]:
            raise ValueError("one label per parameter required")
        self.solvable.validate()

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return self.border.dense() if self.border.b.size else self.border.a

    @functools.cached_property
    def solvable(self) -> Border:
        """Its own border while C is positive definite, else the dense matrix's."""
        return self.border if self.border.schur is not None else Border.of(self.entries)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _index(self, label: str) -> int:
        if label not in self.labels[:len(self.border.a)]:
            raise ValueError(f"{label!r} is not a parameter of interest")
        return self.labels.index(label)

    def submatrix(self, labels) -> np.ndarray:
        idx = [self._index(lbl) for lbl in labels]
        return self.border.a[np.ix_(idx, idx)]

    def drop(self, label: str) -> "FimMatrix":
        """FIM with one parameter of interest removed (treated as known, not
        eliminated): A loses its row and column (kept read-only), B its row."""
        i, bd = self._index(label), self.border
        a = Border.of(np.delete(np.delete(bd.a, i, 0), i, 1)).a
        return FimMatrix(None, self.labels[:i] + self.labels[i + 1:], dict(self.meta),
                         Border(a, np.delete(bd.b, i, 0), bd.c, bd.gram))


def _eliminate(e: np.ndarray, keep: int, outer: float = 0.0) -> np.ndarray:
    """Dense A - B C^{-1} B^T of e; outer joins C's eigenvalue range."""
    a = e[:keep, :keep]
    if keep == e.shape[0]:
        return a.copy()
    b = e[:keep, keep:]
    c = e[keep:, keep:]
    c_eigs = np.linalg.eigvalsh(c)
    if c_eigs[0] <= max(abs(c_eigs[-1]), outer) / SINGULAR_COND:
        raise SingularFimError("nuisance block is singular")
    out = a - b @ np.linalg.solve(c, b.T)
    return 0.5 * (out + out.T)


def schur_complement(fim: FimMatrix, keep: int = 2) -> np.ndarray:
    """Eliminate the trailing nuisance block: A - B C^{-1} B^T.

    keep is the size of the leading block of the parameters of interest
    that survives. Raises SingularFimError when the nuisance block C is not
    invertible (condition estimate above 1e12) or the FIM is not finite; a
    singular *result* is legitimate and left to the caller to detect. C goes
    first, then the rows of A beyond keep, densely (the quotient property of
    Schur complements).
    """
    border = fim.solvable
    if not 1 <= keep <= len(border.a):
        raise ValueError("keep must be between 1 and the number of parameters of interest")
    if not border.finite:
        raise SingularFimError("FIM is not finite")
    if border.gram.singular:
        raise SingularFimError("nuisance block is singular")
    return _eliminate(border.schur, keep, border.c * border.gram.norm1)


def invert_bound_matrix(reduced: np.ndarray,
                        scale: float | np.ndarray | None = None) -> np.ndarray | None:
    """Invert an eliminated parameter block R; None when it is singular:
    lambda_min at most 1/SINGULAR_COND of a reference. A float scale is the
    reference (the parent FIM's leading-block norm recognises an exactly
    eliminated block left as rounding noise), by default R's own norm. An
    array scale is the parent's leading diagonal d: D^-1/2 R D^-1/2 is judged
    against 1, free of the parameters' units, and d <= 0 is no information."""
    if not np.all(np.isfinite(reduced)):
        return None
    sym = 0.5 * (reduced + reduced.T)
    judged, ref = sym, scale
    if np.ndim(scale) == 1:
        if not np.all(scale > 0.0):
            return None
        # d_i d_j may underflow where sqrt(d_i) sqrt(d_j) does not
        judged, ref = sym / np.sqrt(scale)[:, None] / np.sqrt(scale), 1.0
    elif scale is None:
        ref = float(np.max(np.abs(reduced)))
    if np.min(np.linalg.eigvalsh(judged)) <= max(ref, 1e-300) / SINGULAR_COND:
        return None
    return np.linalg.inv(sym)


@dataclass(frozen=True)
class BoundPair:
    """Delay and Doppler bounds from one formula path, tagged with its method."""

    tau0: float
    f0: float
    singular: bool = False
    note: str = ""
    method: str = METHOD_CLOSED_FORM

    def __iter__(self) -> Iterator[float]:
        return iter((self.tau0, self.f0))

    def scaled(self, factor: float) -> "BoundPair":
        return BoundPair(self.tau0 * factor, self.f0 * factor,
                         self.singular, self.note, self.method)

    def over(self, other: "BoundPair") -> "BoundPair":
        """self / other per coordinate, with self's method; singular when either is."""
        if self.singular or other.singular:
            return BoundPair.singular_pair(self.note or other.note, self.method)
        return BoundPair(self.tau0 / other.tau0, self.f0 / other.f0, method=self.method)

    @classmethod
    def singular_pair(cls, note: str, method: str = METHOD_CLOSED_FORM) -> "BoundPair":
        return cls(float("inf"), float("inf"), True, note, method)


# why a value a closed form computed from finite inputs is flagged anyway
OVERFLOW_NOTE = "no finite positive bound: the sums or the bound overflowed"


@dataclass(frozen=True)
class PairColumns:
    """BoundPairs of many points from one formula path, as columns: row i is
    pair(i). notes[i] says why pair i is singular ("" when it is not), and a
    singular pair's values are inf. A column of length 1 stands for every row."""

    tau0: np.ndarray
    f0: np.ndarray
    notes: np.ndarray
    method: str = METHOD_CLOSED_FORM

    @classmethod
    def flagged(cls, tau0, f0, *conditions, method: str = METHOD_CLOSED_FORM) -> "PairColumns":
        """Values with the rows of each (mask, note) condition made singular;
        where several hold, the first one's note is kept. A note may be one
        per row."""
        if np.shape(tau0) != np.shape(f0):
            tau0, f0 = np.broadcast_arrays(tau0, f0)
        notes = np.full(np.shape(tau0), "", dtype=object)
        held = [(mask, note) for mask, note in conditions if mask.any()]
        if not held:  # no row is singular: the values as given
            return cls(tau0, f0, notes, method)
        for mask, note in held:  # only rows no earlier condition flagged
            mask = np.broadcast_to(mask, notes.shape) & (notes == "")
            notes[mask] = np.broadcast_to(np.asarray(note, dtype=object), notes.shape)[mask]
        singular = notes != ""
        return cls(np.where(singular, np.inf, tau0), np.where(singular, np.inf, f0),
                   notes, method)

    @classmethod
    def stack(cls, pairs: list[BoundPair]) -> "PairColumns":
        """The columns of pairs that share one method."""
        return cls(np.array([p.tau0 for p in pairs]), np.array([p.f0 for p in pairs]),
                   np.array([p.note if p.singular else "" for p in pairs], dtype=object),
                   pairs[0].method)

    def divided(self, divisor) -> "PairColumns":
        """Each row times 1 / divisor; a divisor that underflowed to 0 flags it."""
        with np.errstate(all="ignore"):
            return PairColumns.flagged(self.tau0 * (1.0 / divisor), self.f0 * (1.0 / divisor),
                                       (self.notes != "", self.notes), method=self.method)

    def over(self, other: "PairColumns") -> "PairColumns":
        """self / other per coordinate, with self's method; singular when either is."""
        with np.errstate(all="ignore"):
            return PairColumns.flagged(self.tau0 / other.tau0, self.f0 / other.f0,
                                       (self.notes != "", self.notes),
                                       (other.notes != "", other.notes), method=self.method)

    def pair(self, i: int = 0) -> BoundPair:
        """Row i as a BoundPair, singular also when a value is not finite and
        positive."""
        tau0, f0, note = float(self.tau0[i]), float(self.f0[i]), self.notes[i]
        if not note and not (0.0 < tau0 < math.inf and 0.0 < f0 < math.inf):
            note = OVERFLOW_NOTE
        if note:
            return BoundPair.singular_pair(note, self.method)
        return BoundPair(tau0, f0, method=self.method)


def eliminated_pair(fim: FimMatrix, separate: bool = False) -> BoundPair:
    """(tau0, f0) bounds of fim's first two parameters by eliminating the
    others, tagged schur_numeric: the diagonal of the eliminated block's
    inverse (joint), or with separate its reciprocal diagonal. A FIM that is
    not finite flags the pair as overflowed; a singular nuisance block, or an
    eliminated block singular against the diagonal of fim's leading one (a
    rule free of the time unit), as singular."""
    if not fim.solvable.finite:
        return BoundPair.singular_pair(OVERFLOW_NOTE, METHOD_SCHUR_NUMERIC)
    try:
        reduced = schur_complement(fim)
        inv = invert_bound_matrix(reduced, np.diag(fim.submatrix(fim.labels[:2])))
    except SingularFimError:
        inv = None
    if inv is None:
        return BoundPair.singular_pair("eliminated delay/Doppler block is singular",
                                       METHOD_SCHUR_NUMERIC)
    with np.errstate(over="ignore"):  # .pair() flags a value that overflowed
        pair = 1.0 / np.diag(reduced) if separate else np.diag(inv)
    return PairColumns(pair[:1], pair[1:], np.array([""], dtype=object),
                       METHOD_SCHUR_NUMERIC).pair()


@dataclass(frozen=True)
class CrbReport:
    """Named bound values plus provenance of the formula path that made them.

    All values are positive and finite unless the singular flag is set, in
    which case no unbiased estimator exists and values are infinite.
    """

    values: dict
    method: str
    singular: bool = False
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.singular:
            for name, value in self.values.items():
                if not (np.isfinite(value) and value > 0):
                    raise ValueError(
                        f"bound {name}={value} not positive finite and not flagged singular")
