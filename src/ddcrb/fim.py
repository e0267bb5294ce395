"""Labeled Fisher information matrices and bound-report containers.

FimMatrix validates the symmetry/positive-semidefiniteness every assembled
information matrix must satisfy; schur_complement eliminates trailing
nuisance blocks and eliminated_pair turns a FIM into delay/Doppler bounds;
Bound/BoundPair/CrbReport carry bound values, a method tag and a singularity
flag, so rank-deficient scenarios (no unbiased estimator) give flagged results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    in 4.3): O(N b^2).
    """
    # Python floats: for the narrow bands here a scalar loop beats a few
    # numpy calls per column
    f = np.asarray(band, dtype=float).tolist()
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


def band_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Y with L Y = rhs by forward substitution, L a band_cholesky factor
    and rhs N x r: O(N b r)."""
    f = factor.tolist()
    nb, n = len(f), len(f[0])
    y = np.asarray(rhs, dtype=float).tolist()
    for i in range(n):
        row = y[i]
        for m in range(1, min(nb, i + 1)):
            lim = f[m][i - m]
            row = [a - lim * b for a, b in zip(row, y[i - m])]
        piv = f[0][i]
        y[i] = [a / piv for a in row]
    return np.array(y)


def band_norm1(band: np.ndarray) -> float:
    """|K|_1 (= |K|_inf, K symmetric) of the band matrix K, an upper bound on
    its spectral radius."""
    absb = np.abs(np.asarray(band, dtype=float))
    sums = absb.sum(axis=0)
    for d in range(1, len(absb)):
        sums[d:] += absb[d, :-d]  # the mirrored entries above the diagonal
    return float(np.max(sums))


@dataclass(frozen=True)
class Border:
    """Blocks of a bordered FIM [[A, B], [B^T, C]] with C = c (K kron I_2).

    a is the k x k block of the parameters of interest, b the k x 2N border
    over (real, imaginary) pairs of N nuisance coefficients, and gram is K:
    a scalar g for K = g I, or K's lower band as a (bw + 1, N) array,
    gram[d, j] = K[j + d, j], zero past the end (see band_cholesky). No
    N x N matrix is built or decomposed except by dense().
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    gram: float | np.ndarray = 1.0

    def dense(self) -> np.ndarray:
        k, n = len(self.a), self.b.shape[1] // 2
        size = k + 2 * n
        out = np.zeros((size, size))
        out[:k, :k] = self.a
        out[:k, k:] = self.b
        out[k:, :k] = self.b.T
        band = np.full((1, n), self.gram) if np.ndim(self.gram) == 0 else self.gram
        flat = out.reshape(-1)
        # entry (k + p + 2(j + d), k + p + 2j) of C and its mirror, for the
        # real (p = 0) and imaginary (p = 1) parts of the d-th diagonal of K
        for d, diag in enumerate(band[:n]):
            ck = self.c * diag[:n - d]
            for p in (k, k + 1):
                flat[p * (size + 1) + 2 * d * size::2 * (size + 1)][:n - d] = ck
                flat[p * (size + 1) + 2 * d::2 * (size + 1)][:n - d] = ck
        out.setflags(write=False)
        return out

    @functools.cached_property
    def gram_norm(self) -> float:
        """|K|_1, an upper bound on the largest eigenvalue of K."""
        return band_norm1(np.atleast_2d(self.gram))

    @functools.cached_property
    def gram_singular(self) -> bool:
        """Whether lambda_min(K) <= |K|_1 / SINGULAR_COND.

        By Sylvester's law of inertia K - t I is positive definite exactly
        when lambda_min(K) > t, so one band Cholesky of the shifted K decides
        it. |K|_1 >= lambda_max(K), so this flags every K whose eigenvalue
        range exceeds SINGULAR_COND. A scalar g stands for g I, whose
        inertia is that of the 1 x 1 band [g].
        """
        shifted = np.array(np.atleast_2d(self.gram), dtype=float)
        shifted[0] -= self.gram_norm / SINGULAR_COND
        return band_cholesky(shifted) is None

    @functools.cached_property
    def schur(self) -> np.ndarray | None:
        """Read-only A - B C^{-1} B^T, or None when C is not positive definite.

        Computed on first use and shared by validation and elimination.
        """
        if np.ndim(self.gram) == 0:
            ck = self.c * self.gram
            if not ck > 0.0:
                return None
            # the reciprocal scaling is what the LU solve of the dense path
            # does with a diagonal C, so both paths agree bit for bit
            out = self.a - self.b @ (self.b.T * (1.0 / ck))
        else:
            factor = band_cholesky(self.c * self.gram)
            if factor is None:
                return None
            k = len(self.a)
            y = band_solve(factor, np.hstack([self.b[:, 0::2].T, self.b[:, 1::2].T]))
            out = self.a - (y[:, :k].T @ y[:, :k] + y[:, k:].T @ y[:, k:])
        out = 0.5 * (out + out.T)
        out.setflags(write=False)
        return out

    def validate(self) -> bool:
        """Symmetry and PSD checks; False (nothing decided) if C is not PD.

        Haynsworth inertia additivity: the matrix is PSD iff C is PD and
        A - B C^{-1} B^T is PSD. Tolerances scale with |A|_F + |B|_F + |C|_1,
        an upper bound on the full spectral norm within a small factor. C is
        symmetric by construction (K is stored as its lower band).
        """
        spec = max(np.linalg.norm(self.a) + np.linalg.norm(self.b)
                   + abs(self.c) * self.gram_norm, 1e-300)
        asym = np.max(np.abs(self.a - self.a.T))
        if asym > SYMMETRY_RTOL * spec:
            raise ValueError(f"FIM not symmetric: |A - A^T| = {asym:.3e}")
        reduced = self.schur
        if reduced is None:
            return False
        eigmin = float(np.linalg.eigvalsh(reduced)[0])
        if eigmin < -PSD_RTOL * spec:
            raise ValueError(f"FIM not positive semidefinite: Schur lambda_min = {eigmin:.3e}")
        return True


@dataclass(frozen=True)
class FimMatrix:
    """Real symmetric PSD Fisher information matrix with parameter labels.

    A bordered one (entries None) builds its read-only entries on first use.
    """

    entries: np.ndarray | None
    labels: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)
    border: Border | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if self.border is not None:
            object.__delattr__(self, "entries")  # built by __getattr__ on demand
            # a label mismatch or a C that is not positive definite falls
            # through to the checks on the dense matrix
            if (len(labels) == len(self.border.a) + self.border.b.shape[1]
                    and self.border.validate()):
                return
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("FIM must be square")
        if len(labels) != entries.shape[0]:
            raise ValueError("one label per parameter required")
        scale = float(np.max(np.abs(entries))) if entries.size else 0.0
        asym = float(np.max(np.abs(entries - entries.T))) if entries.size else 0.0
        if asym > SYMMETRY_RTOL * max(scale, 1e-300):
            raise ValueError(f"FIM not symmetric: |A - A^T| = {asym:.3e}")
        eigs = np.linalg.eigvalsh(entries)
        eigmin = float(eigs[0])
        spec = float(np.max(np.abs(eigs))) if scale else 0.0
        if eigmin < -PSD_RTOL * max(spec, 1e-300):
            raise ValueError(f"FIM not positive semidefinite: lambda_min = {eigmin:.3e}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __getattr__(self, name):
        # reached only for the entries of a bordered FIM before first use
        if name != "entries" or self.border is None:
            raise AttributeError(name)
        entries = self.border.dense()
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def submatrix(self, labels) -> np.ndarray:
        idx = [self.index(lbl) for lbl in labels]
        if self.border is not None and max(idx) < len(self.border.a):
            return self.border.a[np.ix_(idx, idx)]
        return self.entries[np.ix_(idx, idx)]

    def drop(self, label: str) -> "FimMatrix":
        """FIM with one parameter removed (treated as known, not eliminated)."""
        keep = [i for i, lbl in enumerate(self.labels) if lbl != label]
        return FimMatrix(self.entries[np.ix_(keep, keep)],
                         tuple(self.labels[i] for i in keep), dict(self.meta))


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

    keep is the size of the leading parameter block that survives. Raises
    SingularFimError when the nuisance block C is not invertible
    (condition estimate above 1e12); a singular *result* is legitimate
    and left to the caller to detect. A bordered FIM with keep <= k and C
    positive definite eliminates C from its blocks, then k - keep rows densely.
    """
    if keep < 1 or keep > fim.dim:
        raise ValueError("keep must be between 1 and the FIM dimension")
    border = fim.border
    if border is not None and keep <= len(border.a):
        reduced = border.schur
        if reduced is not None:
            if border.gram_singular:
                raise SingularFimError("nuisance block is singular")
            return _eliminate(reduced, keep, border.c * border.gram_norm)
    return _eliminate(fim.entries, keep)


def invert_bound_matrix(reduced: np.ndarray, scale: float | None = None) -> np.ndarray | None:
    """Invert an eliminated parameter block; None when it is singular.

    scale sets the magnitude against which "singular" is judged (pass the
    parent FIM's leading-block norm so that an exactly-eliminated block,
    left as rounding noise, is recognized); defaults to the block's own norm.
    """
    if not np.all(np.isfinite(reduced)):
        return None
    if scale is None:
        scale = float(np.max(np.abs(reduced)))
    sym = 0.5 * (reduced + reduced.T)
    eigs = np.linalg.eigvalsh(sym)
    if np.min(eigs) <= max(scale, 1e-300) / SINGULAR_COND:
        return None
    return np.linalg.inv(sym)


@dataclass(frozen=True)
class Bound:
    """A single variance lower bound; infinite and flagged when singular."""

    value: float
    singular: bool = False
    note: str = ""

    def __float__(self) -> float:
        return self.value

    @classmethod
    def singular_bound(cls, note: str) -> "Bound":
        return cls(value=float("inf"), singular=True, note=note)


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


def eliminated_pair(fim: FimMatrix) -> BoundPair:
    """(tau0, f0) bounds of fim's first two parameters by eliminating the
    others and inverting, tagged schur_numeric. A singular nuisance block, or
    an eliminated block singular against fim's leading one, flags the pair."""
    try:
        inv = invert_bound_matrix(schur_complement(fim),
                                  float(np.max(np.abs(fim.submatrix(fim.labels[:2])))))
    except SingularFimError:
        inv = None
    if inv is None:
        return BoundPair.singular_pair("eliminated delay/Doppler block is singular",
                                       METHOD_SCHUR_NUMERIC)
    return BoundPair(float(inv[0, 0]), float(inv[1, 1]), method=METHOD_SCHUR_NUMERIC)


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
