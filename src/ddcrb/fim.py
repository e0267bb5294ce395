"""Labeled Fisher information matrices and bound-report containers.

FimMatrix validates the symmetry/positive-semidefiniteness every assembled
information matrix must satisfy; schur_complement eliminates trailing
nuisance-parameter blocks; Bound/BoundPair/CrbReport carry bound values
together with an explicit singularity flag so that rank-deficient scenarios
(no unbiased estimator) produce flagged results instead of exceptions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
SINGULAR_COND = 1e12

METHOD_CLOSED_FORM = "closed_form"
METHOD_SCHUR_NUMERIC = "schur_numeric"
METHOD_ORACLE = "oracle"
METHOD_MONTE_CARLO = "monte_carlo"


class SingularFimError(np.linalg.LinAlgError):
    """Raised when a nuisance block that must be inverted is singular."""


@dataclass(frozen=True)
class Border:
    """Blocks of a bordered FIM [[A, B], [B^T, C]] with C = c (K kron I_2).

    a is the k x k block of the parameters of interest, b the k x 2N border
    over (real, imaginary) pairs of N nuisance coefficients, and gram is K:
    a scalar g for K = g I, or the N x N Gram matrix of overlapping pulses.
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    gram: float | np.ndarray = 1.0

    def dense(self) -> np.ndarray:
        k, n = len(self.a), self.b.shape[1] // 2
        ck = self.c * (np.eye(n) * self.gram if np.ndim(self.gram) == 0 else self.gram)
        out = np.zeros((k + 2 * n, k + 2 * n))
        out[:k, :k] = self.a
        out[:k, k:] = self.b
        out[k:, :k] = self.b.T
        out[k::2, k::2] = out[k + 1::2, k + 1::2] = ck
        out.setflags(write=False)
        return out

    @functools.cached_property
    def schur(self) -> np.ndarray | None:
        """Read-only A - B C^{-1} B^T, or None when C is not positive definite.

        Computed on first use and shared by validation and elimination.
        """
        if np.ndim(self.gram) == 0:
            ck = self.c * self.gram
            if not ck > 0.0:
                return None
            # the reciprocal scaling is what the LDL^T solve of the dense
            # path does with a diagonal C, so both paths agree bit for bit
            out = self.a - self.b @ (self.b.T * (1.0 / ck))
        else:
            try:
                chol = np.linalg.cholesky(self.c * self.gram)
            except np.linalg.LinAlgError:
                return None
            import scipy.linalg  # here, not at module level: it dominates start-up
            k = len(self.a)
            y = scipy.linalg.solve_triangular(
                chol, np.hstack([self.b[:, 0::2].T, self.b[:, 1::2].T]), lower=True)
            out = self.a - (y[:, :k].T @ y[:, :k] + y[:, k:].T @ y[:, k:])
        out = 0.5 * (out + out.T)
        out.setflags(write=False)
        return out

    def validate(self) -> bool:
        """Symmetry and PSD checks; False (nothing decided) if C is not PD.

        Haynsworth inertia additivity: the matrix is PSD iff C is PD and
        A - B C^{-1} B^T is PSD. Tolerances scale with |A|_F + |B|_F + |C|_inf,
        an upper bound on the full spectral norm within a small factor.
        """
        kmat = np.atleast_2d(self.gram)
        spec = max(np.linalg.norm(self.a) + np.linalg.norm(self.b)
                   + abs(self.c) * np.linalg.norm(kmat, np.inf), 1e-300)
        asym = max(np.max(np.abs(self.a - self.a.T)),
                   abs(self.c) * np.max(np.abs(kmat - kmat.T)))
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
    import scipy.linalg  # here, not at module level: it dominates start-up
    x = scipy.linalg.solve(c, b.T, assume_a="sym")
    out = a - b @ x
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
            k_eigs = np.linalg.eigvalsh(np.atleast_2d(border.gram))  # C's range over c
            if k_eigs[0] <= k_eigs[-1] / SINGULAR_COND:
                raise SingularFimError("nuisance block is singular")
            return _eliminate(reduced, keep, border.c * k_eigs[-1])
    return _eliminate(fim.entries, keep)


def schur_complement_2x2(fim: FimMatrix) -> np.ndarray:
    """Schur complement keeping the leading (tau0, f0) block."""
    return schur_complement(fim, keep=2)


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
    """Delay and Doppler bounds from one formula path."""

    tau0: float
    f0: float
    singular: bool = False
    note: str = ""

    def __iter__(self) -> Iterator[float]:
        return iter((self.tau0, self.f0))

    def scaled(self, factor: float) -> "BoundPair":
        return BoundPair(self.tau0 * factor, self.f0 * factor,
                         self.singular, self.note)

    @classmethod
    def singular_pair(cls, note: str) -> "BoundPair":
        return cls(tau0=float("inf"), f0=float("inf"), singular=True, note=note)


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
