"""Dense reference forms that the structured library paths are tested against.

The library evaluates the covariance-model FIM through the rank-two structure
of dC_i and eliminates the overlap sample block chain by chain. The forms
here build every matrix densely instead: sample gradients by differencing
stacked means, p explicit N x N covariance derivatives with the trace and
Kronecker formulas, and the overlap block D with a dense symmetric solve.
The Kronecker form holds an N^2 x N^2 matrix and the overlap solve is
O(M^3), so they suit small instances only. The one form here that is not
dense is the per-offset chain elimination of the overlap block, which the
library's grouped elimination reproduces bit for bit.
"""

import numpy as np
import scipy.linalg

from ddcrb.covariance import StackedModel, build_stacked
from ddcrb.fim import SINGULAR_COND, FimMatrix, SingularFimError
from ddcrb.overlap import OverlapFim
from ddcrb.signals import SampledSignal

EIG_FLOOR = 1e-12


# ------------------------------------------------------------- covariance

def stacked_mean(sig, sc) -> np.ndarray:
    """The stacked look means of build_stacked (white Sigma, which they do not
    depend on)."""
    dim = sc.record_samples(sig) * (sc.looks_direct + sc.looks_reflected)
    return build_stacked(sig, sc, np.eye(dim, dtype=complex)).s_stack


def sample_gradient(sig, sc, k: int, unit: complex) -> np.ndarray:
    """d s_stack / d(Re s_k) (unit 1) or d(Im s_k) (unit 1j), by differencing
    the stacks of two signals with sample k moved by +-unit: the stacked mean
    is linear in the samples, so the difference is exact up to rounding."""
    def moved(shift):
        samples = sig.samples.copy()
        samples[k] += shift
        return stacked_mean(SampledSignal(samples, sig.delta, sig.deriv), sc)

    return (moved(unit) - moved(-unit)) / 2.0


def dc_dtheta(model: StackedModel, sig, sc, k: int, unit: complex) -> np.ndarray:
    """dC = ds s^H + s ds^H for one sample parameter, ds from sample_gradient."""
    ds = sample_gradient(sig, sc, k, unit)
    return np.outer(ds, model.s_stack.conj()) + np.outer(model.s_stack, ds.conj())


def dense_dc(model: StackedModel, g: np.ndarray) -> list[np.ndarray]:
    """Expand factored derivatives (columns g_i) into dC_i = g_i s^H + s g_i^H."""
    s = model.s_stack
    return [np.outer(col, s.conj()) + np.outer(s, col.conj()) for col in g.T]


def _realize(fim: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(fim.real))) if fim.size else 0.0
    resid = float(np.max(np.abs(fim.imag))) if fim.size else 0.0
    if resid > 1e-10 * max(scale, 1.0):
        raise ValueError(f"FIM imaginary residue too large: {resid:.3e}")
    out = fim.real
    return 0.5 * (out + out.T)


def _labels(labels, p):
    return labels if labels is not None else tuple(f"theta_{i}" for i in range(p))


def fim_trace_dense(model: StackedModel, dc: list[np.ndarray],
                    labels: tuple[str, ...] | None = None) -> FimMatrix:
    """I_ij = Tr(C^{-1} dC_i C^{-1} dC_j) for arbitrary Hermitian dC_i."""
    try:
        np.linalg.cholesky(model.c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("C is not positive definite") from exc
    x = [np.linalg.solve(model.c, d) for d in dc]
    p = len(dc)
    fim = np.empty((p, p), dtype=complex)
    for i in range(p):
        for j in range(i, p):
            fim[i, j] = np.einsum("ij,ji->", x[i], x[j])
            fim[j, i] = fim[i, j].conjugate()
    return FimMatrix(_realize(fim), _labels(labels, p))


def fim_kron_form(model: StackedModel, dc: list[np.ndarray],
                  labels: tuple[str, ...] | None = None) -> FimMatrix:
    """I_ij = vec(dC_i)^H (conj(C)^{-1} kron C^{-1}) vec(dC_j).

    Independent of the trace form: explicit inverse, column-major
    vectorization, one dense Kronecker product.
    """
    c_inv = np.linalg.inv(model.c)
    kron = np.kron(c_inv.conj(), c_inv)
    vecs = np.column_stack([d.flatten(order="F") for d in dc])
    fim = vecs.conj().T @ kron @ vecs
    return FimMatrix(_realize(fim), _labels(labels, len(dc)))


def inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian inverse square root with eigenvalue floor 1e-12 * lambda_max."""
    lam, vec = np.linalg.eigh(mat)
    lam = np.maximum(lam, EIG_FLOOR * float(lam[-1]))
    return (vec * lam ** -0.5) @ vec.conj().T


def j_factors(model: StackedModel, dc: list[np.ndarray]) -> np.ndarray:
    """Columns J_i = (conj(C^{-1/2}) kron C^{-1/2}) vec(dC_i).

    The FIM factors as I_ij = J_i^H J_j.
    """
    c_mhalf = inv_sqrt(model.c)
    factor = np.kron(c_mhalf.conj(), c_mhalf)
    return factor @ np.column_stack([d.flatten(order="F") for d in dc])


# ---------------------------------------------------------------- overlap

def overlap_information_dense(of: OverlapFim) -> float:
    """e - b^T D^{-1} b with D built densely and solved directly."""
    if np.linalg.cond(of.d_mat) > SINGULAR_COND:
        raise SingularFimError("sample block of the overlap FIM is singular")
    return of.e - float(of.b_vec @ scipy.linalg.solve(of.d_mat, of.b_vec, assume_a="sym"))


def overlap_chain_quadratic(of: OverlapFim) -> float:
    """b^T D^{-1} b for one offset, eliminated chain by chain from of.b_vec.

    Outside total overlap D = (P/sigma_w2) * (2I + band at +-n0), which
    splits into chains r, r + n0, r + 2 n0, ... each equal to
    (P/sigma_w2) * tridiag(1, 2, 1). With the sign flip S = diag((-1)^k),
    S tridiag(1, 2, 1) S is the second-difference matrix, so for a chain v
    of length l, v^T tridiag(1, 2, 1)^{-1} v = sum_k (Q_k - mean Q)^2 where
    Q = (0, cumsum(S v)) has l + 1 entries. Disjoint support (n0 >= M) is
    the case of chains of length one.
    """
    c = of.looks / of.sigma_w2
    if of.regime == "total":
        return float(of.b_vec @ of.b_vec) / (4.0 * c)
    step = min(of.n0, of.m)
    q, rem = divmod(of.m, step)
    quad = 0.0
    # chains starting at r < rem have q + 1 entries, the rest q
    for length, starts in ((q + 1, np.arange(rem)), (q, np.arange(rem, step))):
        k = np.arange(length)[:, None]
        cum = np.cumsum((-1.0) ** k * of.b_vec[starts + step * k], axis=0)
        cum = np.vstack([np.zeros(starts.size), cum])
        quad += float(np.sum((cum - cum.mean(axis=0)) ** 2))
    return quad / c
