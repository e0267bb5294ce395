"""Covariance-form FIM for correlated clutter-plus-noise.

All L+P looks are stacked into one long observation vector whose covariance
C = s s^H + Sigma_cn embeds the deterministic signal stack as a rank-one
term. The FIM follows the covariance-derivative rule
I_ij = Tr(C^{-1} dC/dtheta_i C^{-1} dC/dtheta_j). Every dC_i has rank two,
so the FIM is evaluated from the N x p signal-gradient matrix and one factor
of C (Slepian-Bangs algebra for a rank-one covariance term, Kay 1993,
sec. 3.9). This is a different statistical model from the deterministic-mean
bounds elsewhere in the package and is reported as such; the two are not
expected to coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fim import (PSD_RTOL, SINGULAR_COND, SYMMETRY_RTOL, CrbReport, FimMatrix,
                  METHOD_SCHUR_NUMERIC)
from .signals import SampledSignal, Scenario, mean_vector


def _check_hermitian(mat: np.ndarray, name: str) -> float:
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if float(np.max(np.abs(mat - mat.conj().T))) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} must be Hermitian")
    return scale


def _check_hermitian_psd(mat: np.ndarray, name: str, scale: float | None = None) -> None:
    """lambda_min > -t, t = PSD_RTOL scale (default max|mat|, Hermitian checked),
    iff mat + t I is positive definite (Sylvester's law of inertia): one
    Cholesky, no eigenvalues."""
    shift = PSD_RTOL * max(_check_hermitian(mat, name) if scale is None else scale, 1e-300)
    try:
        np.linalg.cholesky(mat + shift * np.eye(len(mat)))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive semidefinite") from exc


@dataclass(frozen=True)
class StackedModel:
    """Stacked look means (L direct copies then P reflected copies) and
    C = s s^H + Sigma_cn."""

    s_stack: np.ndarray
    c: np.ndarray


def build_stacked(sig: SampledSignal, sc: Scenario, sigma_cn: np.ndarray) -> StackedModel:
    """Stack the look means and form C = s s^H + Sigma_cn."""
    n = sc.record_samples(sig)
    looks = sc.looks_direct + sc.looks_reflected
    if looks == 0:
        raise ValueError("need at least one look to stack: L = 0 and P = 0")
    sigma_cn = np.asarray(sigma_cn, dtype=complex)
    if sigma_cn.shape != (n * looks, n * looks):
        raise ValueError(
            f"Sigma_cn must be {n * looks} x {n * looks} for N={n}, L+P={looks}")
    _check_hermitian_psd(sigma_cn, "Sigma_cn")
    s_stack = np.concatenate([mean_vector(sig, sc, "direct")] * sc.looks_direct
                             + [mean_vector(sig, sc, "reflected")] * sc.looks_reflected)
    return StackedModel(s_stack=s_stack, c=np.outer(s_stack, s_stack.conj()) + sigma_cn)


def dc_list(model: StackedModel, sig: SampledSignal, sc: Scenario) -> np.ndarray:
    """Factored covariance derivatives: dC_i = g_i s^H + s g_i^H, G = [g_i].

    Columns tau0 and f0 (analytic signal derivative and j*2*pi*n*delta times
    the mean, reflected blocks only), then each sample's real and imaginary
    part: one nonzero per look, phase-rotated and scaled on reflected looks.
    """
    n, m = sc.record_samples(sig), sig.m
    g = np.zeros((sc.looks_direct + sc.looks_reflected, n, 2 + 2 * m), dtype=complex)
    if g.shape[0] * n != model.s_stack.size:
        raise ValueError("the model was stacked for another scenario or signal")
    k = np.arange(m)
    idx = sc.delay_samples(sig.delta) + k
    phase = np.exp(2j * np.pi * sc.f0 * idx * sig.delta)
    g[:sc.looks_direct, k, 2 + 2 * k] = 1.0
    g[:sc.looks_direct, k, 3 + 2 * k] = 1.0j
    reflected = g[sc.looks_direct:]
    reflected[:, idx, 0] = -sc.scale * sig.deriv * phase
    reflected[:, idx, 1] = 2j * np.pi * idx * sig.delta * sc.scale * sig.samples * phase
    reflected[:, idx, 2 + 2 * k] = sc.scale * phase
    reflected[:, idx, 3 + 2 * k] = sc.scale * 1.0j * phase
    return g.reshape(-1, 2 + 2 * m)


def fim_trace_form(model: StackedModel, dc: np.ndarray) -> FimMatrix:
    """I_ij = Tr(C^{-1} dC_i C^{-1} dC_j) for dC_i = g_i s^H + s g_i^H.

    That is 2 Re[y_i y_j + alpha H_ij] with alpha = s^H C^{-1} s,
    y = G^H C^{-1} s, H = G^H C^{-1} G. Splitting g_i = c_i s + r_i with
    c = s^H C^{-1} G / alpha (so r_i is C^{-1}-orthogonal to s) gives
    I = 2 alpha [2 alpha Re(c) Re(c)^T + Re(R^H C^{-1} R)]: the common-phase
    part Im(c_i), which the model cannot see, drops out before any product,
    so near-gauge entries do not come from cancelling large terms. One
    Cholesky factor of C whitens s and G (p + 1 right-hand sides).
    """
    return FimMatrix(_trace_form(model, dc), tuple(f"theta_{i}" for i in range(np.shape(dc)[1])))


def _trace_form(model: StackedModel, dc: np.ndarray) -> np.ndarray:
    """The symmetric matrix of fim_trace_form, not yet validated."""
    _check_hermitian(model.c, "C")
    try:
        chol = np.linalg.cholesky(model.c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("C is not positive definite") from exc
    g = np.asarray(dc, dtype=complex)
    w = np.linalg.solve(chol, np.column_stack([model.s_stack, g]))
    w_s, w_g = w[:, 0], w[:, 1:]
    alpha = float(np.vdot(w_s, w_s).real)
    # s = 0 makes every dC_i zero; c is then irrelevant
    c = w_s.conj() @ w_g / alpha if alpha > 0.0 else np.zeros(g.shape[1])
    resid = w_g - np.outer(w_s, c)
    fim = 2.0 * alpha * (2.0 * alpha * np.outer(c.real, c.real)
                         + (resid.conj().T @ resid).real)
    return 0.5 * (fim + fim.T)


def crb_correlated(model: StackedModel, dc: np.ndarray) -> CrbReport:
    """Delay/Doppler diagonal of the inverted covariance-model FIM.

    The full parameter vector (tau0, f0, all samples) is eliminated jointly.
    Because C = s s^H + Sigma_cn is blind to a common phase rotation of the
    signal stack, this FIM always carries a gauge null direction along
    (-s_I, s_R); null directions confined to the sample parameters are
    projected out, while any null direction touching (tau0, f0) means the
    delay/Doppler pair itself is not identifiable and the report is flagged
    singular (e.g. no direct-path look: delay trades off against signal
    timing exactly). The PSD check is Border.validate's, against |I|_F. The
    null directions and the inverse come from one eigendecomposition of
    D^-1/2 I D^-1/2, D = diag(I), whose eigenvalues are exact to eps p (those
    of I only to eps lambda_max): (lambda, v) is null when lambda <=
    1/SINGULAR_COND, so a change of time unit changes no null direction.
    """
    if np.ndim(dc) != 2 or np.shape(dc)[1] < 2:
        raise ValueError("dc needs the tau0 and f0 columns")
    fim = _trace_form(model, dc)
    _check_hermitian_psd(fim, "FIM", float(np.linalg.norm(fim)))
    # a diagonal entry not above 0 is a zero row of a PSD matrix: left unscaled
    d = np.sqrt(np.where(np.diag(fim) > 0.0, np.diag(fim), 1.0))
    lam, vec = np.linalg.eigh(fim / np.outer(d, d))
    null = lam <= 1.0 / SINGULAR_COND
    details = {"model": "covariance", "null_directions": int(np.sum(null))}
    if np.any(np.abs(vec[:2, null]) > 1e-6):
        return CrbReport(values={"tau0": float("inf"), "f0": float("inf")},
                         method=METHOD_SCHUR_NUMERIC, singular=True,
                         details={**details,
                                  "note": "delay/Doppler not identifiable in this model"})
    keep = ~null
    inv = (vec[:2, keep] / lam[keep]) @ vec[:2, keep].T / np.outer(d[:2], d[:2])
    return CrbReport(values={"tau0": float(inv[0, 0]), "f0": float(inv[1, 1])},
                     method=METHOD_SCHUR_NUMERIC, details=details)
