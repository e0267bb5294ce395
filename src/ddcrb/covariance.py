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

from .bounds import unknown_signal_labels
from .fim import SINGULAR_COND, CrbReport, FimMatrix, METHOD_SCHUR_NUMERIC
from .signals import SampledSignal, Scenario, mean_vector

HERMITIAN_RTOL = 1e-12
PSD_RTOL = 1e-10


def _check_hermitian(mat: np.ndarray, name: str) -> float:
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if float(np.max(np.abs(mat - mat.conj().T))) > HERMITIAN_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} must be Hermitian")
    return scale


def _check_hermitian_psd(mat: np.ndarray, name: str) -> None:
    scale = _check_hermitian(mat, name)
    eigmin = float(np.min(np.linalg.eigvalsh(mat)))
    if eigmin < -PSD_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class StackedModel:
    """Stacked observation stack: L direct copies then P reflected copies."""

    s_stack: np.ndarray
    sigma_cn: np.ndarray
    c: np.ndarray
    n: int
    looks_direct: int
    looks_reflected: int

    @property
    def dim(self) -> int:
        return self.s_stack.size


def build_stacked(sig: SampledSignal, sc: Scenario, sigma_cn: np.ndarray) -> StackedModel:
    """Stack the look means and form C = s s^H + Sigma_cn."""
    n = sc.record_samples(sig)
    looks = sc.looks_direct + sc.looks_reflected
    sigma_cn = np.asarray(sigma_cn, dtype=complex)
    if sigma_cn.shape != (n * looks, n * looks):
        raise ValueError(
            f"Sigma_cn must be {n * looks} x {n * looks} for N={n}, L+P={looks}")
    _check_hermitian_psd(sigma_cn, "Sigma_cn")
    direct = mean_vector(sig, sc, "direct")
    reflected = mean_vector(sig, sc, "reflected")
    s_stack = np.concatenate([direct] * sc.looks_direct
                             + [reflected] * sc.looks_reflected)
    c = np.outer(s_stack, s_stack.conj()) + sigma_cn
    return StackedModel(s_stack=s_stack, sigma_cn=sigma_cn, c=c, n=n,
                        looks_direct=sc.looks_direct,
                        looks_reflected=sc.looks_reflected)


def stack_gradient(model: StackedModel, sig: SampledSignal, sc: Scenario,
                   label: str) -> np.ndarray:
    """Derivative of the signal stack with respect to one parameter.

    tau0 differentiates the sampled delay through the analytic signal
    derivative (with the Doppler phase), f0 brings down j*2*pi*n*delta on the
    reflected blocks, and each sample parameter is an indicator pattern
    replicated across looks (phase-rotated on the reflected path).
    """
    n0 = sc.delay_samples(sig.delta)
    n = model.n
    idx = np.arange(n0, n0 + sig.m)
    phase = np.exp(2j * np.pi * sc.f0 * idx * sig.delta)
    d_direct = np.zeros(n, dtype=complex)
    d_reflected = np.zeros(n, dtype=complex)
    if label == "tau0":
        d_reflected[idx] = -sc.scale * sig.deriv * phase
    elif label == "f0":
        d_reflected[idx] = (2j * np.pi * idx * sig.delta
                            * sc.scale * sig.samples * phase)
    elif label.startswith(("sR_", "sI_")):
        k = int(label.split("_", 1)[1])
        if not 0 <= k < sig.m:
            raise ValueError(f"sample index out of range in {label!r}")
        unit = 1.0 if label.startswith("sR_") else 1.0j
        d_direct[k] = unit
        d_reflected[n0 + k] = sc.scale * unit * phase[k]
    else:
        raise ValueError(f"unknown parameter {label!r}")
    return np.concatenate([d_direct] * model.looks_direct
                          + [d_reflected] * model.looks_reflected)


def dc_list(model: StackedModel, sig: SampledSignal, sc: Scenario) -> np.ndarray:
    """Covariance derivatives for the full (tau0, f0, samples) vector, factored.

    dC_i = g_i s^H + s g_i^H, so the N x p matrix G = [g_1 ... g_p] of
    `stack_gradient` columns carries every derivative.
    """
    return np.column_stack([stack_gradient(model, sig, sc, label)
                            for label in unknown_signal_labels(sig.m)])


def fim_trace_form(model: StackedModel, dc: np.ndarray,
                   labels: tuple[str, ...] | None = None) -> FimMatrix:
    """I_ij = Tr(C^{-1} dC_i C^{-1} dC_j) for dC_i = g_i s^H + s g_i^H.

    That is 2 Re[y_i y_j + alpha H_ij] with alpha = s^H C^{-1} s,
    y = G^H C^{-1} s, H = G^H C^{-1} G. Splitting g_i = c_i s + r_i with
    c = s^H C^{-1} G / alpha (so r_i is C^{-1}-orthogonal to s) gives
    I = 2 alpha [2 alpha Re(c) Re(c)^T + Re(R^H C^{-1} R)]: the common-phase
    part Im(c_i), which the model cannot see, drops out before any product,
    so near-gauge entries do not come from cancelling large terms. One
    Cholesky factor of C whitens s and G (p + 1 right-hand sides).
    """
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
    if labels is None:
        labels = tuple(f"theta_{i}" for i in range(g.shape[1]))
    return FimMatrix(0.5 * (fim + fim.T), labels)


def crb_correlated(model: StackedModel, dc: np.ndarray,
                   labels: tuple[str, ...] | None = None) -> CrbReport:
    """Delay/Doppler diagonal of the inverted covariance-model FIM.

    The full parameter vector (tau0, f0, all samples) is eliminated jointly.
    Because C = s s^H + Sigma_cn is blind to a common phase rotation of the
    signal stack, this FIM always carries a gauge null direction along
    (-s_I, s_R); null directions confined to the sample parameters are
    projected out, while any null direction touching (tau0, f0) means the
    delay/Doppler pair itself is not identifiable and the report is flagged
    singular (e.g. no direct-path look: delay trades off against signal
    timing exactly).
    """
    fim = fim_trace_form(model, dc, labels)
    lam, vec = np.linalg.eigh(fim.entries)
    lam_max = float(lam[-1]) if lam.size else 0.0
    null = lam <= lam_max / SINGULAR_COND
    details = {"model": "covariance", "null_directions": int(np.sum(null))}
    if np.any(np.abs(vec[:2, null]) > 1e-6):
        return CrbReport(values={"tau0": float("inf"), "f0": float("inf")},
                         method=METHOD_SCHUR_NUMERIC, singular=True,
                         details={**details,
                                  "note": "delay/Doppler not identifiable in this model"})
    keep = ~null
    inv = (vec[:, keep] / lam[keep]) @ vec[:, keep].T
    return CrbReport(values={"tau0": float(inv[0, 0]), "f0": float(inv[1, 1])},
                     method=METHOD_SCHUR_NUMERIC, details=details)
