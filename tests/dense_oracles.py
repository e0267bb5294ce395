"""Dense reference forms that the structured library paths are tested against.

The library evaluates the covariance-model FIM through the rank-two structure
of dC_i and the overlap bound through the alternating chain sums of the
derivative. The forms here build every matrix densely instead: sample
gradients by differencing stacked means, p explicit N x N covariance
derivatives with the trace and Kronecker formulas, and the overlap blocks
e, b and D with a dense symmetric solve. The Kronecker form holds an
N^2 x N^2 matrix and the overlap solve is O(M^3), so they suit small
instances only. The forms here that are not dense are the per-offset chain
elimination of the overlap block, which the library's closed form matches
to 1e-12 of e, and the per-row closed-form bounds of the crb, sweep and
table1 commands, on Python floats one scenario at a time, which the
library's column evaluation reproduces bit for bit.
"""

import numpy as np
import scipy.linalg

from ddcrb import cli
from ddcrb.bounds import TWO_PI2, fim_unknown_signal, unknown_signal_labels, weighted_sums
from ddcrb.covariance import StackedModel, build_stacked, dc_list
from ddcrb.fim import SINGULAR_COND, BoundPair, FimMatrix, SingularFimError, eliminated_pair
from ddcrb.overlap import OverlapFim, overlap_regime
from ddcrb.signals import SampledSignal
from ddcrb.structure import structure_quantities

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


def fim_path_noise_levels(sig, sc, sigma_r2: float) -> FimMatrix:
    """Dense FIM of (tau0, f0, Re and Im of each sample) when the reflected looks
    carry noise variance sigma_r2 and the direct looks sc.sigma_w2: 2 Re(G^H W G),
    G the stacked mean's gradient (dc_list) and W the inverse variance of each
    stacked entry."""
    n = sc.record_samples(sig)
    g = dc_list(build_stacked(sig, sc, np.eye(n * (sc.looks_direct + sc.looks_reflected))),
                sig, sc)
    w = np.repeat([1.0 / sc.sigma_w2] * sc.looks_direct + [1.0 / sigma_r2] * sc.looks_reflected, n)
    fim = 2.0 * np.real((g.conj().T * w) @ g)
    return FimMatrix(0.5 * (fim + fim.T), unknown_signal_labels(sig.m))


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

def overlap_blocks(of: OverlapFim) -> tuple[float, np.ndarray, np.ndarray]:
    """The bordered FIM (e, b, D) of (tau0, s(0), ..., s((M-1)delta)) at
    offset of.n0, built densely.

    e = (P/sigma_w2) sum s'(n*delta)^2 always. Outside overlap the coupling
    is b_j = -(P/sigma_w2) s' and D = (2P/sigma_w2) I; at total overlap both
    double; partial overlap adds s'((n-n0)*delta) to b on n >= n0 and a
    P/sigma_w2 band at offset n0 in D.
    """
    p, s2, d, n0, m = of.looks, of.sigma_w2, of.deriv, of.n0, of.m
    regime = overlap_regime(n0, m)
    e = p / s2 * float(np.sum(d ** 2))
    b = -(p / s2) * d
    c, eye = p / s2, np.eye(m)
    if regime == "total":
        return e, 2.0 * b, 4.0 * c * eye
    if regime == "partial":
        b[n0:] += -(p / s2) * d[: m - n0]
    # the +-n0 band is empty for disjoint support (n0 >= M)
    return e, b, c * (2.0 * eye + np.eye(m, k=n0) + np.eye(m, k=-n0))


def overlap_information_dense(of: OverlapFim) -> float:
    """e - b^T D^{-1} b with D built densely and solved directly."""
    e, b, d_mat = overlap_blocks(of)
    if np.linalg.cond(d_mat) > SINGULAR_COND:
        raise SingularFimError("sample block of the overlap FIM is singular")
    return e - float(b @ scipy.linalg.solve(d_mat, b, assume_a="sym"))


def overlap_chain_quadratic(of: OverlapFim) -> float:
    """b^T D^{-1} b for one offset, eliminated chain by chain from the b of
    overlap_blocks.

    Outside total overlap D = (P/sigma_w2) * (2I + band at +-n0), which
    splits into chains r, r + n0, r + 2 n0, ... each equal to
    (P/sigma_w2) * tridiag(1, 2, 1). With the sign flip S = diag((-1)^k),
    S tridiag(1, 2, 1) S is the second-difference matrix, so for a chain v
    of length l, v^T tridiag(1, 2, 1)^{-1} v = sum_k (Q_k - mean Q)^2 where
    Q = (0, cumsum(S v)) has l + 1 entries. Disjoint support (n0 >= M) is
    the case of chains of length one.
    """
    b = overlap_blocks(of)[1]
    c = of.looks / of.sigma_w2
    if overlap_regime(of.n0, of.m) == "total":
        return float(b @ b) / (4.0 * c)
    step = min(of.n0, of.m)
    q, rem = divmod(of.m, step)
    quad = 0.0
    # chains starting at r < rem have q + 1 entries, the rest q
    for length, starts in ((q + 1, np.arange(rem)), (q, np.arange(rem, step))):
        k = np.arange(length)[:, None]
        cum = np.cumsum((-1.0) ** k * b[starts + step * k], axis=0)
        cum = np.vstack([np.zeros(starts.size), cum])
        quad += float(np.sum((cum - cum.mean(axis=0)) ** 2))
    return quad / c


# ------------------------------------------------------- per-row CLI bounds

def signal_bounds(sig, sc) -> tuple[BoundPair, BoundPair, BoundPair]:
    """(known, joint, separate) of one scenario on Python floats."""
    s_dd, s_ww, e = weighted_sums(sig, sc.tau0)
    den = s_dd * s_ww - e * e
    if den <= s_dd * s_ww / SINGULAR_COND or s_dd <= 0.0:
        known = BoundPair.singular_pair("degenerate signal: zero information determinant")
    else:
        known = BoundPair(tau0=sc.sigma_w2 * s_ww / (2.0 * den),
                          f0=sc.sigma_w2 * s_dd / (TWO_PI2 * den))
    l, p = sc.looks_direct, sc.looks_reflected
    if l == 0 or p == 0:
        return (known,
                BoundPair.singular_pair("L = 0 or P = 0: no unbiased joint estimator"),
                BoundPair.singular_pair("L = 0 or P = 0: no unbiased estimator"))
    a2 = sc.scale * sc.scale
    factor = (l + a2 * p) / (l * p)
    if s_dd <= 0.0 or s_ww <= 0.0:
        separate = BoundPair.singular_pair("degenerate signal: zero information")
    else:
        separate = BoundPair(tau0=factor * sc.sigma_w2 / (2.0 * a2 * s_dd),
                             f0=factor * sc.sigma_w2 / (TWO_PI2 * a2 * s_ww))
    return known, known.scaled(factor / a2), separate


def structure_pair(pt, sc, scale_known: bool = True) -> BoundPair:
    """The structured closed-form pair of one scenario on Python floats."""
    l, p = sc.looks_direct, sc.looks_reflected
    sq = structure_quantities(pt, sc.tau0)
    if p == 0 or sq.e_g <= 0.0:
        return BoundPair.singular_pair("P = 0 or zero pulse: no delay/Doppler information")
    a2 = sc.scale * sc.scale
    pfrac = a2 * p / (l + a2 * p)
    d11 = sq.dg2 - (pfrac if scale_known else 1.0) * (sq.rho * sq.rho) / sq.e_g
    d22 = sq.w_b2 - pfrac * sq.gamma2_b2 / sq.e_g
    if d11 <= sq.dg2 / SINGULAR_COND or d22 <= sq.w_b2 / SINGULAR_COND:
        return BoundPair.singular_pair(
            "degenerate pulse: amplitude block absorbs all delay/Doppler information")
    v11 = (2.0 * a2 * p / sc.sigma_w2) * pt.amp_energy * d11
    v22 = (TWO_PI2 * a2 * p / sc.sigma_w2) * d22
    return BoundPair(tau0=1.0 / v11, f0=1.0 / v22)


def bound_pairs(sig, pt, sc, tag: str = "") -> dict:
    """{column pattern: BoundPair} of one crb or sweep row."""
    known, joint, separate = signal_bounds(sig, sc)
    structured = {} if pt is None else {f"jcrb_{{}}_b{tag}": structure_pair(pt, sc)}
    return {"jcrb_{}": known.scaled(1.0 / (sc.scale * sc.scale)), f"jcrb_{{}}_s{tag}": joint,
            f"crb_{{}}_s{tag}": separate, **structured}


def _command_rows(name: str, cfg, given) -> list[tuple[dict, dict]]:
    """(lead cells, {column pattern: BoundPair}) of each row, one scenario at a time."""
    if name == "crb":
        delta = cli._resolve_delta(cfg, given)
        pulse = cfg["signal"] == "gaussian_pulse_train"
        out = []
        for convention in ["unit", "sqrt2"] if cfg["amp_convention"] == "both" and pulse \
                else [cfg["amp_convention"]]:
            sig, pt = cli.build_signal(cfg, delta, convention)
            sc = cfg.scenario()
            out.append(({"amp_convention": convention if pt is not None else None,
                         "L": sc.looks_direct, "P": sc.looks_reflected, "a": sc.scale,
                         "sigma_w2": sc.sigma_w2, "tau0": sc.tau0, "f0": sc.f0},
                        bound_pairs(sig, pt, sc)))
        return out
    if name == "table1":
        delta, out = cli._resolve_delta(cfg, given), []
        for convention in ["unit", "sqrt2"] if cfg["amp_convention"] == "both" \
                else [cfg["amp_convention"]]:
            sig, _ = cli.build_signal(cfg, delta, convention)
            for looks in (1, 2, 100):
                sc = cfg.scenario(looks_direct=looks, looks_reflected=1, scale=1.0)
                known, unknown, _ = signal_bounds(sig, sc)
                out.append(({"amp_convention": convention, "L": looks},
                            {"jcrb_{}_s": unknown, "jcrb_{}": known,
                             "ratio_{}": unknown.over(known),
                             "jcrb_{}_s_schur": eliminated_pair(fim_unknown_signal(sig, sc))}))
        return out
    axis, values = cli._parse_sweep(cfg["sweep"])
    if axis != "n_p":
        delta = cli._resolve_delta(cfg, given)
        sig, pt = cli.build_signal(cfg, delta)
    out = []
    for value in values:
        if axis == "n_p":
            local = cli.RunConfig(cfg, np=int(value))
            delta = cli._resolve_delta(local, given)
            sig, pt = cli.build_signal(local, delta)
            row, scenarios = {"n_p": int(value), "delta": delta}, {"": local.scenario()}
        elif axis == "L":
            row = {"L": int(value)}
            scenarios = {f"_{tag}": cfg.scenario(looks_direct=int(value), looks_reflected=p)
                         for tag, p in (("p1", 1), ("pl", max(int(value), 1)))}
        else:
            point = value.item()
            row = {axis: point}
            if axis == "n0":
                row["tau0"] = point = point * delta
            scenarios = {"": cfg.scenario(**{cli._SWEEP_FIELDS[axis]: point})}
        pairs = {}
        for tag, sc in scenarios.items():
            pairs.update((key, pair) for key, pair in bound_pairs(sig, pt, sc, tag).items()
                         if not key.startswith("crb"))
        out.append((row, pairs))
    return out


def cli_rows(argv: list[str]) -> list[tuple[dict, dict, dict]]:
    """(values, methods, {cell key: BoundPair}) of each row that the crb,
    sweep or table1 command of argv prints, made one scenario at a time: a
    singular pair's cells are None and listed in the row's singular keys."""
    name, *args = argv
    params = cli.COMMANDS[name].parse(list(args))
    cfg, given = cli.merge_config(params.pop("config_path"), **params)
    out = []
    for lead, pairs in _command_rows(name, cfg, given):
        values, methods, cells, flagged = dict(lead), {}, {}, []
        for pattern, pair in pairs.items():
            for part, value in zip(("tau0", "f0"), pair):
                key = pattern.format(part)
                values[key] = None if pair.singular else value
                methods[key], cells[key] = pair.method, pair
                if pair.singular:
                    flagged.append(key)
        if name == "table1":
            values = {key: values[key] for key in (*lead, *cli.TABLE1_COLUMNS)}
            methods = {key: methods[key] for key in cli.TABLE1_COLUMNS}
        else:
            values["singular"] = ";".join(flagged)
        out.append((values, methods, cells))
    return out


# ------------------------------------------------------------- pulse trains

def synthesize_pulse_train_loop(pt) -> tuple[np.ndarray, np.ndarray]:
    """(samples, deriv) of pt as a sum of its period-shifted pulse copies,
    added one copy at a time into zeros: signals.synthesize_pulse_train
    must give these bytes."""
    m = pt.m
    samples = np.zeros(m, dtype=complex)
    deriv = np.zeros(m, dtype=complex)
    for q in range(pt.n_pulses):
        start = q * pt.n_p
        stop = min(start + pt.n_p + 1, m)
        length = stop - start
        samples[start:stop] += pt.b[q] * pt.g[:length]
        deriv[start:stop] += pt.b[q] * pt.g_deriv[:length]
    return samples, deriv
