"""Independent verification paths: finite-difference FIMs and Monte Carlo.

The finite-difference oracle rebuilds every information matrix in the
package from nothing but the stacked observation means, by central
differences of smooth continuous-time signal models. The Monte Carlo
harness checks achievability: the 2+2M-parameter likelihood is concentrated
in closed form over the unknown signal samples (for each delay/Doppler
candidate the per-sample least-squares signal estimate is the average of
the L direct looks and the P delay-aligned, phase-derotated reflected
looks), leaving a 2-D grid search whose empirical error is compared to the
bounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds
from .fim import FimMatrix
from .signals import PulseTrain, SampledSignal, Scenario, mean_vector
from .structure import structure_labels

FD_STEP_F = 1e-5
FD_STEP_SAMPLE = 1e-6
FD_STEP_SCALE = 1e-6
# largest phase table built whole (16 MiB); above it each delay is scored from
# its own Doppler x sample slice, so memory no longer grows with the delay count
PHASE_TABLE_MAX_BYTES = 1 << 24


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo setup: deterministic seeds and the 2-D search grids.

    tau_grid holds candidate delays in samples (integers); f_grid holds
    Doppler candidates. refine turns on quadratic peak interpolation around
    the grid maximum on both axes.
    """

    trials: int
    seed: int
    tau_grid: tuple[int, ...]
    f_grid: tuple[float, ...]
    refine: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "tau_grid", tuple(int(v) for v in self.tau_grid))
        object.__setattr__(self, "f_grid", tuple(float(v) for v in self.f_grid))
        # a one-point axis never estimates its parameter (zero error, ratio 0)
        for name, grid in (("tau_grid", self.tau_grid), ("f_grid", self.f_grid)):
            if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} needs at least 2 strictly increasing points")

    def check_covers(self, n0: int, f0: float) -> None:
        """Raise ValueError unless the grids span the true delay n0 and Doppler f0."""
        if not self.tau_grid[0] <= n0 <= self.tau_grid[-1]:
            raise ValueError("true delay outside tau_grid hull")
        if not self.f_grid[0] <= f0 <= self.f_grid[-1]:
            raise ValueError("true Doppler outside f_grid hull")


@dataclass(frozen=True)
class Observations:
    """One simulated batch: L direct looks and P reflected looks, each N long."""

    direct: np.ndarray
    reflected: np.ndarray
    delta: float
    m: int

    @property
    def record_length(self) -> int:
        return self.reflected.shape[1] if self.reflected.size else self.direct.shape[1]


def simulate_observations(sig: SampledSignal, sc: Scenario, seed) -> Observations:
    """Draw the look means plus iid circular complex Gaussian noise.

    The complex noise variance is sigma_w2 per sample, split evenly between
    the real and imaginary parts. Deterministic given the seed.
    """
    n = sc.record_samples(sig)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sc.sigma_w2 / 2.0)

    def noisy(mu: np.ndarray, count: int) -> np.ndarray:
        noise = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        return mu[None, :] + scale * noise

    direct = noisy(mean_vector(sig, sc, "direct"), sc.looks_direct) \
        if sc.looks_direct else np.zeros((0, n), complex)
    reflected = noisy(mean_vector(sig, sc, "reflected"), sc.looks_reflected) \
        if sc.looks_reflected else np.zeros((0, n), complex)
    return Observations(direct=direct, reflected=reflected, delta=sig.delta, m=sig.m)


def _parabolic_offset(y_minus: float, y_center: float, y_plus: float) -> float:
    """Peak offset in grid units of the parabola through three ordinates."""
    curv = y_minus - 2.0 * y_center + y_plus
    if curv >= 0.0:
        return 0.0
    return float(np.clip(0.5 * (y_minus - y_plus) / curv, -0.5, 0.5))


def _refine_2d(stat: np.ndarray, i0: int, j0: int,
               tau_vals: np.ndarray, f_vals: np.ndarray) -> tuple[float, float]:
    tau = float(tau_vals[i0])
    if 0 < i0 < stat.shape[0] - 1:
        step = 0.5 * (tau_vals[i0 + 1] - tau_vals[i0 - 1])
        tau += step * _parabolic_offset(stat[i0 - 1, j0], stat[i0, j0], stat[i0 + 1, j0])
    f = float(f_vals[j0])
    if 0 < j0 < stat.shape[1] - 1:
        step = 0.5 * (f_vals[j0 + 1] - f_vals[j0 - 1])
        f += step * _parabolic_offset(stat[i0, j0 - 1], stat[i0, j0], stat[i0, j0 + 1])
    return tau, f


def _phases(tau_grid: tuple[int, ...], f_grid: tuple[float, ...], m: int,
            delta: float) -> np.ndarray:
    """(delay x Doppler x sample) table exp(-2j pi f (m + n0) delta)."""
    t = (np.arange(m) + np.asarray(tau_grid)[:, None]) * delta
    return np.exp(-2j * np.pi * (np.asarray(f_grid)[None, :, None] * t[:, None, :]))


@functools.lru_cache(maxsize=4)
def _phase_table(tau_grid: tuple[int, ...], f_grid: tuple[float, ...], m: int,
                 delta: float) -> np.ndarray:
    """Read-only _phases table of the whole grid.

    It depends on the grids and the window only, never on the data, so one
    table serves every trial of a Monte Carlo run.
    """
    table = _phases(tau_grid, f_grid, m, delta)
    table.flags.writeable = False
    return table


def _grid_search(obs: Observations, cfg: McConfig,
                 stat: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Maximize a statistic over the (delay, Doppler) grid, refined if asked.

    stat(v, table) gets v, the sums of the reflected looks over the window at
    I delay candidates (I x M), and their phase table (I x F x M); it returns
    the statistic on those rows of the grid (I x F). The whole grid goes in
    one call with the cached _phase_table, or one delay per call when that
    table would exceed PHASE_TABLE_MAX_BYTES. Returns (tau_hat, f_hat) in
    physical units.
    """
    m = obs.m
    if any(n0 < 0 or n0 + m > obs.record_length for n0 in cfg.tau_grid):
        raise ValueError("tau_grid candidates must keep the delayed window inside the record")
    tau_vals = np.asarray(cfg.tau_grid, dtype=float)
    f_vals = np.asarray(cfg.f_grid, dtype=float)
    windows = np.asarray(cfg.tau_grid)[:, None] + np.arange(m)
    v = obs.reflected.sum(axis=0)[windows]
    if len(cfg.tau_grid) * len(cfg.f_grid) * m * 16 <= PHASE_TABLE_MAX_BYTES:
        values = stat(v, _phase_table(cfg.tau_grid, cfg.f_grid, m, obs.delta))
    else:
        values = np.concatenate([
            stat(v[i:i + 1], _phases(cfg.tau_grid[i:i + 1], cfg.f_grid, m, obs.delta))
            for i in range(len(cfg.tau_grid))])
    i0, j0 = np.unravel_index(int(np.argmax(values)), values.shape)
    if cfg.refine:
        n0_hat, f_hat = _refine_2d(values, i0, j0, tau_vals, f_vals)
    else:
        n0_hat, f_hat = float(tau_vals[i0]), float(f_vals[j0])
    return n0_hat * obs.delta, f_hat


def profile_ml_estimate(obs: Observations, sc: Scenario, cfg: McConfig) -> tuple[float, float]:
    """Maximum-likelihood delay/Doppler with the signal profiled out.

    For each candidate (n0, f) the concentrated statistic is
    sum_m |sum_l x_dl[m] + sum_p x_rp[m+n0] e^{-j 2 pi f (m+n0) delta}|^2;
    maximizing it is exactly ML because the per-sample signal estimate is
    linear-Gaussian. Returns (tau_hat, f_hat) in physical units.
    """
    if sc.looks_direct == 0 or sc.looks_reflected == 0:
        raise ValueError("delay/Doppler not identifiable without both direct "
                         "and reflected looks (matches the singular bound)")
    if sc.scale != 1.0:
        raise ValueError("profiling assumes unit reflected-path scale")
    u = obs.direct[:, :obs.m].sum(axis=0)

    def stat(v: np.ndarray, table: np.ndarray) -> np.ndarray:
        # np.sum(np.abs(u + table * v[:, None, :]) ** 2, axis=-1), bit for bit;
        # updated in place because allocating each I x F x M temporary afresh
        # costs more than the arithmetic on it
        z = table * v[:, None, :]
        z += u
        power = np.abs(z)
        power *= power
        return power.sum(axis=-1)
    return _grid_search(obs, cfg, stat)


def ml_estimate_known(obs: Observations, sig: SampledSignal,
                      cfg: McConfig) -> tuple[float, float]:
    """Matched-filter delay/Doppler estimate with the signal given.

    Maximizes Re sum_m conj(sum_p x_rp[m+n0]) s[m] e^{j 2 pi f (m+n0) delta}
    over the grid; the direct looks carry no delay/Doppler information.
    """
    # conj(table) equals exp(+j 2 pi f t) bit for bit (cos is even and sin odd
    # in the math library), so the matched filter needs no table of its own
    return _grid_search(obs, cfg, lambda v, table: np.real(
        table.conj() @ (v.conj() * sig.samples)[:, :, None])[..., 0])


# ---------------------------------------------------------------------------
# finite-difference oracle


def _fd_fim(build: Callable[[np.ndarray], np.ndarray], theta0: np.ndarray,
            steps: np.ndarray, labels: tuple[str, ...], sigma_w2: float) -> FimMatrix:
    """FIM from central-difference Jacobians of the stacked mean."""
    columns = []
    for k, h in enumerate(steps):
        up = theta0.copy()
        up[k] += h
        down = theta0.copy()
        down[k] -= h
        columns.append((build(up) - build(down)) / (2.0 * h))
    jac = np.column_stack(columns)
    fim = 2.0 / sigma_w2 * np.real(jac.conj().T @ jac)
    return FimMatrix(0.5 * (fim + fim.T), labels)


def oracle_fim_mean(sc: Scenario, *, params: str,
                    signal_fn: Callable | None = None,
                    delta: float | None = None, m: int | None = None,
                    pt: PulseTrain | None = None,
                    g_fn: Callable | None = None) -> FimMatrix:
    """Finite-difference FIM of the stacked-mean Gaussian model.

    params selects the parameter vector: "known" (tau0, f0; single reflected
    look), "unknown" (+ signal samples), "unknown_a" (+ scale), "structure"
    (tau0, f0, pulse amplitudes) or "structure_a". Signal-sample families
    need a smooth continuous-time signal_fn with its grid (delta, m);
    structure families need the pulse train and a smooth pulse g_fn. The
    continuous models must be negligible outside their nominal support.
    """
    if params in ("structure", "structure_a"):
        if pt is None or g_fn is None:
            raise ValueError(f"params={params!r} needs pt and g_fn")
        delta, m = pt.delta, pt.m
    elif params not in ("known", "unknown", "unknown_a"):
        raise ValueError(f"unknown params spec {params!r}")
    elif signal_fn is None or delta is None or m is None:
        raise ValueError(f"params={params!r} needs signal_fn, delta and m")
    n0 = sc.delay_samples(delta)
    t_all = np.arange(max(n0 + m, sc.record_length or 0)) * delta
    looks = (sc.looks_direct, sc.looks_reflected)
    if pt is not None:
        def synth(t: np.ndarray, b: np.ndarray) -> np.ndarray:
            return sum(b[q] * g_fn(t - q * pt.t_p) for q in range(pt.n_pulses))

        def paths(tau, f, a, b):
            return synth(t_all, b), a * synth(t_all - tau, b) * np.exp(2j * np.pi * f * t_all)
        coeffs, labels = pt.b, structure_labels(pt.n_pulses)
    else:
        base = np.asarray(signal_fn(np.arange(m) * delta), dtype=complex)
        idx = np.arange(n0, n0 + m)

        def paths(tau, f, a, s_vals):
            s_vals = s_vals if s_vals.size else base  # "known": no sample unknowns
            direct = np.zeros(t_all.size, dtype=complex)
            direct[:m] = s_vals
            if tau != sc.tau0:
                # off-grid delay only happens on the tau0 column, where the
                # samples sit at their base values: evaluate the smooth model
                return direct, a * np.asarray(signal_fn(t_all - tau), dtype=complex) \
                    * np.exp(2j * np.pi * f * t_all)
            reflected = np.zeros(t_all.size, dtype=complex)
            reflected[idx] = a * s_vals * np.exp(2j * np.pi * f * idx * delta)
            return direct, reflected
        coeffs = base
        if params == "known":  # the samples are given; one reflected look
            coeffs, looks = base[:0], (0, 1)
        labels = bounds.unknown_signal_labels(coeffs.size)
    return _fd_oracle(sc, params.endswith("_a"), paths, coeffs, labels, looks, delta)


def _fd_oracle(sc: Scenario, with_a: bool, paths: Callable, coeffs: np.ndarray,
               labels: tuple[str, ...], looks: tuple[int, int], delta: float) -> FimMatrix:
    """FD FIM over (tau0, f0[, a], Re/Im of each coefficient) at the scenario.

    paths(tau, f, a, coeffs) returns the (direct, reflected) look means, of
    which looks = (L, P) copies are stacked; with_a puts the scale after f0.
    """
    head = [sc.tau0, sc.f0] + [sc.scale] * with_a
    theta0 = np.concatenate([head, np.asarray(coeffs, complex).view(float)])
    steps = np.array([delta * 1e-3, FD_STEP_F] + [FD_STEP_SCALE] * with_a
                     + [FD_STEP_SAMPLE] * (2 * len(coeffs)))
    off = len(head)

    def build(theta: np.ndarray) -> np.ndarray:
        a = theta[2] if with_a else sc.scale
        direct, reflected = paths(theta[0], theta[1], a, theta[off::2] + 1j * theta[off + 1::2])
        return np.concatenate([direct] * looks[0] + [reflected] * looks[1])

    return _fd_fim(build, theta0, steps, labels[:2] + ("a",) * with_a + labels[2:],
                   sc.sigma_w2)


# ---------------------------------------------------------------------------
# Monte Carlo achievability


@dataclass(frozen=True)
class McReport:
    """Empirical MSE against the bounds, one row per estimated parameter."""

    rows: tuple[dict, ...]
    trials: int
    seed: int
    singular: bool = False
    details: dict = field(default_factory=dict)


TRIAL_SEED_RULE = "numpy default_rng seeded with (seed, trial_index)"


def monte_carlo_report(sig: SampledSignal, sc: Scenario, cfg: McConfig) -> McReport:
    """Run the profiled and known-signal estimators over cfg.trials batches.

    Rows compare the empirical MSE of (tau_hat, f_hat) against the
    unknown-signal joint bounds, and of the known-signal matched filter
    against the known-signal bounds at P looks. A scenario with L = 0 or
    P = 0 is reported singular without simulating, matching the bounds.
    """
    details = {"trial_seed_rule": TRIAL_SEED_RULE, "refine": cfg.refine}
    if sc.looks_direct == 0 or sc.looks_reflected == 0:
        rows = tuple({"parameter": name, "estimator": est, "empirical_mse": None,
                      "bound": None, "ratio": None, "singular": True}
                     for name, est in (("tau0", "profiled_unknown_signal"),
                                       ("f0", "profiled_unknown_signal")))
        return McReport(rows=rows, trials=0, seed=cfg.seed, singular=True,
                        details={**details,
                                 "note": "L = 0 or P = 0: no unbiased estimator exists"})

    cfg.check_covers(sc.delay_samples(sig.delta), sc.f0)

    bound_unknown = bounds.jcrb_unknown(sig, sc)
    # single-look known-signal baseline divided by the P looks the matched
    # filter actually uses; recorded so the comparison is unambiguous
    bound_known = bounds.jcrb_known(sig, sc).scaled(1.0 / sc.looks_reflected)
    details["known_signal_bound_looks"] = sc.looks_reflected

    estimates = np.empty((cfg.trials, 4))
    for trial in range(cfg.trials):
        obs = simulate_observations(sig, sc, (cfg.seed, trial))
        tau_u, f_u = profile_ml_estimate(obs, sc, cfg)
        tau_k, f_k = ml_estimate_known(obs, sig, cfg)
        estimates[trial] = (tau_u, f_u, tau_k, f_k)

    truth = np.array([sc.tau0, sc.f0, sc.tau0, sc.f0])
    err = estimates - truth[None, :]
    mse = np.mean(err ** 2, axis=0)
    names = ("tau0", "f0", "tau0_known", "f0_known")
    estimators = ("profiled_unknown_signal",) * 2 + ("known_signal",) * 2
    bound_values = (bound_unknown.tau0, bound_unknown.f0,
                    bound_known.tau0, bound_known.f0)
    rows = []
    for k, name in enumerate(names):
        bound = bound_values[k]
        rows.append({
            "parameter": name,
            "estimator": estimators[k],
            "empirical_mse": float(mse[k]),
            "bound": float(bound),
            "ratio": float(mse[k] / bound) if np.isfinite(bound) and bound > 0 else None,
            "mean_estimate": float(np.mean(estimates[:, k])),
            "std_estimate": float(np.std(estimates[:, k], ddof=1)) if cfg.trials > 1 else 0.0,
            "singular": False,
        })
    return McReport(rows=tuple(rows), trials=cfg.trials, seed=cfg.seed,
                    details=details)
