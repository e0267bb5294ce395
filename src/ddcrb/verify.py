"""Independent verification paths: finite-difference FIMs and Monte Carlo.

The finite-difference oracle rebuilds every information matrix in the package
from nothing but the stacked observation means, by central differences of
smooth continuous-time signal models. The Monte Carlo harness checks
achievability: the 2+2M-parameter likelihood is concentrated in closed form
over the unknown signal samples (for each delay/Doppler candidate the
per-sample least-squares signal estimate is the average of the L direct looks
and the P delay-aligned, phase-derotated reflected looks), leaving a 2-D grid
search whose empirical error is compared to the bounds.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# one core's L2 cache (2 MiB), and the working set of one block of Monte Carlo
# trials (_trial_bytes each): the fastest budget measured on the 500-trial search
CACHE_BYTES = TRIAL_BLOCK_BYTES = 1 << 21
# trials in one real matrix product: BLAS picks its kernel, so its rounding, by the
# product's shape (OpenBLAS: gemv for one row, small-matrix dgemm kernels on AVX-512)
PRODUCT_ROWS = 8
# numpy's SeedSequence (O'Neill's seed_seq_fe, a pool of four 32-bit words)
# and PCG64's seeding step: the constants default_rng((seed, k)) hashes with
_HASH_INIT_A, _HASH_MULT_A = 0x43b0d7e5, 0x931e8875
_HASH_INIT_B, _HASH_MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# trial indices are hashed as one 32-bit word each
MAX_TRIALS = 1 << 32
# trial states derived per call, and the most a run holds (about 0.45 MB of dicts)
_STATE_TRIALS = 1 << 10


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo setup: deterministic seeds and the 2-D search grids, candidate
    delays in samples (integers) in tau_grid and Doppler candidates in f_grid."""

    trials: int
    seed: int
    tau_grid: tuple[int, ...]
    f_grid: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "trials", operator.index(self.trials))
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
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


def _noise_block(trials: int, sc: Scenario, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Uninitialised noise block (T x 2(L+P) x N) and its direct real, direct imaginary,
    reflected real and reflected imaginary rows: a trial fills its row with one
    standard_normal draw, so in sequence four draws in a row of L x N and P x N normals."""
    z = np.empty((trials, 2 * (sc.looks_direct + sc.looks_reflected), n))
    edges = np.cumsum([0] + [sc.looks_direct] * 2 + [sc.looks_reflected] * 2)
    return z, [z[:, a:b] for a, b in zip(edges, edges[1:])]


def _look_sums(re: np.ndarray, im: np.ndarray, mean: np.ndarray, scale: float) -> np.ndarray:
    """(mean + scale (re + 1j im)).sum(axis=1) of re and im (T x looks >= 1 x W), with
    numpy's operations in their order but part by part, so with no complex temporary;
    every look past the first is scaled in place in re and im."""
    total = np.empty((len(re), re.shape[2]), dtype=complex)
    for noise, mu, out in ((re, mean.real, total.real), (im, mean.imag, total.imag)):
        np.add(mu, np.multiply(scale, noise[:, 0], out=out), out=out)
        for look in noise.swapaxes(0, 1)[1:]:
            np.add(out, np.add(mu, np.multiply(scale, look, out=look), out=look), out=out)
    return total


def simulate_observations(sig: SampledSignal, sc: Scenario, seed) -> Observations:
    """Draw the look means plus iid circular complex Gaussian noise: variance
    sigma_w2 per sample, split evenly between the real and imaginary parts.
    Deterministic given the seed."""
    mu_d, mu_r = (mean_vector(sig, sc, path) for path in ("direct", "reflected"))
    z, parts = _noise_block(1, sc, sc.record_samples(sig))
    np.random.default_rng(seed).standard_normal(out=z[0])
    # each look a row of its own, so a sum of one look: looks x 1 x N
    d_re, d_im, r_re, r_im = (part.swapaxes(0, 1) for part in parts)
    scale = np.sqrt(sc.sigma_w2 / 2.0)
    return Observations(direct=_look_sums(d_re, d_im, mu_d, scale),
                        reflected=_look_sums(r_re, r_im, mu_r, scale), delta=sig.delta, m=sig.m)


def _trial_bytes(sig: SampledSignal, sc: Scenario, cfg: McConfig) -> int:
    """Bytes one trial adds to a block, in 16-byte words: its noise draw ((L + P) N),
    r (N), u, conj(u) and the profiled window (M each), two I x F float statistics;
    |r|^2, a temporary and norms over the windows' span S."""
    n, m, looks = sc.record_samples(sig), sig.m, sc.looks_direct + sc.looks_reflected
    span = cfg.tau_grid[-1] - cfg.tau_grid[0] + m
    return 16 * ((looks + 1) * n + 3 * m + len(cfg.tau_grid) * len(cfg.f_grid)) + 24 * span


def _uint32_words(n: int) -> list[int]:
    """A nonnegative n as little-endian 32-bit words; 0 is one zero word."""
    return [n >> 32 * k & _MASK32 for k in range(max(1, (n.bit_length() + 31) // 32))]


def _running_hash(init: int, mult: int, calls: int) -> np.ndarray:
    """((calls + 1) x 1) values of SeedSequence's running hash constant,
    init and then init times mult per call, modulo 2^32."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(calls + 1)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row i of v (c x T, or T for every row) with
    the running constants h[i] before and h[i + 1] after call i."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    v = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return v ^ (v >> np.uint32(16))


def _trial_states(seed: int, trials: range) -> list[dict]:
    """The PCG64 state of np.random.default_rng((seed, k)) for each k in trials.

    default_rng hashes the 32-bit words of seed and then of k (one word) with
    numpy's SeedSequence and seeds PCG64 with four 64-bit words of the hash.
    Both steps are fixed, so they run for many trials at once: the hash on
    uint32 arrays, one column per trial (its running constants never depend on
    the data), the PCG64 step on Python ints."""
    seed_words = _uint32_words(seed)
    # the entropy words of every trial, zero-padded to the pool's four
    entropy = np.zeros((max(4, len(seed_words) + 1), len(trials)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    # hashmix calls: 4 to fill the pool, 12 to mix it, 4 per word past it
    h = _running_hash(_HASH_INIT_A, _HASH_MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], h[:5])
    calls = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[calls:calls + 4]))
        calls += 3
    # entropy past the pool's four words is mixed into every pool word
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, h[calls:calls + 5]))
        calls += 4
    # generate_state(4, uint64): the pool cycled twice, paired low word first
    half = _hashmix(np.tile(pool, (2, 1)), _running_hash(_HASH_INIT_B, _HASH_MULT_B, 8))
    half = half.astype(np.uint64)
    # PCG64 seeding: state from words 0-1, increment from words 2-3, each high word first
    words = (half[0::2] | half[1::2] << np.uint64(32)).tolist()
    states = []
    for w0, w1, w2, w3 in zip(*words):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _trial_blocks(sig: SampledSignal, sc: Scenario, cfg: McConfig,
                  block: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(trials, u, r) for consecutive blocks of at most `block` trials.

    Trial k draws what simulate_observations(sig, sc, (cfg.seed, k)) draws and
    keeps u, its direct looks summed over the window (T x M), and r, its
    reflected looks summed (T x N). The means, the noise block and one generator
    are built once, and the states once per run, _STATE_TRIALS at a time; each draw
    starts from its trial's state, and u and r are summed from the block's rows."""
    n, m, scale = sc.record_samples(sig), sig.m, np.sqrt(sc.sigma_w2 / 2.0)
    mu_d, mu_r = (mean_vector(sig, sc, path) for path in ("direct", "reflected"))
    z, parts = _noise_block(min(block, cfg.trials), sc, n)
    rows, bit_generator = list(z), np.random.PCG64(0)
    normal = np.random.Generator(bit_generator).standard_normal
    states = itertools.chain.from_iterable(
        _trial_states(cfg.seed, range(k, min(k + _STATE_TRIALS, cfg.trials)))
        for k in range(0, cfg.trials, _STATE_TRIALS))
    for start in range(0, cfg.trials, block):
        stop = min(start + block, cfg.trials)
        for row, state in zip(rows[:stop - start], states):
            bit_generator.state = state
            normal(out=row)
        d_re, d_im, r_re, r_im = (part[:stop - start] for part in parts)
        yield slice(start, stop), _look_sums(d_re[..., :m], d_im[..., :m], mu_d[:m], scale), \
            _look_sums(r_re, r_im, mu_r, scale)


def _phases(tau_grid: tuple[int, ...], f_grid: tuple[float, ...], m: int,
            delta: float) -> np.ndarray:
    """(delay x Doppler x sample) table exp(-2j pi f (m + n0) delta)."""
    t = (np.arange(m) + np.asarray(tau_grid)[:, None]) * delta
    return np.exp(-2j * np.pi * (np.asarray(f_grid)[None, :, None] * t[:, None, :]))


def _real_tables(tau_grid, f_grid, m: int, delta: float, s, profiled: bool) -> np.ndarray:
    """Rows Re, -Im per sample of 2p, p = _phases, if profiled, then given s of q = conj(s) p
    (E x I x 2M x F): the profiled statistic's factor 2, exact in binary, sits in its table."""
    conj_p = np.conj(_phases(tau_grid, f_grid, m, delta))
    tables = np.empty((profiled + (s is not None), len(tau_grid), 2 * m, len(f_grid)))
    if profiled:
        np.multiply(2.0, np.swapaxes(conj_p.view(float), -1, -2), out=tables[0])
    if s is not None:  # conj(q) = s conj(p), formed in place
        tables[-1] = np.swapaxes(np.multiply(s, conj_p, out=conj_p).view(float), -1, -2)
    return tables


@functools.lru_cache(maxsize=4)
def _phase_table(tau_grid, f_grid, m: int, delta: float, signal=b"", profiled=True) -> np.ndarray:
    """Read-only _real_tables of the whole grid and the signal samples (as bytes,
    or none): never data-dependent, so one table serves every trial."""
    s = np.frombuffer(signal, dtype=complex) if signal else None
    table = _real_tables(tau_grid, f_grid, m, delta, s, profiled)
    table.flags.writeable = False
    return table


def _grid_statistics(r: np.ndarray, cfg: McConfig, m: int, delta: float,
                     u: np.ndarray | None = None, s: np.ndarray | None = None) -> np.ndarray:
    """Search statistics of T trials on the whole grid, (E x T x I x F).

    r: each trial's reflected looks summed (T x N), v its window r[n0:n0 + M] at delay
    candidate n0, p = exp(-2j pi f (m + n0) delta). Given u, the direct looks summed over
    the window (T x M), the first statistic is the profiled ||v||^2 + 2 Re sum_m conj(u) v p
    (sum_m |u + p v|^2 less ||u||^2, the same in every cell of a trial); given the signal
    s (M), the last is the matched filter Re sum_m v q, q = conj(s) p. Each is a real
    product, PRODUCT_ROWS trials at a time, of the window (conj(u) v in a reused buffer, or
    v in place) as 2M floats with its own 2M x F table of the delay (the cached _phase_table's,
    or past PHASE_TABLE_MAX_BYTES built here); ||v||^2 of every delay is one sum after the loop."""
    if any(n0 < 0 or n0 + m > r.shape[1] for n0 in cfg.tau_grid):
        raise ValueError("tau_grid candidates must keep the delayed window inside the record")
    n_tau, n_f = len(cfg.tau_grid), len(cfg.f_grid)
    # trials past the last whole product go through one product padded with zeros
    rows = len(r) - (tail := len(r) % PRODUCT_ROWS)
    tail_in, tail_out = np.zeros((PRODUCT_ROWS, 2 * m)), np.empty((PRODUCT_ROWS, n_f))
    grid = cfg.tau_grid, cfg.f_grid, m, delta
    stats = np.empty(((u is not None) + (s is not None), len(r), n_tau, n_f))
    whole = _phase_table(*grid, b"" if s is None else s.tobytes(), u is not None) \
        if n_tau * n_f * m * 16 * len(stats) <= PHASE_TABLE_MAX_BYTES else None
    weight, window = (None, None) if u is None else (u.conj(), np.empty_like(u))
    # each statistic's windows as floats, from column 2 n0 of r or 0 of the buffer, and
    # its whole products, as stacks
    sources = [(window, 0)] * (u is not None) + [(r, 1)] * (s is not None)
    sources = [(src.view(float), moves) for src, moves in sources]
    stacks = [src[:rows].reshape(-1, PRODUCT_ROWS, src.shape[1]) for src, _ in sources]
    products = stats[:, :rows].reshape(len(stats), -1, PRODUCT_ROWS, n_tau, n_f)
    for i, n0 in enumerate(cfg.tau_grid):
        tables = whole[:, i] if whole is not None \
            else _real_tables(cfg.tau_grid[i:i + 1], *grid[1:], s, u is not None)[:, 0]
        if u is not None:
            np.multiply(weight, r[:, n0:n0 + m], out=window)
        for e, ((src, moves), stack, table) in enumerate(zip(sources, stacks, tables)):
            cols = slice(2 * n0 * moves, 2 * (n0 * moves + m))
            np.matmul(stack[:, :, cols], table, out=products[e, :, :, i])
            if tail:
                tail_in[:tail] = src[rows:, cols]
                stats[e, rows:, i] = np.matmul(tail_in, table, out=tail_out)[:tail]
    if u is not None:
        lo, hi = cfg.tau_grid[0], cfg.tau_grid[-1] + m  # the span of the windows
        power = r.real[:, lo:hi] ** 2 + r.imag[:, lo:hi] ** 2
        norms = sliding_window_view(power, m, axis=1).sum(-1)
        stats[0] += norms[:, np.subtract(cfg.tau_grid, lo), None]
    return stats


def _parabolic_offset(y_minus: np.ndarray, y_center: np.ndarray,
                      y_plus: np.ndarray) -> np.ndarray:
    """Peak offsets in grid units of the parabolas through three ordinates."""
    curv = y_minus - 2.0 * y_center + y_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.clip(0.5 * (y_minus - y_plus) / curv, -0.5, 0.5)
    return np.where(curv >= 0.0, 0.0, offset)


def _peaks(stats: np.ndarray, cfg: McConfig, delta: float) -> np.ndarray:
    """(tau_hat, f_hat) in physical units at each grid's maximum (... x 2): the
    first largest cell, each axis moved by the offset of the parabola through it
    and its two neighbours on that axis, at most half a step, unless on an edge.
    Both axes are refined at once: k0 holds each grid's peak index on each axis."""
    shape = stats.shape[-2:]
    grids = stats.reshape(-1, shape[0] * shape[1])
    peak = grids.argmax(axis=1)
    k0 = np.stack(np.divmod(peak, shape[1]), axis=1)
    k = np.minimum(np.maximum(k0, 1), np.subtract(shape, 2))  # each parabola's centre
    # the flat cells of the three ordinates on each axis (grid x axis x 3)
    strides = np.array([shape[1], 1])
    cells = (peak[:, None] + (k - k0) * strides)[..., None] + strides[:, None] * (-1, 0, 1)
    y = grids[np.arange(len(grids))[:, None, None], cells]
    # both axes' grid values in one array, the f axis after the tau axis
    vals, at = np.concatenate([cfg.tau_grid, cfg.f_grid], dtype=float), np.array([0, shape[0]])
    k, k0 = k + at, k0 + at
    step = 0.5 * (vals[k + 1] - vals[k - 1])
    moved = vals[k] + step * _parabolic_offset(y[..., 0], y[..., 1], y[..., 2])
    hats = np.where((at < k0) & (k0 < at + shape - 1), moved, vals[k0])
    hats[:, 0] *= delta
    return hats.reshape(stats.shape[:-2] + (2,))


def _check_profiled(sc: Scenario) -> None:
    if sc.looks_direct == 0 or sc.looks_reflected == 0:
        raise ValueError("delay/Doppler not identifiable without both direct "
                         "and reflected looks (matches the singular bound)")
    if sc.scale != 1.0:
        raise ValueError("profiling assumes unit reflected-path scale")


def _search_one(obs: Observations, cfg: McConfig, **weights) -> tuple[float, float]:
    """(tau_hat, f_hat) of the one statistic that weights selects, for one
    batch of looks: the block search with T = 1."""
    r = obs.reflected.sum(axis=0)[None]
    tau_hat, f_hat = _peaks(_grid_statistics(r, cfg, obs.m, obs.delta, **weights),
                            cfg, obs.delta)[0, 0]
    return float(tau_hat), float(f_hat)


def profile_ml_estimate(obs: Observations, sc: Scenario, cfg: McConfig) -> tuple[float, float]:
    """Maximum-likelihood (tau_hat, f_hat), in physical units, with the signal
    profiled out: the maximum over the grid of sum_m |sum_l x_dl[m] + sum_p
    x_rp[m+n0] e^{-j 2 pi f (m+n0) delta}|^2, exactly ML because the per-sample
    signal estimate is linear-Gaussian."""
    _check_profiled(sc)
    return _search_one(obs, cfg, u=obs.direct[:, :obs.m].sum(axis=0)[None])


def ml_estimate_known(obs: Observations, sig: SampledSignal,
                      cfg: McConfig) -> tuple[float, float]:
    """Matched-filter delay/Doppler estimate with the signal given: the maximum of
    Re sum_m conj(sum_p x_rp[m+n0]) s[m] e^{j 2 pi f (m+n0) delta} over the grid
    (the direct looks carry no delay/Doppler information)."""
    return _search_one(obs, cfg, s=sig.samples)


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


def _mc_estimates(sig: SampledSignal, sc: Scenario, cfg: McConfig) -> np.ndarray:
    """(tau_u, f_u, tau_k, f_k) of every trial (trials x 4): profiled ML, then
    the matched filter, scored together one block of trials at a time."""
    _check_profiled(sc)
    # a block streams both tables, from memory past the cache: it then holds their bytes
    tables = 32 * len(cfg.tau_grid) * len(cfg.f_grid) * sig.m
    budget = max(TRIAL_BLOCK_BYTES, min(tables, PHASE_TABLE_MAX_BYTES) * (tables > CACHE_BYTES))
    block = max(1, budget // _trial_bytes(sig, sc, cfg))
    block -= block % PRODUCT_ROWS if block > PRODUCT_ROWS else 0
    estimates = np.empty((cfg.trials, 4))
    for trials, u, r in _trial_blocks(sig, sc, cfg, block):
        # unnamed, a block's statistics are freed before the next block is drawn
        peaks = _peaks(_grid_statistics(r, cfg, sig.m, sig.delta, u=u, s=sig.samples),
                       cfg, sig.delta)
        # (estimator x trial x 2) -> one row (tau_u, f_u, tau_k, f_k) per trial
        estimates[trials] = peaks.transpose(1, 0, 2).reshape(-1, 4)
    return estimates


def monte_carlo_report(sig: SampledSignal, sc: Scenario, cfg: McConfig) -> McReport:
    """Run the profiled and known-signal estimators over cfg.trials batches.

    Rows compare the empirical MSE of (tau_hat, f_hat) against the unknown-signal
    joint bounds, and of the known-signal matched filter against the known-signal
    bounds at P looks, each with its bound's method. A singular unknown-signal
    bound (L = 0, P = 0 or a degenerate signal) gives two flagged rows, no simulation."""
    details = {"trial_seed_rule": TRIAL_SEED_RULE}
    known, bound_unknown, _ = bounds.signal_bounds(sig, sc)
    if bound_unknown.singular:
        rows = tuple({"parameter": name, "estimator": "profiled_unknown_signal",
                      "empirical_mse": None, "bound": None, "ratio": None,
                      "method": bound_unknown.method, "singular": True}
                     for name in ("tau0", "f0"))
        return McReport(rows=rows, trials=0, seed=cfg.seed, singular=True,
                        details={**details, "note": bound_unknown.note})

    cfg.check_covers(sc.delay_samples(sig.delta), sc.f0)

    # single-look known-signal baseline divided by the P looks the matched
    # filter actually uses; recorded so the comparison is unambiguous
    bound_known = known.scaled(1.0 / sc.looks_reflected)
    details["known_signal_bound_looks"] = sc.looks_reflected

    estimates = _mc_estimates(sig, sc, cfg)
    truth = np.array([sc.tau0, sc.f0, sc.tau0, sc.f0])
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # the CLI nulls a cell that overflowed
        mse = np.mean((estimates - truth[None, :]) ** 2, axis=0)
        for k, name in enumerate(("tau0", "f0", "tau0_known", "f0_known")):
            # the known-signal pair is regular too: unknown is a multiple of it
            pair = (bound_unknown, bound_known)[k // 2]
            bound = tuple(pair)[k % 2]
            rows.append({
                "parameter": name,
                "estimator": ("profiled_unknown_signal", "known_signal")[k // 2],
                "empirical_mse": float(mse[k]),
                "bound": float(bound),
                "ratio": float(mse[k] / bound),
                "mean_estimate": float(np.mean(estimates[:, k])),
                "std_estimate": float(np.std(estimates[:, k], ddof=1)) if cfg.trials > 1 else 0.0,
                "method": pair.method,
                "singular": False,
            })
    return McReport(rows=tuple(rows), trials=cfg.trials, seed=cfg.seed, details=details)
