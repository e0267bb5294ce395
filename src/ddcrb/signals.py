"""Sampled baseband signal models.

Everything downstream works on uniformly sampled complex baseband signals
carrying their own time-derivative samples, on amplitude-modulated pulse
trains built from a known real pulse shape, and on the scenario parameters
(delay, Doppler, look counts, noise power) of a direct-path/reflected-path
observation geometry, one scenario at a time or many as columns
(ScenarioColumns). Sampled signals also load from .npz and .json files.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Literal

import numpy as np


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_finite(delta: float, n: int, *arrays: tuple[str, np.ndarray]) -> None:
    """ValueError unless delta > 0, the last of n sample times (n - 1) delta and each
    (name, array) are finite: one test per array, before any arithmetic could warn."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")
    if not (n - 1) * float(delta) < math.inf:  # a Python float product is inf, no warning
        raise ValueError(f"the last sample time {n - 1} * {delta} is not finite")
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")


class _Memo:
    """Base of the frozen signal models: a store for values other modules
    derive from the object (see memoised). The object's arrays are
    read-only, so an entry never goes stale."""

    @functools.cached_property
    def _memo(self) -> dict:
        return {}


def memoised(fn: Callable) -> Callable:
    """fn(obj, *args) computed once per obj and args, kept in obj._memo.

    obj is a SampledSignal or PulseTrain; fn must return an immutable value
    (a bool, a float, a tuple of floats, or a frozen object with read-only arrays),
    so callers can share it. The uncached fn stays reachable as __wrapped__,
    which a miss calls (so a test may count the misses by replacing it).
    """

    @functools.wraps(fn)
    def cached(obj, *args):
        # keyed by the module-level wrapper, so a signal with entries pickles
        key = (cached, *args)
        memo = obj._memo
        if key not in memo:
            memo[key] = cached.__wrapped__(obj, *args)
        return memo[key]

    return cached


def central_difference(samples: np.ndarray, delta: float) -> np.ndarray:
    """Fourth-order finite-difference derivative, one-sided at the edges.

    The high order matters for truncated pulses: with nonzero boundary
    samples the summed error of a low-order scheme is dominated by O(delta)
    boundary terms, which would spoil derivative-weighted sums.
    """
    samples = np.asarray(samples)
    n = samples.size
    if n < 2:
        return np.zeros_like(samples)
    deriv = np.empty_like(samples)
    if n < 5:
        deriv[1:-1] = (samples[2:] - samples[:-2]) / (2.0 * delta)
        if n == 2:
            deriv[0] = deriv[-1] = (samples[1] - samples[0]) / delta
        else:
            deriv[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * delta)
            deriv[-1] = (3.0 * samples[-1] - 4.0 * samples[-2] + samples[-3]) / (2.0 * delta)
        return deriv
    deriv[2:-2] = (samples[:-4] - 8.0 * samples[1:-3]
                   + 8.0 * samples[3:-1] - samples[4:]) / (12.0 * delta)
    deriv[0] = (-25.0 * samples[0] + 48.0 * samples[1] - 36.0 * samples[2]
                + 16.0 * samples[3] - 3.0 * samples[4]) / (12.0 * delta)
    deriv[1] = (-3.0 * samples[0] - 10.0 * samples[1] + 18.0 * samples[2]
                - 6.0 * samples[3] + samples[4]) / (12.0 * delta)
    deriv[-1] = (25.0 * samples[-1] - 48.0 * samples[-2] + 36.0 * samples[-3]
                 - 16.0 * samples[-4] + 3.0 * samples[-5]) / (12.0 * delta)
    deriv[-2] = (3.0 * samples[-1] + 10.0 * samples[-2] - 18.0 * samples[-3]
                 + 6.0 * samples[-4] - samples[-5]) / (12.0 * delta)
    return deriv


@dataclass(frozen=True)
class SampledSignal(_Memo):
    """Complex baseband samples s(n*delta) with derivative samples ds/dt.

    samples and deriv have equal length M, all finite; delta is the sampling
    interval in normalized time units, the last sample time (M - 1) * delta
    finite.
    """

    samples: np.ndarray
    delta: float
    deriv: np.ndarray

    def __post_init__(self):
        if np.shape(self.deriv) != np.shape(self.samples):
            raise ValueError("deriv must have the same length as samples")
        both = _frozen_array((self.samples, self.deriv), complex)  # one copy, one test
        if both.ndim != 2 or both.shape[1] < 1:
            raise ValueError("samples must be a nonempty 1-D array")
        _check_finite(self.delta, both.shape[1], ("samples and deriv", both))
        object.__setattr__(self, "samples", both[0])
        object.__setattr__(self, "deriv", both[1])

    @property
    def m(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m) * self.delta

    @property
    def is_real(self) -> bool:
        # np.any reads the parts in place; a == 0 test would allocate a mask
        return not (np.any(self.samples.imag) or np.any(self.deriv.imag))

    @np.errstate(over="ignore", invalid="ignore")  # the constructor rejects an overflow
    def scaled(self, factor: complex) -> "SampledSignal":
        return SampledSignal(self.samples * factor, self.delta, self.deriv * factor)

    @classmethod
    def from_samples(cls, samples, delta: float) -> "SampledSignal":
        """Build a signal from bare samples, differencing to get derivatives."""
        samples = np.asarray(samples, dtype=complex)
        with np.errstate(all="ignore"):  # _check_finite rejects a bad delta or an overflow
            deriv = central_difference(samples, delta)
        _check_finite(delta, samples.size, ("samples", samples),
                      ("the derivative differenced from the samples", deriv))
        return cls(samples, delta, deriv)


@dataclass(frozen=True)
class PulseTrain(_Memo):
    """Amplitude-modulated train of a known real pulse shape.

    g holds pulse-shape samples g(n*delta) for n = 0..n_p, so the pulse
    occupies exactly one period t_p = n_p*delta and adjacent pulses share at
    most the boundary sample. b holds the Q = n_pulses complex pulse
    amplitudes. The samples, the amplitudes and the train's end Q t_p are finite.
    """

    g: np.ndarray
    g_deriv: np.ndarray
    b: np.ndarray
    delta: float

    def __post_init__(self):
        if np.shape(self.g_deriv) != np.shape(self.g):
            raise ValueError("g_deriv must have the same length as g")
        shapes = _frozen_array((self.g, self.g_deriv), float)  # one copy, one test
        b = _frozen_array(self.b, complex)
        if shapes.ndim != 2 or shapes.shape[1] < 2:
            raise ValueError("g must hold at least n_p + 1 = 2 samples")
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty 1-D array, one amplitude per pulse")
        _check_finite(self.delta, b.size * (shapes.shape[1] - 1) + 1,
                      ("g and g_deriv", shapes), ("b", b))
        object.__setattr__(self, "g", shapes[0])
        object.__setattr__(self, "g_deriv", shapes[1])
        object.__setattr__(self, "b", b)

    @property
    def n_p(self) -> int:
        return self.g.size - 1

    @property
    def n_pulses(self) -> int:
        return self.b.size

    @property
    def t_p(self) -> float:
        return self.n_p * self.delta

    @property
    def m(self) -> int:
        """Sample count of the synthesized train."""
        return self.n_pulses * self.n_p

    @functools.cached_property
    def amp_energy(self) -> float:
        """Sum of |b_q|^2 over the pulses."""
        return float(np.sum(np.abs(self.b) ** 2))


@dataclass(frozen=True)
class Scenario:
    """Observation geometry and noise level.

    The reflected path carries delay tau0, Doppler f0 and amplitude scale;
    looks_direct (L) and looks_reflected (P) count the independent noisy
    records of each path. sigma_w2 is the complex clutter-plus-noise variance
    per sample. record_length (N) must cover the delayed signal
    (N >= n0 + M); None means "exactly n0 + M".

    Operations that place the delayed signal on the record grid require
    tau0 = n0*delta for integer n0; the bound formulas use tau0 only as a
    time weight and accept any value.
    """

    tau0: float
    f0: float
    looks_direct: int
    looks_reflected: int
    sigma_w2: float
    scale: float = 1.0
    record_length: int | None = None

    def __post_init__(self):
        # chained comparisons are False for nan, so nan is rejected too
        if not 0 <= self.tau0 < np.inf:
            raise ValueError("tau0 must be finite and nonnegative")
        if not np.isfinite(self.f0):
            raise ValueError("f0 must be finite")
        if self.looks_direct < 0 or self.looks_reflected < 0:
            raise ValueError("look counts must be nonnegative")
        if not 0 < self.sigma_w2 < np.inf:
            raise ValueError("sigma_w2 must be finite and positive")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be finite and positive")
        if self.record_length is not None and self.record_length < 1:
            raise ValueError("record_length must be positive")

    def delay_samples(self, delta: float) -> int:
        """Delay expressed in samples; requires tau0 on the sample grid."""
        n0 = self.tau0 / delta
        n0_int = int(round(n0))
        if abs(n0 - n0_int) > 1e-6:
            raise ValueError(
                f"tau0={self.tau0} is not an integer multiple of delta={delta}")
        return n0_int

    def record_samples(self, sig: SampledSignal) -> int:
        """Record length N, validated against the delayed-signal support."""
        n0 = self.delay_samples(sig.delta)
        needed = n0 + sig.m
        n = needed if self.record_length is None else self.record_length
        if n < needed:
            raise ValueError(
                f"record_length={n} too short: delayed signal needs n0 + M = {needed}")
        return n


@dataclass(frozen=True)
class ScenarioColumns:
    """The numbers the closed-form bounds read from many scenarios, one float
    array per field: row i is scenario i, and a column of length 1 stands
    for every row."""

    tau0: np.ndarray
    looks_direct: np.ndarray
    looks_reflected: np.ndarray
    sigma_w2: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, sc: Scenario, **columns) -> "ScenarioColumns":
        """sc's numbers, the named fields replaced by one value per row. Each
        Scenario rule holds one field to an interval, so checking the
        scenarios at every column's least and greatest value checks every
        row (ValueError, as Scenario raises it)."""
        cols = {f.name: np.array(columns.get(f.name, getattr(sc, f.name)), dtype=float, ndmin=1)
                for f in fields(cls)}
        for pick in (np.min, np.max) if columns else ():
            replace(sc, **{name: pick(cols[name]).item() for name in columns})
        return cls(**cols)

    @functools.cached_property
    def scale2(self) -> np.ndarray:
        """a^2 of each row, inf where it overflows (the bounds flag such rows)."""
        with np.errstate(over="ignore"):
            return self.scale * self.scale


def gaussian_pulse(n_p: int, delta: float, center: float,
                   width2: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Gaussian pulse-shape samples and their analytic derivative:
    gaussian_fn's pulse and derivative at t = n*delta for n = 0..n_p, not
    renormalized after truncation to [0, n_p*delta].
    """
    if n_p < 1:
        raise ValueError("n_p must be at least 1")
    if not width2 > 0:
        raise ValueError("width2 must be positive")
    _check_finite(delta, n_p + 1)
    # a far sample's square is inf, its g the exact 0; PulseTrain rejects a g' that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        return _gaussian(np.arange(n_p + 1) * delta, center, width2)


def _gaussian(t, center: float, width2: float) -> tuple[np.ndarray, np.ndarray]:
    """g(t) = exp(-(t - center)^2 / width2) and its derivative, from one exp."""
    t = np.asarray(t, dtype=float)
    g = np.exp(-((t - center) ** 2) / width2)
    return g, -2.0 * (t - center) / width2 * g


def gaussian_fn(center: float, width2: float) -> tuple[Callable, Callable]:
    """Smooth (untruncated) Gaussian pulse and derivative as callables of t."""
    return (lambda t: _gaussian(t, center, width2)[0],
            lambda t: _gaussian(t, center, width2)[1])


def gaussian_pulse_train(n_p: int, delta: float, center: float, width2: float,
                         b) -> PulseTrain:
    """Assemble a PulseTrain with a truncated Gaussian pulse shape."""
    g, g_deriv = gaussian_pulse(n_p, delta, center, width2)
    return PulseTrain(g=g, g_deriv=g_deriv, b=np.atleast_1d(b), delta=delta)


@memoised
@np.errstate(over="ignore", invalid="ignore")  # SampledSignal rejects a copy that overflowed
def synthesize_pulse_train(pt: PulseTrain) -> SampledSignal:
    """Sum of amplitude-scaled, period-shifted pulse copies.

    samples[n] = sum_q b_q * g(n*delta - (q-1)*t_p) for n = 0..M-1 with
    M = Q*n_p; derivatives are assembled from g_deriv the same way.
    Built once per train and kept (see memoised): every FIM of the train
    shares the one frozen signal and the sums kept on it. Copy q's first n_p
    samples fill its period (Q x n_p, one row a period); its last sample adds
    onto the first of period q + 1, and the last copy's falls past the end.
    Adding +0.0 first gives the bytes of a sum into zeros (a -0.0 part turns
    to +0.0), and a shared sample adds its two terms in the order of a sum
    of the copies one at a time, so the bytes are that sum's.
    """
    b, n_p, shapes = pt.b, pt.n_p, np.array((pt.g, pt.g_deriv))
    parts = b[:, None] * shapes[:, None, :n_p]  # (g or g') x copy x sample
    parts += 0.0
    if pt.n_pulses > 1:
        np.add(b[:-1] * shapes[:, n_p:], parts[:, 1:, 0], out=parts[:, 1:, 0])
    samples, deriv = parts.reshape(2, -1)
    return SampledSignal(samples, pt.delta, deriv)


def pulse_train_fn(pt: PulseTrain, g_fn: Callable, dg_fn: Callable) -> tuple[Callable, Callable]:
    """Continuous-time view of a pulse train from a smooth pulse callable.

    Used by finite-difference checks; the smooth pulse must be negligible
    outside [0, t_p] for the continuous view to match the sampled train.
    """

    def train(fn):
        def view(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape, dtype=complex)
            for q in range(pt.n_pulses):
                out += pt.b[q] * fn(t - q * pt.t_p)
            return out
        return view

    return train(g_fn), train(dg_fn)


def triangle_wave(m: int, delta: float = 1.0) -> SampledSignal:
    """Real triangle wave with per-sample slope +1 then -1.

    The slope is +1 at samples 0..M/2-1 and -1 at samples M/2..M-1; the
    sample values rise to a peak of (M/2)*delta and fall back.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 2")
    _check_finite(delta, m)  # the peak (M/2) * delta is below the last sample time
    n = np.arange(m)
    samples = np.minimum(n, m - n).astype(float) * delta
    deriv = np.where(n < m // 2, 1.0, -1.0)
    return SampledSignal(samples.astype(complex), delta, deriv.astype(complex))


def load_signal_file(path: str) -> SampledSignal:
    """Samples, delta and optional derivative from a .npz file (complex
    arrays) or a .json file (one object of real and optional imaginary
    parts); ValueError, naming the file, when it is malformed."""
    if path.endswith(".npz"):
        data, part = np.load(path), ""
    else:
        with open(path) as fh:
            try:
                data, part = json.load(fh), "_real"
            except ValueError as exc:
                raise ValueError(f"signal file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"signal file {path} must hold one JSON object")
    for key in ("samples" + part, "delta"):
        if key not in data:
            raise ValueError(f"signal file {path} has no {key!r}")

    def array(key, dtype, ndim):
        try:
            arr = np.asarray(data[key], dtype)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != ndim or not np.isfinite(arr).all():  # before 1j * inf warns
            shape = "a number" if ndim == 0 else "a 1-D array of numbers"
            raise ValueError(f"signal file {path}: {key!r} must be {shape}, not inf or nan")
        return arr

    def values(name):
        if not part:
            return array(name, complex, 1)
        real = array(name + part, float, 1)
        imag = array(name + "_imag", float, 1) if name + "_imag" in data else np.zeros(real.shape)
        if imag.shape != real.shape:
            raise ValueError(f"signal file {path}: {name + '_imag'!r} and "
                             f"{name + part!r} differ in length")
        return real + 1j * imag

    samples, delta = values("samples"), float(array("delta", float, 0))
    deriv = values("deriv") if "deriv" + part in data else None
    try:  # a sample time or a differenced derivative may still overflow
        if deriv is None:
            return SampledSignal.from_samples(samples, delta)
        return SampledSignal(samples, delta, deriv)
    except ValueError as exc:
        raise ValueError(f"signal file {path}: {exc}") from exc


def mean_vector(sig: SampledSignal, sc: Scenario,
                path: Literal["direct", "reflected"]) -> np.ndarray:
    """Noise-free observation mean of one look on the chosen path.

    direct:    mu[n] = s(n*delta), zero-padded to the record length.
    reflected: mu[n] = a * s(n*delta - tau0) * exp(j*2*pi*f0*n*delta) on
               n0 <= n <= n0 + M - 1, zero elsewhere.
    """
    n0 = sc.delay_samples(sig.delta)
    n = sc.record_samples(sig)
    mu = np.zeros(n, dtype=complex)
    if path == "direct":
        mu[: sig.m] = sig.samples
    elif path == "reflected":
        idx = np.arange(n0, n0 + sig.m)
        mu[idx] = sc.scale * sig.samples * np.exp(2j * np.pi * sc.f0 * idx * sig.delta)
    else:
        raise ValueError(f"unknown path {path!r}")
    return mu


def eta(sig: SampledSignal, tau0: float) -> float:
    """Delay/Doppler information cross-term.

    sum over n of (n*delta + tau0) * (s_I * ds_R/dt - s_R * ds_I/dt) at
    t = n*delta. Identically zero for real signals and for signals whose
    imaginary part is a fixed multiple of the real part.
    """
    w, s, d = sig.times + tau0, sig.samples, sig.deriv
    return float(np.sum(w * (s.imag * d.real - s.real * d.imag)))
