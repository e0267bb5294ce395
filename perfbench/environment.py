"""What a result was measured on: commit, versions, BLAS and its threads, CPU."""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import statistics
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_libraries() -> list[dict]:
    """Every loaded OpenBLAS and the thread count it reports."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        libs.append({"library": os.path.basename(path), "threads": threads})
    return libs


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# A typical probe time on the host the benchmark was defined on (it ranged
# from about 0.3 to 0.6 ms there); times are reported at that host speed
REFERENCE_PROBE_MS = 0.45


def at_reference_speed(seconds: float, probe_ms: float) -> float:
    """A measured time rescaled to the host speed at which the probe takes
    REFERENCE_PROBE_MS."""
    return seconds * REFERENCE_PROBE_MS / probe_ms


def speed_probe() -> float:
    """Median milliseconds of a fixed kernel: how fast the host runs right now.

    The kernel mixes what the workloads do (a NumPy ufunc, a small LAPACK
    call, interpreter work) and touches nothing of the program.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 1 << 16)
    m = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.exp(a).sum()
        np.linalg.eigvalsh(m)
        total = 0
        for i in range(3000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def record(seed: int) -> dict:
    import importlib.metadata

    import numpy
    import scipy

    libs = blas_libraries()
    return {
        "commit": commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": libs,
        "blas_threads_max": max((lib["threads"] or 0 for lib in libs), default=0),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                      "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
        "nproc": nproc(),
        "reference_probe_ms": REFERENCE_PROBE_MS,
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }
