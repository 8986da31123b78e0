"""Small shared helpers: seed derivation, covariance repair, and a
fork-parallel map."""
from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import hashlib
import multiprocessing
import os
import threading

import numpy as np

from .errors import NumericalError

# Eigenvalues above this (negative) floor are treated as zero when repairing
# a nearly-PSD covariance; anything below it is a genuine modeling error.
PSD_TOL = 1e-9


def derive_seed(master: int, *parts) -> int:
    """Derive a child seed from a master seed and a key path.

    Counter-based so concurrent tasks can be seeded independently of
    execution order: the same (master, parts) always yields the same seed.
    """
    keys = [int(master) & 0xFFFFFFFF]
    for p in parts:
        if isinstance(p, (int, np.integer)):
            keys.append(int(p) & 0xFFFFFFFF)
        else:
            digest = hashlib.blake2s(str(p).encode(), digest_size=4).digest()
            keys.append(int.from_bytes(digest, "big"))
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def repair_psd(cov: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Clip tiny negative eigenvalues of a symmetric matrix to zero.

    Raises NumericalError if an eigenvalue is more negative than ``-tol``
    relative to the largest one.
    """
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < -tol * scale:
        raise NumericalError(f"matrix is not PSD: min eigenvalue {vals[0]:.3e}")
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.T


def chol_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, falling back to an eigendecomposition root."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        repaired = repair_psd(cov)
        vals, vecs = np.linalg.eigh(repaired)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_mvn(rng: np.random.Generator, mean: np.ndarray, factor: np.ndarray, m: int) -> np.ndarray:
    """Draw m rows from N(mean, factor @ factor.T) with a fixed rng order."""
    z = rng.standard_normal((m, len(mean)))
    return z @ factor.T + mean


# Thread-count setters an OpenBLAS build may export, tried in this order.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")

# Least work, in numbers drawn or written over all items, that fork_workers
# forks for: a pool of forked workers takes about 35 ms to start and stop,
# and two workers win that back from about half a million numbers drawn
# (n=8, m=300 Pearson discovery breaks even; n=5 loses, n=12 gains).
FORK_MIN_WORK = 500_000

# (fn, items) inside a fork_map worker; None in every other process.
_JOB = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_setters() -> tuple:
    """The thread-count setter of every OpenBLAS loaded in this process,
    found through the libraries mapped in /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                            if len(parts) == 6 and "openblas" in parts[5].lower()})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                setters.append(set_threads)
                break
    return tuple(setters)


def _start_worker(job, setters) -> None:
    global _JOB
    _JOB = job
    for set_threads in setters:
        set_threads(1)


def _run_item(index: int):
    fn, items = _JOB
    return fn(items[index])


def fork_workers(count: int, work: int) -> int:
    """Worker processes for ``count`` items that draw or write ``work``
    numbers in total: one per usable CPU, capped at ``count``, or 0 (run
    inline) when that is one, when ``work`` is below ``FORK_MIN_WORK``, or
    when forking is unsafe or unpinnable: no ``fork`` start method, another
    live Python thread (forking it would copy held locks), a caller that is
    itself a worker, or no OpenBLAS thread setter to call."""
    workers = min(usable_cpus(), count)
    if (workers < 2 or work < FORK_MIN_WORK or _JOB is not None
            or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or not _blas_thread_setters()):
        return 0
    return workers


def fork_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, computed by ``workers`` forked
    processes (``fork_workers``), or inline when that is below 2.

    Each worker sets the loaded OpenBLAS to one thread so workers do not
    oversubscribe the cores. fn and the items reach the workers through the
    fork itself, never pickled, so closures work; only item indices and
    results cross a pipe. Results come back in item order and an exception
    raised in a worker is re-raised here with its class, so the caller sees
    the same outcome as the inline loop. A worker that dies without one (a
    memory kill, a signal) raises ``BrokenProcessPool`` here.
    """
    items = list(items)
    if workers < 2:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _start_worker,
            ((fn, items), _blas_thread_setters())) as pool:
        chunk = -(-len(items) // (4 * workers))
        return list(pool.map(_run_item, range(len(items)), chunksize=chunk))
