"""Small shared helpers: seed derivation, covariance repair, the JSON file
reader and writer, and a fork-parallel map."""
from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import hashlib
import json
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


def write_json(path, obj) -> None:
    """Write obj as every canm JSON file is written: indent 1, sorted keys
    and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The parsed document in a JSON file. A file that is not JSON raises
    ``json.JSONDecodeError``, one that is not UTF-8 too: undecodable bytes
    read as U+FFFD, which no JSON token outside a string accepts. Build
    from the document under ``errors.malformed``."""
    with open(path, errors="replace") as fh:
        return json.load(fh)


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


# Thread-count setters an OpenBLAS build may export, tried in this order.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")

# Least work, in numbers drawn or written over all items, that fork_map
# forks for: a pool of two forked workers takes about 20 ms to start and stop
# (2-core Xeon, canm and its CLI loaded), and two workers win that back from
# about half a million numbers drawn (n=8, m=300 Pearson discovery breaks
# even; n=5 loses, n=12 gains).
FORK_MIN_WORK = 500_000

# glibc mallopt parameters (malloc.h) and the values each fork_map worker
# sets. By default glibc serves a block above its mmap threshold (128 KiB,
# raised only as such blocks are freed) from a fresh mapping and hands a
# freed heap top beyond the trim threshold back to the OS, so a worker
# faults in fresh zeroed pages for its temporaries on every call. The
# largest per-call arrays are about 1.6 MB: the 50,000 x 4 float64 draws of
# one ace call (a pearson_batch block or an n=20, m=1000 sample is smaller).
# 32 MiB, the most glibc's dynamic threshold can reach on a 64-bit host,
# keeps every such array on the heap with room to spare; 64 MiB for the trim
# threshold keeps glibc's own rule of twice the mmap threshold, so freed
# pages stay mapped for the next call.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_MALLOC = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))

# (fn, items) inside a fork_map worker; None in every other process.
_JOB = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_paths() -> tuple:
    """Every OpenBLAS library mapped into this process, read from
    /proc/self/maps: numpy's, and SciPy's once ``scipy.special`` or
    another SciPy extension is loaded. Empty where the file is unreadable."""
    try:
        with open("/proc/self/maps") as fh:
            return tuple(sorted({parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                                 if len(parts) == 6 and "openblas" in parts[5].lower()}))
    except OSError:
        return ()


@functools.cache
def _blas_setter(path):
    """The thread-count setter an OpenBLAS library exports, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in _BLAS_SETTERS:
        if hasattr(lib, name):
            set_threads = getattr(lib, name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return set_threads
    return None


def _blas_thread_setters() -> tuple:
    """The thread-count setter of every OpenBLAS mapped into this process
    now. The maps are read on every call, since a library loaded after an
    earlier fork (SciPy's, with the first Pearson test) must be pinned too."""
    return tuple(s for s in map(_blas_setter, _openblas_paths()) if s is not None)


@functools.cache
def _libc():
    """The C library linked into this process (the global symbol namespace)."""
    return ctypes.CDLL(None)


def _mallopt():
    """glibc's ``mallopt``, or None where the C library has none. Looking it
    up does not call it, so the calling process's allocator is untouched."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _keep_freed_pages(mallopt) -> bool:
    """Set the worker allocator thresholds (``_WORKER_MALLOC``) in order,
    stopping at the first one mallopt refuses (it returns 1 on success).
    Whether every setting took."""
    return all(mallopt(param, value) == 1 for param, value in _WORKER_MALLOC)


def in_worker() -> bool:
    """Whether this process is a fork_map worker."""
    return _JOB is not None


def _start_worker(job, setters, mallopt) -> None:
    """Initialize a fork_map worker: record its job, pin OpenBLAS to one
    thread and set ``_WORKER_MALLOC``, which changes no result."""
    global _JOB
    _JOB = job
    for set_threads in setters:
        set_threads(1)
    if mallopt is not None:
        _keep_freed_pages(mallopt)


def _run_item(index: int):
    fn, items = _JOB
    return fn(items[index])


def fork_map(fn, items, work: int) -> list:
    """``[fn(item) for item in items]`` for items that draw or write
    ``work`` numbers in total: the one place canm decides whether to fork.

    It forks one worker per usable CPU, capped at the item count, once
    ``work`` reaches ``FORK_MIN_WORK``. It runs inline when that makes
    fewer than two workers, and when forking is unsafe or unpinnable: no
    ``fork`` start method, another live Python thread (forking it would
    copy held locks), a caller that is itself a worker (``in_worker``), or
    no OpenBLAS thread setter to call. Each worker sets every OpenBLAS
    mapped at the time of this call (numpy's, and SciPy's once a Pearson
    test has loaded ``scipy.special``) to one thread so workers do not
    oversubscribe the cores, and raises glibc's mmap and trim thresholds
    (``_WORKER_MALLOC``) so it reuses freed heap pages for its per-call
    arrays; where the C library has no ``mallopt`` it keeps the defaults.
    Neither setting touches the calling process, which is the user's.

    fn and the items reach the workers through the fork itself, never
    pickled, so closures work; only item indices and results cross a pipe.
    Results come back in item order and an exception raised in a worker is
    re-raised here with its class, so the caller sees the same outcome as
    the inline loop. A worker that dies without one (a memory kill, a
    signal) raises ``BrokenProcessPool`` here.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if (workers < 2 or work < FORK_MIN_WORK or in_worker()
            or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or not (setters := _blas_thread_setters())):
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _start_worker,
            ((fn, items), setters, _mallopt())) as pool:
        chunk = -(-len(items) // (4 * workers))
        return list(pool.map(_run_item, range(len(items)), chunksize=chunk))
