"""One benchmark process: imports canm from the checkout's ``src``, builds a
workload, and either stops there (``--probe``, a set-up sample) or runs the
closed loop of ops for ``--seconds`` and prints one JSON line with every op.

``run.py`` starts it with BLAS pinned to one thread. With ``--trace 1`` each
op index runs twice, untraced and traced, in alternating order; the two
digests must match, and the traced calls give the per-layer figures.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_canm():
    sys.path.insert(0, SRC)
    import canm

    if not os.path.abspath(canm.__file__).startswith(os.path.join(SRC, "canm") + os.sep):
        raise SystemExit(f"canm was imported from {canm.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


def _run(workload, index, tracer=None):
    start = time.perf_counter()
    try:
        res = workload.run_op(index, tracer)
    except Exception as exc:  # a failing op is counted, never fatal
        return {"index": index, "traced": tracer is not None,
                "seconds": time.perf_counter() - start, "ok": False, "digest": "",
                "shd": [], "mae": [], "error": f"{type(exc).__name__}: {exc}"}
    return {"index": index, "traced": tracer is not None, "seconds": res.seconds,
            "ok": res.ok, "digest": res.digest, "shd": res.shd, "mae": res.mae,
            "error": res.error}


def _timed_loop(workload, seconds):
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(_run(workload, len(ops)))
        if time.perf_counter() - start >= seconds:
            return ops, time.perf_counter() - start


def _traced_loop(workload, seconds, spans_path):
    from tracer import Tracer

    tracer = Tracer()
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        pair = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.op = index
                tracer.install()
                try:
                    pair[True] = _run(workload, index, tracer)
                finally:
                    tracer.uninstall()
            else:
                pair[False] = _run(workload, index)
        if pair[True]["digest"] != pair[False]["digest"]:
            pair[True]["ok"] = False
            pair[True]["error"] = "traced output differs from untraced output"
        ops.extend((pair[False], pair[True]))
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    layers = tracer.layer_metrics(index)
    traced_p50 = statistics.median(op["seconds"] for op in ops if op["traced"])
    plain_p50 = statistics.median(op["seconds"] for op in ops if not op["traced"])
    layers["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.span_records()}, fh)
    return ops, elapsed, layers


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", required=True, help="directory for scratch and span files")
    p.add_argument("--probe", action="store_true", help="stop once set up")
    args = p.parse_args(argv)

    _import_canm()
    sys.path.insert(0, HERE)
    from workloads import Workload

    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=args.out) as work_dir:
        workload = Workload(args.workload, args.size, args.seed, work_dir)
        ready = time.monotonic()
        report = {"ready": ready}
        if not args.probe:
            if args.trace:
                spans_path = os.path.join(args.out, f"{args.workload}.spans.json")
                ops, elapsed, layers = _traced_loop(workload, args.seconds, spans_path)
                report["layers"] = layers
            else:
                ops, elapsed = _timed_loop(workload, args.seconds)
            report.update(
                ops=ops, elapsed=elapsed, host=host_info(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
