"""canm benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload oracle-discovery --seed 1 --seconds 20 --trace 0

Load comes from one process in a closed loop: the next op starts when the
previous one returns. Each op's seed is derived from (--seed, op index).
BLAS is pinned to one thread. Set-up time is sampled in three fresh
processes (two that stop once set up, then the timed one) and reported as
their median. The timed process runs ops for --seconds and checks every
output. With --trace 1 the same ops run untraced and traced in pairs, and
the per-layer metrics come from the traced calls.

Prints one ``name value unit`` line per metric, then, as the last line, a
JSON object with the keys correct, attempted, failed and metrics. The full
record (host, commit, per-op times and digests) goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 3
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_GRACE_S = 120  # past --seconds, before a stuck worker is killed

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not gated: fail_frac is 0 when all is well, and
# the quality figures depend on the seed, not on the speed of the code.
QUALITY = {"fail_frac": "ratio", "mean_shd": "edges", "mean_mae": "y"}


def tail(times):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest time, at percentile 100*(N-10)/N. With ten or fewer samples no
    such percentile exists and the maximum stands in, at percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def _worker(args, probe: bool) -> tuple:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_PINS})
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--out", args.out]
    if probe:
        cmd.append("--probe")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_sha256():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _mean(values):
    return statistics.fmean(values) if values else None


def summarize(args, setups, report) -> dict:
    """The result record: metrics with units, quality figures, host, ops."""
    from workloads import QUALITY_OPS

    ops = report["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    plain = [op for op in ops if not op["traced"]]
    times = [op["seconds"] for op in plain]
    tail_s, tail_pct = tail(times)
    quality_ops = [op for op in plain if op["index"] < QUALITY_OPS]
    shd = [v for op in quality_ops for v in op["shd"]]
    mae = [v for op in quality_ops for v in op["mae"]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(plain) / report["elapsed"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "fail_frac": failed / len(ops),
        "mean_shd": _mean(shd),
        "mean_mae": _mean(mae),
    }
    if args.trace:
        from tracer import LAYER_METRICS

        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in report["layers"].items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "host": report["host"],
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "quality": {k: {"value": values[k], "unit": u} for k, u in QUALITY.items()},
        "op_tail": {"percentile": tail_pct, "count": len(times)},
        "quality_ops": len(quality_ops),
        "setup_samples_s": setups,
        "ops": ops,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   help="oracle-discovery, pearson-discovery, mae-estimation or cli-pipeline")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the minimal op sizes the smoke test uses")
    p.add_argument("--out", default=OUT, help="directory for result and span files")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "canm", "__init__.py")):
        raise SystemExit(f"no canm sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, HERE)
    from workloads import NAMES

    if args.workload not in NAMES:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)}")

    setups = [_worker(args, probe=True)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, report = _worker(args, probe=False)
    setups.append(setup)
    record = summarize(args, setups, report)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, m in list(record["metrics"].items()) + list(record["quality"].items()):
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}")
    tail_info = record["op_tail"]
    print(f"# op_tail_s is p{tail_info['percentile']:.1f} of {tail_info['count']} ops; "
          f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
