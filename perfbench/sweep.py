"""Repeat the benchmark over seeds, summarize the spread, and compare sweeps.

    python3 perfbench/sweep.py run --seeds 1-10 --trace 0 --summary perfbench/out/a.json
    python3 perfbench/sweep.py compare perfbench/out/a.json perfbench/out/b.json
    python3 perfbench/sweep.py outputs perfbench/out/a.json perfbench/out/t.json

``run`` calls run.py once per (seed, workload) for every workload in
BENCHMARK.json at its run_seconds, seeds in the outer loop so each
workload's runs spread over the whole sweep. For every metric it keeps the
values, their median and quartiles (``statistics.quantiles(n=4)``), and the
spread (Q3 - Q1) / median, checked against the metric's bound in
BENCHMARK.json. It also keeps each run's quality figures and per-op digests.

``compare A B`` is the gate of a change (B) against its parent (A). It fails
unless both sweeps have the same trace flag, run seconds, workloads and seed
lists, and both carry every metric BENCHMARK.json names for that trace flag.
It reports, per workload and metric, how much worse B's median is than A's
as a share of A's (end-to-end metrics against their bound), and checks that
mean_shd, mean_mae and the digests of the ops both runs of a seed ran are
identical. ``outputs A B`` does only the last check, pairing runs by seed;
it may compare a timed sweep with a traced one. Both exit 1 if a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def run(args):
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed} exited {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(HERE, "out", f"{w}-seed{seed}-trace{args.trace}.json")) as fh:
                record = json.load(fh)
            runs[w].append({
                "seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                "failed": line["failed"],
                "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                "quality": {k: v["value"] for k, v in record["quality"].items()},
                "digests": {str(op["index"]): op["digest"] for op in record["ops"]
                            if not op["traced"]},
            })
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[w][-1]["metrics"].items()), flush=True)
    summary = {"trace": args.trace, "seconds": seconds, "host": record["host"],
               "commit": record["commit"], "src_sha256": record["src_sha256"], "workloads": {}}
    ok = True
    for w, rs in runs.items():
        metrics = {}
        for name in rs[0]["metrics"]:
            st = _stats([r["metrics"][name] for r in rs])
            if name in bounds:
                st["bound"] = bounds[name]
                st["steady"] = st["spread"] is not None and st["spread"] <= bounds[name]
                ok &= st["steady"]
            metrics[name] = st
        ok &= all(r["correct"] for r in rs)
        summary["workloads"][w] = {"metrics": metrics, "runs": rs}
    with open(args.summary, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    _print_summary(summary)
    return 0 if ok else 1


def _print_summary(summary):
    for w, data in summary["workloads"].items():
        print(f"== {w}")
        for name, st in data["metrics"].items():
            spread = "n/a" if st["spread"] is None else f"{st['spread']:.4f}"
            gate = f" bound {st['bound']} {'ok' if st['steady'] else 'WIDE'}" if "bound" in st else ""
            print(f"  {name:45s} median {st['median']:.6g} q1 {st['q1']:.6g} "
                  f"q3 {st['q3']:.6g} spread {spread}{gate}")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _by_seed(runs):
    return {r["seed"]: r for r in runs}


def _same_outputs(w, da, db):
    """Check quality figures and shared per-op digests seed by seed."""
    ra_by, rb_by = _by_seed(da["runs"]), _by_seed(db["runs"])
    if sorted(ra_by) != sorted(rb_by):
        print(f"  {w}: seeds differ: {sorted(ra_by)} vs {sorted(rb_by)}")
        return False
    ok = True
    for seed in sorted(ra_by):
        ra, rb = ra_by[seed], rb_by[seed]
        common = set(ra["digests"]) & set(rb["digests"])
        same_q = ra["quality"] == rb["quality"]
        same_d = bool(common) and all(ra["digests"][k] == rb["digests"][k] for k in common)
        if not (same_q and same_d):
            ok = False
            print(f"  {w} seed {seed}: quality same={same_q} "
                  f"digests same={same_d} over {len(common)} ops")
    print(f"  {w}: quality figures and digests compared over {len(ra_by)} seeds")
    return ok


def _same_shape(spec, a, b):
    """Both sweeps ran the same way and carry every metric the spec names."""
    problems = [f"{key} differs: {a[key]} vs {b[key]}"
                for key in ("trace", "seconds") if a[key] != b[key]]
    names = [w["name"] for w in spec["workloads"]]
    for label, s in (("A", a), ("B", b)):
        if sorted(s["workloads"]) != sorted(names):
            problems.append(f"{label} workloads {sorted(s['workloads'])} != {sorted(names)}")
    required = [m["name"] for m in spec["per_layer" if a["trace"] else "end_to_end"]]
    for w in [n for n in names if n in a["workloads"] and n in b["workloads"]]:
        da, db = a["workloads"][w], b["workloads"][w]
        seeds_a, seeds_b = sorted(_by_seed(da["runs"])), sorted(_by_seed(db["runs"]))
        if seeds_a != seeds_b or len(seeds_a) != len(da["runs"]) or len(seeds_b) != len(db["runs"]):
            problems.append(f"{w}: seed lists differ: {seeds_a} vs {seeds_b}")
        for name in required + [n for n in da["metrics"] if n not in required]:
            for label, d in (("A", da), ("B", db)):
                if name not in d["metrics"]:
                    problems.append(f"{w}: {name} missing from {label}")
        for label, d in (("A", da), ("B", db)):
            if not all(r["correct"] for r in d["runs"]):
                problems.append(f"{w}: {label} has a run whose outputs failed a check")
    for p in problems:
        print(p)
    return not problems


def compare(args):
    spec = _spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = _load(args.a), _load(args.b)
    if not _same_shape(spec, a, b):
        print("FAIL")
        return 1
    ok = True
    for w, da in a["workloads"].items():
        db = b["workloads"][w]
        print(f"== {w}")
        for name in da["metrics"]:
            ma, mb = da["metrics"][name]["median"], db["metrics"][name]["median"]
            if ma == 0:
                print(f"  {name:45s} A {ma:.6g} B {mb:.6g}")
                continue
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            verdict = ""
            if name in bounds:
                verdict = "ok" if worse <= bounds[name] else "WORSE"
                ok &= worse <= bounds[name]
            print(f"  {name:45s} A {ma:.6g} B {mb:.6g} worse by {worse:+.4f} {verdict}")
        ok &= _same_outputs(w, da, db)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def outputs(args):
    a, b = _load(args.a), _load(args.b)
    ok = sorted(a["workloads"]) == sorted(b["workloads"])
    if not ok:
        print(f"workloads differ: {sorted(a['workloads'])} vs {sorted(b['workloads'])}")
    for w in [n for n in a["workloads"] if n in b["workloads"]]:
        ok &= _same_outputs(w, a["workloads"][w], b["workloads"][w])
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--summary", required=True, help="path of the summary JSON")
    for name in ("compare", "outputs"):
        c = sub.add_parser(name)
        c.add_argument("a")
        c.add_argument("b")
    args = p.parse_args(argv)
    return {"run": run, "compare": compare, "outputs": outputs}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
