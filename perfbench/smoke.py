"""Smoke test of the benchmark itself, at the minimal op sizes.

    python3 perfbench/smoke.py

For every workload it runs run.py briefly, untraced and traced, and checks
that the last line carries every metric BENCHMARK.json names with its unit,
that no op failed (fail_frac 0), and that the traced ops' digests equal the
untraced ones. It also checks that run.py refuses, with a non-zero exit and
no result line, in a directory that holds the benchmark but no canm sources.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "smoke")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke",
           "--out", OUT]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _record(workload, trace):
    with open(os.path.join(OUT, f"{workload}-seed3-trace{trace}.json")) as fh:
        return json.load(fh)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(line)}")
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
            if line["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{where}: {line['failed']} of {line['attempted']} ops failed")
        plain = {op["index"]: op["digest"] for op in _record(workload, 0)["ops"]}
        traced = {op["index"]: op["digest"] for op in _record(workload, 1)["ops"] if op["traced"]}
        common = set(plain) & set(traced)
        if not common or any(plain[i] != traced[i] for i in common):
            problems.append(f"{workload}: traced digests differ from the untraced run's")
        print(f"{workload}: checked ({len(common)} ops compared traced vs untraced)", flush=True)

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("oracle-discovery", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without canm sources did not fail cleanly")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: PASS" if not problems else "smoke: FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
