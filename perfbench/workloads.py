"""The four benchmark workloads.

Each workload turns (workload seed, op index) into one op: a call into
canm's public API that writes its output, is checked, and is reduced to a
digest of its output bytes. The benchmark derives every op seed itself, with
hashlib, so the inputs do not depend on the code under test.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

NAMES = ("oracle-discovery", "pearson-discovery", "mae-estimation", "cli-pipeline")

# Ops whose quality figures (mean_shd, mean_mae) are reported. A fixed count
# keeps those figures a function of the seed alone, whatever the op rate.
QUALITY_OPS = 4


def op_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2s(f"perfbench:{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") >> 1  # fits a signed 32-bit CLI int


@dataclass
class OpResult:
    seconds: float  # wall time of the canm calls alone
    digest: str
    ok: bool
    shd: list = field(default_factory=list)  # per-replication SHD
    mae: list = field(default_factory=list)  # per (size, query) MAE
    error: str = ""


# Harness configs per workload and size. "full" is the benchmark; "smoke" is
# the minimal size the smoke test runs.
HARNESS = {
    ("oracle-discovery", "full"): dict(
        kind="discovery-samples", test="oracle", n=20, d_max=4, alpha=3.0,
        sample_sizes=(1,), replications=1),
    ("oracle-discovery", "smoke"): dict(
        kind="discovery-samples", test="oracle", n=6, d_max=3, alpha=1.0,
        sample_sizes=(1,), replications=1),
    ("pearson-discovery", "full"): dict(
        kind="discovery-samples", test="pearson", level=1e-10, n=20, d_max=3,
        alpha=1.0, sample_sizes=(1000,), replications=1),
    ("pearson-discovery", "smoke"): dict(
        kind="discovery-samples", test="pearson", level=1e-10, n=5, d_max=3,
        alpha=1.0, sample_sizes=(200,), replications=1),
    ("mae-estimation", "full"): dict(
        kind="mae", n=4, d_max=3, sample_sizes=(300, 1000, 3000), mc_draws=50_000,
        oracle_draws=200_000, pairwise_prob_y=0.5, replications=1),
    ("mae-estimation", "smoke"): dict(
        kind="mae", n=3, d_max=3, sample_sizes=(300,), mc_draws=2_000,
        oracle_draws=5_000, pairwise_prob_y=0.5, replications=1),
}

CLI_SIZES = {
    "full": dict(n=4, dmax=3, alpha=3, samples=1000, mc=100_000),
    "smoke": dict(n=3, dmax=3, alpha=1, samples=200, mc=2_000),
}


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Workload:
    """Builds and runs the ops of one workload inside a work directory."""

    def __init__(self, name: str, size: str, seed: int, work_dir: str):
        from canm import cli, harness

        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self._cli = cli
        self._harness = harness
        if name == "cli-pipeline":
            self._cli_size = CLI_SIZES[size]
        else:
            self._config = HARNESS[(name, size)]

    def run_op(self, index: int, tracer=None) -> OpResult:
        op_dir = tempfile.mkdtemp(prefix=f"op{index}-", dir=self.work_dir)
        try:
            if self.name == "cli-pipeline":
                return self._cli_op(index, op_dir, tracer)
            return self._harness_op(index, op_dir)
        finally:
            shutil.rmtree(op_dir)

    def _harness_op(self, index, op_dir) -> OpResult:
        harness = self._harness
        cfg = harness.ExperimentConfig(seed=op_seed(self.seed, index), out_dir=op_dir,
                                       **self._config)
        start = time.perf_counter()
        if cfg.kind == "mae":
            path, _rows = harness.run_mae_experiment(cfg)
        else:
            path = harness.run_discovery_experiment(cfg)
        seconds = time.perf_counter() - start
        with open(path, "rb") as fh:
            data = fh.read()
        rows = _csv_rows(data.decode())
        res = OpResult(seconds, hashlib.sha256(data).hexdigest(), True)
        if cfg.kind == "mae":
            res.mae = [float(r["mae"]) for r in rows]
            res.ok = (all(int(r["gate_failures"]) == 0 for r in rows)
                      and all(math.isfinite(v) for v in res.mae))
        else:
            # one replication per op, so the cell mean is that replication's SHD
            res.shd = [float(r["mean_shd"]) for r in rows]
            if cfg.test == "oracle":
                res.ok = all(v == 0.0 for v in res.shd)
            else:
                res.ok = all(math.isfinite(v) for v in res.shd)
        return res

    def _cli_op(self, index, op_dir, tracer) -> OpResult:
        size = self._cli_size
        seed = op_seed(self.seed, index)
        chain = [
            ["gen-scm", "--n", str(size["n"]), "--dmax", str(size["dmax"]),
             "--seed", str(seed), "--out", "anm.json"],
            ["discover", "--anm", "anm.json", "--dmax", str(size["dmax"]),
             "--alpha", str(size["alpha"]), "--samples", str(size["samples"]),
             "--test", "pearson", "--seed", str(seed + 1), "--out", "disc"],
            ["fit", "--from-dir", "disc", "--out", "model.json"],
            ["ace", "--model", "model.json", "--targets", "0", "--values", "1.0",
             "--mc", str(size["mc"]), "--seed", str(seed + 2)],
        ]
        digest = hashlib.sha256()
        cwd = os.getcwd()
        os.chdir(op_dir)  # relative paths keep the printed output run-independent
        start = time.perf_counter()
        try:
            for argv in chain:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        code = self._cli.run_cli(argv)
                    else:
                        code = tracer.call(f"cli.{argv[0]}", self._cli.run_cli, argv)
                if code != 0:
                    return OpResult(time.perf_counter() - start, digest.hexdigest(), False,
                                    error=f"{argv[0]} exited {code}: {err.getvalue().strip()}")
                digest.update(out.getvalue().encode())
            seconds = time.perf_counter() - start
            for name in ("anm.json", "disc/graph.json", "disc/report.json", "model.json"):
                with open(name, "rb") as fh:
                    digest.update(fh.read())
        finally:
            os.chdir(cwd)
        fields = out.getvalue().strip().split(",")
        try:
            ok = len(fields) == 4 and all(math.isfinite(float(v)) for v in fields[2:])
        except ValueError:
            ok = False
        return OpResult(seconds, digest.hexdigest(), ok, error="" if ok else f"bad ace line {fields}")
