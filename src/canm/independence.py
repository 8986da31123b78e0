"""Pairwise dependence testing between an intervened and a free variable.

Two statistical backends (distance correlation with a permutation p-value,
and Pearson correlation with a t-test) plus an exact graphical oracle used
for validation. The oracle exploits that a randomized variable can only
influence another variable along directed paths out of it once its incoming
edges are cut, so dependence reduces to reachability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import UsageError
from .graph import Admg, closure_bits
from .util import derive_seed

DEFAULT_LEVEL = 0.01
DEFAULT_PERMUTATIONS = 200
MIN_SAMPLES = 20


@dataclass(frozen=True)
class IndependenceVerdict:
    dependent: bool
    statistic: float
    p_value: float


def _centered_distances(v: np.ndarray) -> np.ndarray:
    d = np.abs(v[:, None] - v[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def _dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    dcov2 = (a * b).mean()
    dvar_a = (a * a).mean()
    dvar_b = (b * b).mean()
    denom = np.sqrt(dvar_a * dvar_b)
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def _validate_pair(xs: np.ndarray, ys: np.ndarray) -> None:
    if xs.shape != ys.shape or xs.ndim != 1:
        raise UsageError("xs and ys must be 1-d vectors of equal length")
    if len(xs) < MIN_SAMPLES:
        raise UsageError(f"statistical backends need at least {MIN_SAMPLES} samples")
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        raise UsageError("constant input vector")


def test_independence(xs, ys, method: str = "dcorr", level: float = DEFAULT_LEVEL,
                      permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0) -> IndependenceVerdict:
    """Test marginal dependence of two samples.

    ``dcorr`` computes the distance-correlation statistic with a permutation
    p-value and detects arbitrary nonlinear dependence; ``pearson`` is the
    fast linear-model backend. Deterministic for a fixed seed.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _validate_pair(xs, ys)
    if method == "pearson":
        r = float(np.corrcoef(xs, ys)[0, 1])
        df = len(xs) - 2
        r2 = min(r * r, 1.0 - 1e-15)
        t = abs(r) * np.sqrt(df / (1.0 - r2))
        p = float(2.0 * stats.t.sf(t, df))
        return IndependenceVerdict(p < level, r, p)
    if method == "dcorr":
        rng = np.random.default_rng(seed)
        a = _centered_distances(xs)
        b = _centered_distances(ys)
        observed = _dcor_from_centered(a, b)
        exceed = 0
        for _ in range(permutations):
            perm = rng.permutation(len(ys))
            if _dcor_from_centered(a, b[np.ix_(perm, perm)]) >= observed:
                exceed += 1
        p = (1.0 + exceed) / (1.0 + permutations)
        return IndependenceVerdict(p < level, observed, p)
    raise UsageError(f"unknown independence test {method!r}")


def oracle_dependent(g: Admg, intervened, a: int, b: int) -> bool:
    """Exact verdict for the query shape used during discovery: is the
    non-intervened b dependent on the randomized a under do(intervened)?"""
    intervened = frozenset(int(v) for v in intervened)
    if a not in intervened:
        raise UsageError("a must be an intervened node")
    if b in intervened:
        raise UsageError("b must not be intervened")
    if not (0 <= b < g.dag.n):
        raise UsageError("b out of range")
    return bool(closure_bits(g.dag.n, g.dag.edges, intervened)[a] >> b & 1)


def oracle_ci_test(g: Admg):
    """Dependence test backed by the true graph; caches reachability per
    intervention set so repeated discovery queries stay cheap. It reads only
    a dataset's targets, so discovery never has to draw the rows."""
    n, edges = g.dag.n, g.dag.edges
    cache: dict = {}

    def _reach(targets):
        reach = cache.get(targets)
        if reach is None:
            reach = cache[targets] = closure_bits(n, edges, targets)
        return reach

    def test(ds, a: int, b: int) -> bool:
        key = ds.targets
        if a not in key or b in key:
            raise UsageError("oracle query must intervene on a and not on b")
        return bool(_reach(key)[a] >> b & 1)

    def batch(ds, pairs):
        reach = _reach(ds.targets)
        return [bool(reach[a] >> b & 1) for a, b in pairs]

    test.needs_data = False
    test.batch = batch
    return test


def data_ci_test(method: str = "dcorr", level: float = DEFAULT_LEVEL,
                 permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0):
    """Dependence test evaluated on dataset columns. The per-query seed is
    derived from (seed, dataset seed, pair) so results do not depend on the
    order queries are issued in."""

    def test(ds, a: int, b: int) -> bool:
        verdict = test_independence(
            ds.x(a), ds.x(b), method=method, level=level,
            permutations=permutations, seed=derive_seed(seed, ds.seed, a, b),
        )
        return verdict.dependent

    def pearson_batch(ds, pairs):
        # one centered gram product per dataset instead of per-pair passes
        m = ds.m
        if m < MIN_SAMPLES:
            raise UsageError(f"statistical backends need at least {MIN_SAMPLES} samples")
        cols = sorted({c for pair in pairs for c in pair})
        block = ds.data[:, cols]
        if np.any(np.ptp(block, axis=0) == 0.0):
            raise UsageError("constant input vector")
        sub = block - block.mean(axis=0)
        norms = np.sqrt((sub * sub).sum(axis=0))
        gram = sub.T @ sub
        idx = {c: k for k, c in enumerate(cols)}
        r = np.array([gram[idx[a], idx[b]] / (norms[idx[a]] * norms[idx[b]])
                      for a, b in pairs])
        df = m - 2
        t = np.abs(r) * np.sqrt(df / np.clip(1.0 - r * r, 1e-15, None))
        p = 2.0 * special.stdtr(df, -t)
        return [bool(v) for v in p < level]

    test.needs_data = True
    if method == "pearson":
        test.batch = pearson_batch
    return test
