"""Pairwise dependence testing between an intervened and a free variable.

Two statistical backends (distance correlation with a permutation p-value,
and Pearson correlation with a t-test) plus an exact graphical oracle used
for validation. The oracle exploits that a randomized variable can only
influence another variable along directed paths out of it once its incoming
edges are cut, so dependence reduces to reachability.

The test protocol: every factory here returns a test with
``test.batch(ds, pairs) -> list[bool]``, one verdict per (a, b) pair of
dataset columns, and ``test.needs_data``, false when the test reads only the
dataset's targets. ``test(ds, a, b)`` is a batch of one. Discovery calls
only ``batch`` and reads ``needs_data``; a plain callable ``(ds, a, b) ->
bool`` is not a test and discovery refuses it with ``UsageError``.

``test_independence(method="pearson")`` and the Pearson batch share one
p-value kernel, ``_pearson_p_value``, on Student's t distribution function
``scipy.special.stdtr``. ``scipy.special`` is the only SciPy module this
package loads at import.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Imported at module level, not lazily: pearson_batch runs in forked workers
# and every fork_map call starts a fresh pool, so a lazy import would be paid
# again in each worker of each call (about 0.3 s). Imported before the fork,
# it is shared by every worker.
from scipy import special

from .errors import UsageError
from .graph import Dag, closure_bits
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


def _pearson_p_value(r, df: int):
    """Two-sided t-test p-value of the correlation(s) ``r`` over ``df``
    degrees of freedom. ``1 - r**2`` is clipped at 1e-15, so a perfect
    correlation gives a finite t. Works on a float or an array."""
    t = np.abs(r) * np.sqrt(df / np.clip(1.0 - r * r, 1e-15, None))
    return 2.0 * special.stdtr(df, -t)


def _check_level(level) -> None:
    if not 0.0 < level < 1.0:
        raise UsageError(f"level must lie strictly between 0 and 1, got {level}")


def test_independence(xs, ys, method: str = "dcorr", level: float = DEFAULT_LEVEL,
                      permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0) -> IndependenceVerdict:
    """Test marginal dependence of two samples.

    ``dcorr`` computes the distance-correlation statistic with a permutation
    p-value and detects arbitrary nonlinear dependence; ``pearson`` is the
    fast linear-model backend. Deterministic for a fixed seed.
    """
    _check_level(level)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _validate_pair(xs, ys)
    if method == "pearson":
        r = float(np.corrcoef(xs, ys)[0, 1])
        p = float(_pearson_p_value(r, len(xs) - 2))
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


def _dependence_test(batch, needs_data: bool):
    """A test that follows the protocol of this module around ``batch``."""
    def test(ds, a: int, b: int) -> bool:
        return batch(ds, [(a, b)])[0]

    test.batch, test.needs_data = batch, needs_data
    return test


def oracle_ci_test(g: Dag):
    """Dependence test backed by the true treatment DAG; caches reachability
    per intervention set so repeated discovery queries stay cheap. Latent
    confounding never changes a verdict, since randomizing a node cuts every
    path into it. It reads only a dataset's targets, so discovery never has
    to draw the rows."""
    n, edges = g.n, g.edges
    cache: dict = {}

    def batch(ds, pairs):
        key = ds.targets
        for a, b in pairs:
            if a not in key or b in key or not (0 <= a < n and 0 <= b < n):
                raise UsageError("oracle query must intervene on a, not on b, both graph nodes")
        reach = cache.get(key)
        if reach is None:
            reach = cache[key] = closure_bits(n, edges, key)
        return [bool(reach[a] >> b & 1) for a, b in pairs]

    return _dependence_test(batch, needs_data=False)


def _columns(ds, pairs) -> list:
    """The sorted columns the pairs name, each a treatment of ds: the
    outcome column, or any index outside 0..n-1, raises UsageError."""
    cols = sorted({c for pair in pairs for c in pair})
    if cols and (cols[0] < 0 or cols[-1] >= ds.n):
        raise UsageError(f"dependence test pairs must name treatments 0..{ds.n - 1}")
    return cols


def data_ci_test(method: str = "dcorr", level: float = DEFAULT_LEVEL,
                 permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0):
    """Dependence test evaluated on dataset columns. The per-query seed is
    derived from (seed, dataset seed, pair) so results do not depend on the
    order queries are issued in."""
    _check_level(level)

    def dcorr_batch(ds, pairs):
        _columns(ds, pairs)
        return [test_independence(ds.x(a), ds.x(b), method=method, level=level,
                                  permutations=permutations,
                                  seed=derive_seed(seed, ds.seed, a, b)).dependent
                for a, b in pairs]

    def pearson_batch(ds, pairs):
        # one centered gram product per dataset instead of per-pair passes
        m = ds.m
        if m < MIN_SAMPLES:
            raise UsageError(f"statistical backends need at least {MIN_SAMPLES} samples")
        cols = _columns(ds, pairs)
        block = ds.data[:, cols]
        if np.any(np.ptp(block, axis=0) == 0.0):
            raise UsageError("constant input vector")
        sub = block - block.mean(axis=0)
        norms = np.sqrt((sub * sub).sum(axis=0))
        gram = sub.T @ sub
        idx = {c: k for k, c in enumerate(cols)}
        r = np.array([gram[idx[a], idx[b]] / (norms[idx[a]] * norms[idx[b]])
                      for a, b in pairs])
        return [bool(v) for v in _pearson_p_value(r, m - 2) < level]

    return _dependence_test(pearson_batch if method == "pearson" else dcorr_batch,
                            needs_data=True)
