"""Pairwise dependence testing between an intervened and a free variable.

Two statistical backends (distance correlation with a permutation p-value,
and Pearson correlation with a t-test) plus an exact graphical oracle used
for validation. The oracle exploits that a randomized variable can only
influence another variable along directed paths out of it once its incoming
edges are cut, so dependence reduces to reachability.

The test protocol: every factory here returns a test with
``test.batch(ds, sources) -> list[int]``, one bit row per source (an
intervened treatment of ``ds``) whose bit b is set iff the free treatment b
(one outside ``ds.targets``) tests dependent on it, and ``test.needs_data``,
false when the test reads only the dataset's targets. ``test(ds, a, b)`` is
bit b of a batch of one, computed for that pair alone; it refuses an ``a``
not intervened or a ``b`` not free with ``UsageError``. Discovery calls
only ``batch`` and reads ``needs_data``; a plain callable
``(ds, a, b) -> bool`` is not a test and discovery refuses it with
``UsageError``.

``test_independence(method="pearson")`` and the Pearson batch share one
p-value kernel, ``_pearson_p_value``, on Student's t distribution function
``scipy.special.stdtr``. Only a Pearson test loads ``scipy.special``:
``data_ci_test("pearson")`` when it is built and ``test_independence`` when
it computes a Pearson p-value. A test built before ``util.fork_map`` forks
has it loaded in every worker; oracle and dcorr tests load no SciPy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _stdtr():
    """``scipy.special.stdtr``, imported on the first call (about 25 MB and
    0.15 s that no other canm path needs)."""
    from scipy.special import stdtr
    return stdtr


def _pearson_p_value(r, df: int):
    """Two-sided t-test p-value of the correlation(s) ``r`` over ``df``
    degrees of freedom. ``1 - r**2`` is clipped at 1e-15, so a perfect
    correlation gives a finite t. Works on a float or an array."""
    t = np.abs(r) * np.sqrt(df / np.clip(1.0 - r * r, 1e-15, None))
    return 2.0 * _stdtr()(df, -t)


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


def _dependence_test(rows, needs_data: bool):
    """A test that follows the protocol of this module around ``rows(ds,
    sources, free)``, which gets checked sources and the free treatments."""
    def check_sources(ds, sources):
        if not all(a in ds.targets for a in sources):
            raise UsageError(f"dependence test sources {list(sources)} must be intervened "
                             f"treatments 0..{ds.n - 1}, under do({sorted(ds.targets)})")

    def batch(ds, sources):
        check_sources(ds, sources)
        return rows(ds, sources, [b for b in range(ds.n) if b not in ds.targets])

    def test(ds, a: int, b: int) -> bool:
        if b in ds.targets or not 0 <= b < ds.n:
            raise UsageError(f"dependence test b={b} must be one of the treatments "
                             f"0..{ds.n - 1} outside do({sorted(ds.targets)})")
        check_sources(ds, [a])
        return bool(rows(ds, [a], [b])[0] >> b & 1)

    test.batch, test.needs_data = batch, needs_data
    return test


def oracle_ci_test(g: Dag):
    """Dependence test backed by the true treatment DAG; caches reachability
    per intervention set so repeated discovery queries stay cheap. Latent
    confounding never changes a verdict, since randomizing a node cuts every
    path into it: a source's row is its reachability row. It reads only a
    dataset's targets, so discovery never has to draw the rows."""
    n, edges = g.n, g.edges
    cache: dict = {}

    def rows(ds, sources, free):
        if ds.n != n:
            raise UsageError(f"oracle of a {n}-node graph asked about {ds.n} treatments")
        reach = cache.get(ds.targets)
        if reach is None:
            reach = cache[ds.targets] = closure_bits(n, edges, ds.targets)
        return [reach[a] for a in sources]

    return _dependence_test(rows, needs_data=False)


def data_ci_test(method: str = "dcorr", level: float = DEFAULT_LEVEL,
                 permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0):
    """Dependence test evaluated on dataset columns. The per-query seed is
    derived from (seed, dataset seed, source, free node) so results do not
    depend on the order queries are issued in."""
    _check_level(level)
    if method not in ("dcorr", "pearson"):
        raise UsageError(f"unknown independence test {method!r}")
    if method == "pearson":
        _stdtr()  # loaded here, in the builder, so forked workers inherit it

    def dcorr_rows(ds, sources, free):
        return [sum(1 << b for b in free if test_independence(
            ds.x(a), ds.x(b), method=method, level=level, permutations=permutations,
            seed=derive_seed(seed, ds.seed, a, b)).dependent) for a in sources]

    def pearson_rows(ds, sources, free):
        # one centered gram product per dataset instead of per-pair passes
        m = ds.m
        if m < MIN_SAMPLES:
            raise UsageError(f"statistical backends need at least {MIN_SAMPLES} samples")
        cols = sorted({*sources, *free})
        block = ds.data[:, cols]
        if np.any(np.ptp(block, axis=0) == 0.0):
            raise UsageError("constant input vector")
        sub = block - block.mean(axis=0)
        norms = np.sqrt((sub * sub).sum(axis=0))
        gram = sub.T @ sub
        src, dst = np.searchsorted(cols, sources), np.searchsorted(cols, free)
        r = gram[np.ix_(src, dst)] / np.outer(norms[src], norms[dst])
        dependent = (_pearson_p_value(r, m - 2) < level).tolist()
        return [sum(1 << b for b, dep in zip(free, row) if dep) for row in dependent]

    return _dependence_test(pearson_rows if method == "pearson" else dcorr_rows,
                            needs_data=True)
