"""Confounded additive-noise simulator.

A model is a DAG over treatments, one structural function per treatment, an
outcome function over all treatments, and a single multivariate Gaussian
noise vector (U_1..U_n, U_Y) whose off-diagonal covariance is what makes the
model confounded. Sampling under arbitrary do-interventions and the
ground-truth effect oracles (Monte-Carlo, and exact for linear treatment
equations) live here.

Models are immutable; sampling is a pure function of (model, targets, policy,
m, seed).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, malformed
from .graph import Dag, node_index, topological_order
from .util import chol_factor, read_json, write_json

PSD_EIG_FLOOR = -1e-9
SYM_TOL = 1e-12


def _norm_linear(linear):
    if linear is None:
        return ()
    items = linear.items() if hasattr(linear, "items") else linear
    out = {}
    for node, coeff in items:
        node = node_index(node)
        if node in out:
            raise UsageError(f"duplicate linear term for node {node}")
        out[node] = float(coeff)
    return tuple(sorted(out.items()))


def _norm_pairwise(pairwise):
    if pairwise is None:
        return ()
    items = pairwise.items() if hasattr(pairwise, "items") else [
        ((p, q), c) for p, q, c in pairwise
    ]
    out = {}
    for (p, q), coeff in items:
        p, q = sorted((node_index(p), node_index(q)))
        if p == q:
            raise UsageError(f"pairwise term must reference two distinct nodes, got ({p}, {q})")
        if (p, q) in out:
            raise UsageError(f"duplicate pairwise term for ({p}, {q})")
        out[(p, q)] = float(coeff)
    return tuple((p, q, c) for (p, q), c in sorted(out.items()))


@dataclass(frozen=True)
class StructuralFunction:
    """intercept + sum of linear terms + sum of pairwise product terms.

    ``linear`` maps parent -> coefficient, ``pairwise`` maps an unordered
    parent pair -> coefficient. Accepts dicts at construction and normalizes
    to sorted tuples so evaluation order (and hence float rounding) is fixed.
    Every coefficient must be finite.
    """

    intercept: float = 0.0
    linear: tuple = ()
    pairwise: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "linear", _norm_linear(self.linear))
        object.__setattr__(self, "pairwise", _norm_pairwise(self.pairwise))
        coeffs = [self.intercept, *(c for _, c in self.linear), *(c for *_, c in self.pairwise)]
        if not all(map(math.isfinite, coeffs)):
            raise UsageError("structural function coefficients must be finite")

    def referenced(self) -> frozenset:
        nodes = {p for p, _ in self.linear}
        for p, q, _ in self.pairwise:
            nodes.update((p, q))
        return frozenset(nodes)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a full treatment matrix of shape (m, n_treatments),
        term by term in the normalized order, in place in one work buffer.
        Column reads are fastest on a column-major x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], self.intercept)
        work = np.empty_like(out)
        for p, c in self.linear:
            out += np.multiply(x[:, p], c, out=work)
        for p, q, c in self.pairwise:
            np.multiply(x[:, p], c, out=work)
            out += np.multiply(work, x[:, q], out=work)
        return out

    def to_json(self) -> dict:
        return {
            "intercept": self.intercept,
            "linear": {str(p): c for p, c in self.linear},
            "pairwise": [[p, q, c] for p, q, c in self.pairwise],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StructuralFunction":
        with malformed("structural function JSON"):
            return cls(obj.get("intercept", 0.0), obj.get("linear", {}),
                       obj.get("pairwise", []))


@dataclass(frozen=True)
class NoiseSpec:
    """Mean and covariance of the joint noise (U_1..U_n, U_Y): finite, the
    covariance symmetric and PSD."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (len(mean), len(mean)):
            raise UsageError(f"cov shape {cov.shape} does not match mean length {len(mean)}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise UsageError("noise mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > SYM_TOL:
            raise UsageError("noise covariance must be symmetric")
        eigmin = float(np.linalg.eigvalsh(cov)[0])
        if eigmin < PSD_EIG_FLOOR:
            raise UsageError(f"noise covariance is not PSD (min eigenvalue {eigmin:.3e})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def factor(self) -> np.ndarray:
        # Cholesky with eigenvalue-clipped repair for near-PSD inputs; cached.
        cached = getattr(self, "_factor", None)
        if cached is None:
            cached = chol_factor(self.cov)
            object.__setattr__(self, "_factor", cached)
        return cached


@dataclass(frozen=True)
class ConfoundedAnm:
    """Treatment graph + structural functions + joint Gaussian noise.

    ``independent_flags[a]`` asserts that U_a is independent of every other
    noise term; the covariance row must then be zero off the diagonal.
    """

    graph: Dag
    f: tuple
    f_y: StructuralFunction
    noise: NoiseSpec
    independent_flags: tuple = ()

    def __post_init__(self):
        n = self.graph.n
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != n:
            raise UsageError(f"expected {n} treatment functions, got {len(self.f)}")
        flags = tuple(bool(v) for v in self.independent_flags) or (False,) * n
        if len(flags) != n:
            raise UsageError("independent_flags length must equal treatment count")
        object.__setattr__(self, "independent_flags", flags)
        if self.noise.dim != n + 1:
            raise UsageError(f"noise dimension must be n+1={n + 1}, got {self.noise.dim}")
        pa = self.graph.parent_sets()
        for i, fn in enumerate(self.f):
            extra = fn.referenced() - pa[i]
            if extra:
                raise UsageError(f"f_{i} references non-parents {sorted(extra)}")
        if self.f_y.referenced() - frozenset(range(n)):
            raise UsageError("outcome function references unknown treatments")
        for a, flag in enumerate(flags):
            if flag:
                row = np.delete(self.noise.cov[a], a)
                if np.max(np.abs(row)) > SYM_TOL:
                    raise UsageError(
                        f"treatment {a} flagged independent but noise row correlates"
                    )

    @property
    def n(self) -> int:
        return self.graph.n

    def topo(self) -> list:
        cached = getattr(self, "_topo", None)
        if cached is None:
            cached = topological_order(self.graph)
            object.__setattr__(self, "_topo", cached)
        return cached


@dataclass(frozen=True)
class InterventionalDataset:
    """Sample matrix (columns X1..Xn, Y) plus the regime that generated it."""

    targets: frozenset
    value_policy: str
    data: np.ndarray
    seed: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] < 2:
            raise UsageError("dataset must be a 2-d matrix with at least X1 and Y columns")
        if data.size and not np.all(np.isfinite(data)):
            raise UsageError("dataset contains non-finite values")
        object.__setattr__(self, "targets", parse_targets(self.targets, data.shape[1] - 1))
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1] - 1

    def x(self, i: int) -> np.ndarray:
        return self.data[:, i]

    def treatments(self) -> np.ndarray:
        return self.data[:, : self.n]

    def y(self) -> np.ndarray:
        return self.data[:, self.n]


class LazyDataset:
    """An InterventionalDataset drawn on first read: ``targets`` (checked
    against n here, as an eager draw would), ``n`` and ``m`` are known at
    once; any other attribute calls ``draw()`` once and reads its result,
    which must have that n and m."""

    __slots__ = ("targets", "n", "m", "_draw", "_ds")

    def __init__(self, n: int, targets, m: int, draw):
        self.targets = parse_targets(targets, n)
        self.n, self.m = int(n), int(m)
        self._draw, self._ds = draw, None

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if self._ds is None:
            ds = self._draw()
            if (ds.n, ds.m) != (self.n, self.m):
                raise UsageError(f"dataset has n={ds.n}, m={ds.m}; "
                                 f"its handle promised n={self.n}, m={self.m}")
            self._ds, self._draw = ds, None
        return getattr(self._ds, name)


@dataclass(frozen=True)
class AceEstimate:
    """Point estimate of E[Y|do(...)] with its Monte-Carlo standard error."""

    value: float
    stderr: float


def parse_targets(spec, n: int) -> frozenset:
    """Accept 'all', an iterable of indices, or a comma string like '0,2'."""
    if spec is None:
        return frozenset()
    if isinstance(spec, str):
        text = spec.strip()
        if text in ("", "none"):
            return frozenset()
        if text == "all":
            return frozenset(range(n))
        spec = text.split(",")
    try:
        targets = frozenset(map(node_index, spec))
    except TypeError as exc:  # spec is not iterable
        raise UsageError(f"targets must be integer node indices: {exc}") from exc
    if targets and (min(targets) < 0 or max(targets) >= n):
        raise UsageError(f"target out of range for n={n}")
    return targets


def _policy_numbers(policy: str, prefix: str) -> list:
    try:
        values = [float(tok) for tok in policy[len(prefix):].split(",") if tok != ""]
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise UsageError(f"value policy {policy!r} needs comma-separated finite numbers")
    return values


def _policy_values(policy: str, targets_sorted, m: int, rng: np.random.Generator) -> np.ndarray:
    if policy == "std_normal":
        return rng.standard_normal((m, len(targets_sorted)))
    if policy.startswith("fixed:"):
        vals = _policy_numbers(policy, "fixed:")
        if len(vals) != len(targets_sorted):
            raise UsageError(
                f"fixed policy supplies {len(vals)} values for {len(targets_sorted)} targets"
            )
        return np.tile(np.asarray(vals, dtype=float), (m, 1))
    if policy.startswith("uniform:"):
        bounds = _policy_numbers(policy, "uniform:")
        if len(bounds) != 2 or not bounds[0] < bounds[1]:
            raise UsageError(f"uniform policy needs two bounds lo < hi, got {policy!r}")
        return rng.uniform(*bounds, size=(m, len(targets_sorted)))
    raise UsageError(f"unknown value policy {policy!r}")


def sample(anm: ConfoundedAnm, targets, value_policy: str = "std_normal",
           m: int = 1000, seed: int = 0) -> InterventionalDataset:
    """Draw m i.i.d. rows under do(targets) with target values set per policy.

    Non-intervened treatments are evaluated in topological order as
    f_i(parents) + U_i; the outcome is f_Y(X) + U_Y. Bitwise deterministic
    for a fixed seed.
    """
    n = anm.n
    targets = parse_targets(targets, n)
    if m < 1:
        raise UsageError("m must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, n + 1)) @ anm.noise.factor().T + anm.noise.mean
    tsort = sorted(targets)
    drawn = _policy_values(value_policy, tsort, m, rng)
    vals = np.zeros((m, n + 1), order="F")  # column-major while evaluating
    col = {t: k for k, t in enumerate(tsort)}
    for node in anm.topo():
        if node in targets:
            vals[:, node] = drawn[:, col[node]]
        else:
            vals[:, node] = anm.f[node].evaluate(vals[:, :n]) + u[:, node]
    vals[:, n] = anm.f_y.evaluate(vals[:, :n]) + u[:, n]
    return InterventionalDataset(targets, value_policy, np.ascontiguousarray(vals), seed)


def anm_sampler(anm: ConfoundedAnm, value_policy: str = "std_normal"):
    """Sampler closure with the (targets, m, seed) -> dataset signature the
    discovery routines expect."""

    def draw(targets, m, seed):
        return sample(anm, targets, value_policy, m, seed)

    return draw


def true_ace_oracle(anm: ConfoundedAnm, w_targets, w_values, m_mc: int = 100_000,
                    seed: int = 0) -> AceEstimate:
    """Ground-truth Monte-Carlo mean of Y under do(w_targets = w_values)."""
    if m_mc < 1:
        raise UsageError("m_mc must be >= 1")
    targets = parse_targets(w_targets, anm.n)
    w_values = np.asarray(w_values, dtype=float).reshape(-1)
    if len(w_values) != len(targets):
        raise UsageError("value count does not match target count")
    policy = "fixed:" + ",".join(repr(float(v)) for v in w_values) if targets else "std_normal"
    ds = sample(anm, targets, policy, m_mc, seed)
    y = ds.y()
    se = float(y.std(ddof=1) / np.sqrt(m_mc)) if m_mc > 1 else 0.0
    return AceEstimate(float(y.mean()), se)


def true_ace_exact(anm: ConfoundedAnm, w_targets, w_values) -> AceEstimate:
    """Exact E[Y | do(w_targets = w_values)] for a model whose treatment
    equations are linear (as ``random_anm`` builds them); stderr is 0.

    Under the intervention each treatment is its mean plus a fixed linear
    map of the centered noise, so the treatments are jointly Gaussian with
    covariance L Sigma_U L^T, and for the outcome's pairwise terms
    E[X_p X_q] = mu_p mu_q + Cov(X_p, X_q). Raises UsageError for a
    treatment equation with pairwise terms: use ``true_ace_oracle`` there.
    """
    n = anm.n
    targets = parse_targets(w_targets, n)
    w_values = np.asarray(w_values, dtype=float).reshape(-1)
    if len(w_values) != len(targets):
        raise UsageError("value count does not match target count")
    if not np.all(np.isfinite(w_values)):
        raise UsageError("intervention values must be finite")
    for i, fn in enumerate(anm.f):
        if fn.pairwise:
            raise UsageError(f"f_{i} has pairwise terms; the exact oracle needs linear "
                             "treatment equations")
    pinned = dict(zip(sorted(targets), w_values))
    mu = np.zeros(n)
    load = np.zeros((n, n + 1))  # X_i - mu_i = load[i] @ (U - E[U])
    for i in anm.topo():
        if i in pinned:
            mu[i] = pinned[i]
            continue
        mu[i] = anm.f[i].intercept + anm.noise.mean[i]
        load[i, i] = 1.0
        for p, c in anm.f[i].linear:
            mu[i] += c * mu[p]
            load[i] += c * load[p]
    cov = load @ anm.noise.cov @ load.T
    value = anm.f_y.evaluate(mu)[0] + anm.noise.mean[n]
    value += sum(c * cov[p, q] for p, q, c in anm.f_y.pairwise)
    return AceEstimate(float(value), 0.0)


def _random_coeff(rng: np.random.Generator) -> float:
    # bounded away from zero so generated models stay faithful
    return float(rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0)))


def random_anm(graph: Dag, seed: int = 0, pairwise_prob_y: float = 0.0,
               noise_correlation: float = 0.6, mean_scale: float = 0.5) -> ConfoundedAnm:
    """Random confounded model on a given graph.

    Treatment equations are linear in their parents; the outcome equation is
    linear in all treatments with optional pairwise product terms. The noise
    covariance has unit diagonal and dense correlations scaled by
    ``noise_correlation``.
    """
    if not 0.0 <= pairwise_prob_y <= 1.0:
        raise UsageError(f"pairwise_prob_y must lie in [0, 1], got {pairwise_prob_y}")
    n = graph.n
    rng = np.random.default_rng(seed)
    pa = graph.parent_sets()
    f = tuple(
        StructuralFunction(
            float(rng.uniform(-mean_scale, mean_scale)),
            {p: _random_coeff(rng) for p in sorted(pa[i])},
        )
        for i in range(n)
    )
    pair_terms = {
        (p, q): _random_coeff(rng)
        for p in range(n)
        for q in range(p + 1, n)
        if rng.random() < pairwise_prob_y
    }
    f_y = StructuralFunction(
        float(rng.uniform(-mean_scale, mean_scale)),
        {i: _random_coeff(rng) for i in range(n)},
        pair_terms,
    )
    g = rng.standard_normal((n + 1, n + 1))
    corr = g @ g.T / (n + 1)
    d = np.sqrt(np.diag(corr))
    corr = corr / np.outer(d, d)
    cov = (1.0 - noise_correlation) * np.eye(n + 1) + noise_correlation * corr
    mean = rng.uniform(-mean_scale, mean_scale, n + 1)
    return ConfoundedAnm(graph, f, f_y, NoiseSpec(mean, cov))


def anm_to_json(anm: ConfoundedAnm) -> dict:
    return {
        "graph": anm.graph.to_json(),
        "functions": [fn.to_json() for fn in anm.f],
        "outcome_function": anm.f_y.to_json(),
        "noise_mean": anm.noise.mean.tolist(),
        "noise_cov": anm.noise.cov.tolist(),
        "independent_flags": list(anm.independent_flags),
    }


def anm_from_json(obj: dict) -> ConfoundedAnm:
    with malformed("model JSON"):
        return ConfoundedAnm(
            Dag.from_json(obj["graph"]),
            tuple(StructuralFunction.from_json(fn) for fn in obj["functions"]),
            StructuralFunction.from_json(obj["outcome_function"]),
            NoiseSpec(np.asarray(obj["noise_mean"]), np.asarray(obj["noise_cov"])),
            tuple(bool(v) for v in obj.get("independent_flags", [])),
        )


def save_anm(anm: ConfoundedAnm, path) -> None:
    write_json(path, anm_to_json(anm))


def load_anm(path) -> ConfoundedAnm:
    return anm_from_json(read_json(path))


# Rows formatted per write: bounds the text held in memory for large m.
_ROW_BLOCK = 1024


def _sidecar_path(csv_path) -> str:
    """The JSON sidecar of a dataset CSV: ``<name>.meta.json`` next to
    ``<name>.csv``."""
    csv_path = str(csv_path)
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".meta.json"


def save_dataset(ds: InterventionalDataset, csv_path, meta_path=None) -> None:
    """CSV (header X1..Xn,Y) plus a JSON sidecar describing the regime, at
    ``_sidecar_path(csv_path)``, where ``load_dataset`` looks for it. No
    caller passes ``meta_path``; perfbench's tracer reads it by name.

    Every value is written as ``%.17g``, which round-trips a float64 exactly.
    """
    csv_path = str(csv_path)
    if meta_path is None:
        meta_path = _sidecar_path(csv_path)
    row = ",".join(["%.17g"] * (ds.n + 1)) + "\n"
    with open(csv_path, "w") as fh:
        fh.write(",".join([f"X{i + 1}" for i in range(ds.n)] + ["Y"]) + "\n")
        for start in range(0, ds.m, _ROW_BLOCK):
            block = ds.data[start:start + _ROW_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    write_json(meta_path, {"targets": sorted(ds.targets), "policy": ds.value_policy,
                           "seed": int(ds.seed), "m": int(ds.m)})


def _dataset_head(csv_path):
    """n from the CSV header and the checked sidecar of a saved dataset; no
    row is parsed."""
    meta_path = _sidecar_path(csv_path)
    meta = read_json(meta_path)
    with malformed(f"dataset sidecar {meta_path}"):
        meta = {key: meta[key] for key in ("targets", "policy", "seed", "m")}
        meta["seed"], meta["m"] = operator.index(meta["seed"]), operator.index(meta["m"])
    with open(csv_path, errors="replace") as fh:  # a non-UTF-8 byte fails the row parse
        n = fh.readline().count(",")
    if n < 1:
        raise UsageError(f"dataset {csv_path} has no X1..Xn,Y header")
    return n, meta


def load_dataset(csv_path) -> InterventionalDataset:
    """Parse a dataset written by ``save_dataset``; its rows must match the
    header's n and the sidecar's m."""
    n, meta = _dataset_head(csv_path)
    with malformed(f"dataset {csv_path}"):
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        data = data.reshape(0, n + 1)
    if data.shape != (meta["m"], n + 1):
        raise UsageError(f"dataset {csv_path} holds {data.shape[0]} rows of {data.shape[1]} "
                         f"values; its header and sidecar give {meta['m']} rows of {n + 1}")
    return InterventionalDataset(meta["targets"], meta["policy"], data, meta["seed"])


def open_dataset(csv_path) -> LazyDataset:
    """A handle on a saved dataset: the sidecar and the CSV header are read
    now, so targets, n and m are known and checked; the rows are parsed by
    ``load_dataset`` on first read of any other attribute."""
    n, meta = _dataset_head(csv_path)
    return LazyDataset(n, meta["targets"], meta["m"], lambda: load_dataset(csv_path))
