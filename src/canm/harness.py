"""Experiment drivers: graph-recovery quality against treatment count and
sample size, sufficiency proportion against intervention count, estimation
error across query subsets, and the semi-synthetic network study.

Every experiment is a deterministic fold over replications whose seeds are
derived from the master seed, so reruns with the same config produce
byte-identical CSV output. Each CSV carries one comment line with the config
hash and seed. The discovery experiments hand their replications, and the
mae experiment its ``ace`` calls, to one ``util.fork_map`` per experiment;
the fold over what comes back stays in item order, so the output does not
depend on the worker count.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import estimation, healthcare
from .discovery import (
    check_sufficiency,
    core_intervention_plan,
    intervention_budget,
    learn_observable_graph,
)
from .errors import IdentifiabilityError, UsageError
from .graph import Dag, integer, random_dag, shd
from .independence import data_ci_test, oracle_ci_test
from .scm import anm_sampler, random_anm, sample, true_ace_exact
from .svg import svg_line_chart
from .util import derive_seed, fork_map

EXPERIMENT_KINDS = (
    "discovery-n",
    "discovery-samples",
    "sufficiency",
    "mae",
    "healthcare",
)


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return value


def _of_type(kind):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError
        return value
    return check


def _integers(value):
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return tuple(map(integer, value))


# Per annotated field type: the check that returns the stored value or
# raises TypeError, and what the error message asks for.
_FIELD_TYPES = {
    "int": (integer, "an integer"),
    "float": (_number, "a number"),
    "bool": (_of_type(bool), "true or false"),
    "str": (_of_type(str), "a string"),
    "tuple": (_integers, "a list of integers"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    out_dir: str = "."
    replications: int = 50
    n: int = 20
    n_values: tuple = (3, 5, 8, 12, 16, 20)
    d_max: int = 3
    alpha: float = 1.0
    sample_sizes: tuple = (300,)
    test: str = "pearson"
    level: float = 1e-3
    permutations: int = 200
    regressor: str = "basis"
    knn_k: int = 10
    mc_draws: int = 100_000
    # Monte-Carlo truth draws, read by healthcare only (mae scores against the
    # exact truth); kept for every kind so config hashes and files stay valid
    oracle_draws: int = 200_000
    max_interventions: int = 160
    pairwise_prob_y: float = 0.5
    discover_first: bool = False
    svg: bool = False

    def __post_init__(self):
        for f in fields(self):
            check, wanted = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, check(value))
            except TypeError:
                raise UsageError(f"config field {f.name} must be {wanted}, "
                                 f"got {value!r}") from None
        if self.kind not in EXPERIMENT_KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        if self.replications < 1:
            raise UsageError("replications must be >= 1")
        for name in ("sample_sizes", "n_values"):
            if not getattr(self, name):
                raise UsageError(f"{name} must not be empty")
        if self.d_max < 1:
            raise UsageError("d_max must be >= 1")
        if self.max_interventions < 0:
            raise UsageError("max_interventions must be >= 0")
        if any(b <= a for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise UsageError("sample_sizes must be strictly increasing")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def hash(self) -> str:
        payload = asdict(self)
        payload.pop("out_dir")  # reruns into a different directory still match
        payload.pop("svg")
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(text.encode()).hexdigest()[:12]


def _csv(cfg: ExperimentConfig, header, rows) -> str:
    lines = [f"# config_hash={cfg.hash()} seed={cfg.seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(cfg: ExperimentConfig, name: str, text: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _make_test(cfg: ExperimentConfig, anm, rep_seed: int):
    if cfg.test == "oracle":
        return oracle_ci_test(anm.graph)
    return data_ci_test(cfg.test, cfg.level, cfg.permutations, rep_seed)


def _discovery_shd(cfg: ExperimentConfig, item) -> int:
    """Graph error of replication rep in the (n, m) cell."""
    n, m, rep = item
    seed = derive_seed(cfg.seed, "disc", n, m, rep)
    true_g = random_dag(n, cfg.d_max, seed=derive_seed(seed, "g"))
    anm = random_anm(true_g, derive_seed(seed, "anm"))
    res = learn_observable_graph(
        anm_sampler(anm), _make_test(cfg, anm, derive_seed(seed, "test")),
        n, cfg.d_max, cfg.alpha, m, derive_seed(seed, "alg"),
    )
    return shd(res.learned_graph, true_g)


def run_discovery_experiment(cfg: ExperimentConfig) -> str:
    """Graph error sweep: over n at fixed samples (kind discovery-n) or over
    sample sizes at fixed n (kind discovery-samples).

    Every replication of every cell is one ``util.fork_map`` item. Its work
    is the numbers its planned regimes hold for a data test, and none for
    an exact oracle, which draws nothing. A data test is built once here
    before the fork: an unknown test or a level outside (0, 1) fails once,
    and a Pearson test's kernel is loaded once for every worker."""
    if cfg.kind == "discovery-n":
        grid = [(n, cfg.sample_sizes[0]) for n in cfg.n_values]
    elif cfg.kind == "discovery-samples":
        grid = [(cfg.n, m) for m in cfg.sample_sizes]
    else:
        raise UsageError(f"not a discovery experiment: {cfg.kind}")
    reps = cfg.replications
    work = 0
    if cfg.test != "oracle":
        data_ci_test(cfg.test, cfg.level, cfg.permutations)
        work = sum(reps * (intervention_budget(n, cfg.d_max, cfg.alpha) + 1) * m * (n + 1)
                   for n, m in grid)
    items = [(n, m, rep) for n, m in grid for rep in range(reps)]
    errors = fork_map(lambda item: _discovery_shd(cfg, item), items, work)
    rows = []
    for k, (n, m) in enumerate(grid):
        arr = np.asarray(errors[k * reps:(k + 1) * reps], dtype=float)
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        rows.append((n, m, float(arr.mean()), sd, reps))
    text = _csv(cfg, ["n", "samples", "mean_shd", "sd_shd", "replications"], rows)
    path = _write(cfg, f"{cfg.kind}.csv", text)
    if cfg.svg:
        xcol = 0 if cfg.kind == "discovery-n" else 1
        pts = [(float(r[xcol]), r[2]) for r in rows]
        _write(cfg, f"{cfg.kind}.svg",
               svg_line_chart({"mean shd": pts}, cfg.kind, "n" if xcol == 0 else "samples",
                              "mean shd"))
    return path


def run_sufficiency_experiment(cfg: ExperimentConfig) -> str:
    """Proportion of random graphs whose first k random intervention draws,
    together with the observational and joint regimes, pass the sufficiency
    predicate. Monotone in k by the prefix construction."""
    n = cfg.n
    k_max = cfg.max_interventions
    include_prob = 1.0 - 1.0 / cfg.d_max
    full = frozenset(range(n))
    first_ok = []
    for rep in range(cfg.replications):
        seed = derive_seed(cfg.seed, "suff", rep)
        g = random_dag(n, cfg.d_max, seed=derive_seed(seed, "g"))
        rng = np.random.default_rng(derive_seed(seed, "draws"))
        targets = [frozenset(), full]
        found = None
        if check_sufficiency(g, targets).sufficient:
            found = 0
        for k in range(1, k_max + 1):
            s = frozenset(i for i in range(n) if rng.random() < include_prob)
            targets.append(s)
            if found is None and check_sufficiency(g, targets).sufficient:
                found = k
        first_ok.append(found)
    rows = []
    for k in range(k_max + 1):
        prop = sum(1 for f in first_ok if f is not None and f <= k) / cfg.replications
        rows.append((k, float(prop)))
    text = _csv(cfg, ["interventions", "proportion_sufficient"], rows)
    path = _write(cfg, "sufficiency.csv", text)
    if cfg.svg:
        _write(cfg, "sufficiency.svg",
               svg_line_chart({"proportion": [(float(k), p) for k, p in rows]},
                              "sufficiency", "interventions", "proportion"))
    return path


def _subsets(n: int) -> list:
    """Every subset of the n treatments, by size and then lexicographically:
    the order of the query rows."""
    return [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)]


def _query_label(subset) -> str:
    return "+".join(f"X{i + 1}" for i in sorted(subset)) if subset else "none"


def run_mae_experiment(cfg: ExperimentConfig) -> tuple:
    """Estimation error for every query subset of a small treatment set.

    Per replication: one random model, one shared query point, then for each
    sample size the pipeline is fitted from the direct intervention plan
    (or from a discovery run when discover_first is set) and every
    E[Y|do(W)] is compared against its exact value (``scm.true_ace_exact``:
    ``random_anm`` builds linear treatment equations). Identifiability
    failures are counted, never swallowed. Every model is fitted here; the
    ``ace`` calls of the whole experiment go to one ``util.fork_map``, with
    their Monte-Carlo numbers as its work. Refuses n above 10.
    """
    n = cfg.n
    if n > 10:
        raise UsageError(f"mae scores every query subset of the n treatments, 2^{n} = "
                         f"{2 ** n:,} per replication at n={n}; n must be <= 10")
    subsets = _subsets(n)
    sums = {(m, s): 0.0 for m in cfg.sample_sizes for s in subsets}
    gate_failures = 0
    scored, calls = [], []  # per ace call: (m, subset, exact value), (model, query, MC seed)
    for rep in range(cfg.replications):
        seed = derive_seed(cfg.seed, "mae", rep)
        true_g = random_dag(n, cfg.d_max, seed=derive_seed(seed, "g"))
        anm = random_anm(true_g, derive_seed(seed, "anm"),
                         pairwise_prob_y=cfg.pairwise_prob_y)
        rng = np.random.default_rng(derive_seed(seed, "query"))
        point = rng.standard_normal(n)
        truth = {s: true_ace_exact(anm, s, point[sorted(s)]).value for s in subsets}
        for m in cfg.sample_sizes:
            try:
                model = _fit_for_rep(cfg, anm, true_g, m, derive_seed(seed, "fit", m))
            except IdentifiabilityError:
                gate_failures += 1
                continue
            for s in subsets:
                scored.append((m, s, truth[s]))
                calls.append((model, estimation.AceQuery(n, {i: point[i] for i in sorted(s)}),
                              derive_seed(seed, "mc", m, sorted(s))))

    def estimate(call):
        model, q, mc_seed = call
        return estimation.ace(model, q, cfg.mc_draws, mc_seed).value

    values = fork_map(estimate, calls, len(calls) * cfg.mc_draws * (n + 1))
    for (m, s, exact), value in zip(scored, values):
        sums[(m, s)] += abs(value - exact)
    rows = [
        (m, _query_label(s), sums[(m, s)] / cfg.replications, gate_failures)
        for m in cfg.sample_sizes
        for s in subsets
    ]
    text = _csv(cfg, ["samples", "query", "mae", "gate_failures"], rows)
    path = _write(cfg, "mae.csv", text)
    if cfg.svg:
        series = {}
        for m, label, mae, _ in rows:
            series.setdefault(label, []).append((float(m), mae))
        _write(cfg, "mae.svg", svg_line_chart(series, "mae", "samples", "mae"))
    return path, rows


def _fit_for_rep(cfg: ExperimentConfig, anm, true_g: Dag, m: int, seed: int):
    if cfg.discover_first:
        res = learn_observable_graph(
            anm_sampler(anm), _make_test(cfg, anm, derive_seed(seed, "test")),
            # alpha first: max keeps a NaN there for plan_discovery to reject
            true_g.n, max(2, true_g.max_degree()), max(cfg.alpha, 3.0), m,
            derive_seed(seed, "alg"),
        )
        return estimation.fit_model(res.learned_graph, res.collected,
                                    regressor=cfg.regressor, knn_k=cfg.knn_k)
    plan = core_intervention_plan(true_g)
    datasets = [
        sample(anm, s, "std_normal", m, derive_seed(seed, "plan", sorted(s)))
        for s in plan
    ]
    return estimation.fit_model(true_g, datasets, regressor=cfg.regressor,
                                knn_k=cfg.knn_k)


def run_healthcare_experiment(cfg: ExperimentConfig) -> tuple:
    """All 16 query subsets on the bundled network, estimated with only the
    observational, parents-of-I, and joint regimes, then scored against the
    network's own Monte-Carlo oracle. Always uses the k-NN backend: nothing
    guarantees the network's mechanisms live in the polynomial basis."""
    net, roles = healthcare.healthcare_model()
    graph = roles["graph"]
    n = graph.n
    m = cfg.sample_sizes[-1]
    plan = [frozenset(), frozenset({0, 1}), frozenset(range(n))]
    subsets = _subsets(n)
    sums = {s: 0.0 for s in subsets}
    for rep in range(cfg.replications):
        seed = derive_seed(cfg.seed, "hc", rep)
        datasets = [
            healthcare.healthcare_dataset(net, roles, s, m, derive_seed(seed, "ds", sorted(s)))
            for s in plan
        ]
        model = estimation.fit_model(graph, datasets, regressor="knn",
                                     knn_k=cfg.knn_k)
        rng = np.random.default_rng(derive_seed(seed, "query"))
        point = {
            i: float(rng.uniform(*roles["ranges"][roles["treatments"][i]]))
            for i in range(n)
        }
        for s in subsets:
            q = estimation.AceQuery(n, {i: point[i] for i in sorted(s)})
            est = estimation.ace(model, q, cfg.mc_draws, derive_seed(seed, "mc", sorted(s)))
            truth = healthcare.healthcare_oracle(
                net, roles, sorted(s), [point[i] for i in sorted(s)],
                cfg.oracle_draws, derive_seed(seed, "oracle", sorted(s)),
            )
            sums[s] += abs(est.value - truth.value)
    rows = [(m, _query_label(s), sums[s] / cfg.replications) for s in subsets]
    text = _csv(cfg, ["samples", "query", "mae"], rows)
    path = _write(cfg, "healthcare.csv", text)
    return path, rows


def run_experiment(cfg: ExperimentConfig) -> str:
    """Dispatch by config kind; returns the primary CSV path."""
    if cfg.kind in ("discovery-n", "discovery-samples"):
        return run_discovery_experiment(cfg)
    if cfg.kind == "sufficiency":
        return run_sufficiency_experiment(cfg)
    if cfg.kind == "mae":
        return run_mae_experiment(cfg)[0]
    if cfg.kind == "healthcare":
        return run_healthcare_experiment(cfg)[0]
    raise UsageError(f"unknown experiment kind {cfg.kind!r}")
