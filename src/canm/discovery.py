"""Randomized discovery of the treatment graph from interventions.

Two layers: learning the transitive closure from a strongly separating set
system (one dependence test batch per set, a bit row per intervened node),
and the outer randomized loop that repeatedly intervenes on a random subset,
takes the transitive reduction of the post-interventional closure, and
unions the recovered edges. The loop chooses every intervention before it sees a test
result, so ``plan_discovery`` lists all its regimes up front; the tests of
each iteration are independent of every other's and form one
``util.fork_map`` item; only the fold over iterations is sequential. Every
planned regime is kept as a dataset handle, because the same draws double
as the estimation inputs.

Also here: the direct intervention plan read off a known graph and the
sufficiency predicate that decides whether a collection of intervention
targets identifies every effect.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UsageError, malformed
from .graph import Dag, bit_edges, bit_nodes, closure_rows, reduction_bits
from .scm import LazyDataset, open_dataset, parse_targets, save_dataset
from .setsys import strongly_separating
from .util import derive_seed, fork_map, in_worker, read_json, write_json


@dataclass(frozen=True)
class DiscoveryResult:
    learned_graph: Dag
    collected: tuple
    interventions_used: int

    def __post_init__(self):
        object.__setattr__(self, "collected", tuple(self.collected))
        if not self.collected:
            raise UsageError("discovery must retain at least the observational dataset")


@dataclass(frozen=True)
class SufficiencyReport:
    sufficient: bool
    witness: dict
    missing: tuple
    has_joint: bool
    has_observational: bool


def _strict_order_bits(raw: list) -> list:
    """Reachability closure of possibly-contradictory raw dependence rows,
    with any mutually-reachable pair dropped so the result is a strict
    partial order, as ``closure_rows`` rows. The order is transitively
    closed: a < b < c with c ~> a would make b ~> a.

    Statistical false positives can make the raw dependence relation cyclic;
    keeping only the one-directional part of its closure is the minimal
    repair that preserves everything consistent.
    """
    reach = closure_rows(raw)
    return [row & ~sum(1 << b for b in bit_nodes(row) if reach[b] >> a & 1)
            for a, row in enumerate(reach)]


class Regime(NamedTuple):
    """One planned intervention of a discovery run.

    ``key`` is the path its draw is seeded by: derive_seed is applied once
    per tuple of parts, starting from the run's seed; its first part names
    the regime ("obs", "closure" for a separating set plus the iteration's
    context, "context" or "joint"). ``iteration`` is -1 outside the
    randomized loop. ``randomized`` is the separating set whose nodes are
    the sources of the regime's dependence test batch, empty for a regime
    no test reads.
    """

    targets: frozenset
    key: tuple
    iteration: int
    randomized: frozenset = frozenset()


def _separating_regimes(n: int, context: frozenset, key: tuple, t: int) -> list:
    regimes = []
    for idx, s in enumerate(strongly_separating(n) if n > 1 else ()):
        targets = s | context
        randomized = s if len(targets) < n else frozenset()  # no free node, no test
        regimes.append(Regime(targets, key + (("int", idx),), t, randomized))
    return regimes


def plan_discovery(n: int, d_max: int, alpha: float = 3.0, seed: int = 0) -> tuple:
    """Every regime ``learn_observable_graph`` uses, in the order of its
    ``collected``: the observational regime; per iteration t the separating
    regimes, each with the random subset S_t as context, then do(S_t); and
    the joint regime.

    The randomized algorithm chooses every intervention before it sees a
    test result, so the plan depends on (n, d_max, alpha, seed) alone.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if d_max < 2:
        raise UsageError("d_max must be >= 2")
    if not 1 <= alpha < math.inf:
        raise UsageError(f"alpha must be a finite number >= 1, got {alpha}")
    plan = [Regime(frozenset(), (("obs",),), -1)]
    include_prob = 1.0 - 1.0 / d_max
    outer = int(math.ceil(4.0 * alpha * d_max * math.log2(n))) if n > 1 else 0
    for t in range(outer):
        rng = np.random.default_rng(derive_seed(seed, "subset", t))
        s = frozenset(i for i in range(n) if rng.random() < include_prob)
        plan.extend(_separating_regimes(n, s, (("closure", t),), t))
        plan.append(Regime(s, (("context", t),), t))
    plan.append(Regime(frozenset(range(n)), (("joint",),), -1))
    return tuple(plan)


def intervention_budget(n: int, d_max: int, alpha: float) -> int:
    """Exact ceiling on interventions_used for learn_observable_graph: every
    planned regime but the observational one."""
    return len(plan_discovery(n, d_max, alpha)) - 1


def _draw(sampler, m: int, seed: int, regime: Regime):
    for parts in regime.key:
        seed = derive_seed(seed, *parts)
    return sampler(regime.targets, m, seed)


def _handle(sampler, n: int, m: int, seed: int, regime: Regime) -> LazyDataset:
    return LazyDataset(n, regime.targets, m, lambda: _draw(sampler, m, seed, regime))


def _check_samples(m: int) -> None:
    """Refuse a per-regime sample count below one, as ``scm.sample`` would on
    the first draw; a test that reads only targets never draws."""
    if m < 1:
        raise UsageError("m must be >= 1")


def _reads_data(test) -> bool:
    """``test.needs_data`` of a test that follows the protocol of
    ``canm.independence``; UsageError for anything else."""
    if not (hasattr(test, "batch") and hasattr(test, "needs_data")):
        raise UsageError("a dependence test needs batch(ds, sources) and needs_data; "
                         "build it with canm.independence")
    return test.needs_data


def _raw_edges(sampler, test, n: int, m: int, seed: int, entries) -> list:
    """Raw dependence edges over (regime, handle) entries, as the OR of the
    test's rows per randomized node. A data test reads the handle, which
    keeps what it draws, or in a ``fork_map`` worker, whose copy of the
    handle dies with it, a fresh draw dropped once tested. A test that reads
    only targets makes the handle draw nothing."""
    fresh = test.needs_data and in_worker()
    raw = [0] * n
    for regime, handle in entries:
        ds = _draw(sampler, m, seed, regime) if fresh else handle
        sources = sorted(regime.randomized)
        for a, row in zip(sources, test.batch(ds, sources)):
            raw[a] |= row
    return raw


def learn_transitive_closure(sampler, test, n: int, m_per_int: int = 1000,
                             seed: int = 0) -> Dag:
    """Recover the ancestral relation among n treatments.

    For each set S in the strongly separating system, draws one dataset under
    do(S) with randomized values and adds the edge a -> b whenever the test
    reports the free variable b dependent on the randomized a. At most
    2*ceil(log2 n) interventions. With an exact oracle test the output equals
    the true transitive closure.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    _check_samples(m_per_int)
    _reads_data(test)  # refuse a test outside the protocol before any draw
    entries = [(r, _handle(sampler, n, m_per_int, seed, r))
               for r in _separating_regimes(n, frozenset(), (), 0) if r.randomized]
    raw = _raw_edges(sampler, test, n, m_per_int, seed, entries)
    return Dag(n, frozenset(bit_edges(_strict_order_bits(raw))))


def learn_observable_graph(sampler, test, n: int, d_max: int, alpha: float = 3.0,
                           m_per_int: int = 1000, seed: int = 0) -> DiscoveryResult:
    """Learn the treatment graph and accumulate the datasets needed for
    effect estimation.

    Runs the regimes of ``plan_discovery``: ceil(4 * alpha * d_max * log2 n)
    iterations, each intervening on a random target set S (independent
    inclusion with probability 1 - 1/d_max), learning the closure of the
    post-interventional graph from the separating regimes, and unioning the
    edges of its transitive reduction into the answer. Every planned regime
    is kept in ``collected``: the separating ones, one do(S) per iteration,
    the observational and the joint regime.

    Every entry of ``collected`` is a ``LazyDataset`` that draws its rows,
    with the planned seed, on first read. The test must follow the protocol
    of ``canm.independence``. A data test (``test.needs_data``) reads the
    regimes it tests, one ``util.fork_map`` item per iteration, whose work
    is the numbers those regimes hold. Run here, the handles keep what it
    drew; in a ``fork_map`` worker, this run's or an enclosing one's (a
    harness replication), it tests fresh draws that the handles do not
    keep, so a worker never holds its plan's data. The fold over the
    iterations stays sequential, so the result does not depend on the
    worker count. A test that reads only targets runs here and draws
    nothing.
    """
    _check_samples(m_per_int)
    plan = plan_discovery(n, d_max, alpha, seed)
    collected = tuple(_handle(sampler, n, m_per_int, seed, r) for r in plan)
    rounds: dict = {}  # iteration -> indices of its tested regimes
    for k, regime in enumerate(plan):
        if regime.randomized:
            rounds.setdefault(regime.iteration, []).append(k)
    work = sum(map(len, rounds.values())) * m_per_int * (n + 1) if _reads_data(test) else 0

    def round_edges(ks):
        return _raw_edges(sampler, test, n, m_per_int, seed,
                          [(plan[k], collected[k]) for k in ks])

    raws = fork_map(round_edges, rounds.values(), work)
    # reach: reachability of the learned rows; used to refuse edges a
    # statistical test run would otherwise turn into a cycle (exact tests
    # never trigger the guard)
    learned, reach = [0] * n, [0] * n
    for raw in raws:
        for a, b in bit_edges(reduction_bits(_strict_order_bits(raw))):
            if not (learned[a] >> b & 1 or reach[b] >> a & 1):
                learned[a] |= 1 << b
                reach = closure_rows(learned)
    return DiscoveryResult(Dag(n, frozenset(bit_edges(learned))), collected, len(plan) - 1)


def core_intervention_plan(g: Dag, independent_flags=None) -> tuple:
    """Deduplicated direct plan [empty, all treatments, Pa(X_1), ..., Pa(X_n)].

    Empty parent sets fold into the observational entry. A treatment whose
    noise is flagged independent needs no parent-set intervention, so its
    entry is dropped.
    """
    n = g.n
    flags = tuple(independent_flags) if independent_flags else (False,) * n
    if len(flags) != n:
        raise UsageError("independent_flags length must equal node count")
    plan = [frozenset(), frozenset(range(n))]
    for i in range(n):
        if flags[i]:
            continue
        pa = g.parents(i)
        if pa and pa not in plan:
            plan.append(pa)
    return tuple(plan)


def check_sufficiency(g: Dag, targets_list, independent_flags=None) -> SufficiencyReport:
    """Decide whether a list of intervention targets identifies every effect.

    Needs the joint target, the observational (empty) target, and for every
    unflagged treatment i some listed S with Pa(i) a subset of S and i not in
    S. Flagged treatments are exempt: their equation comes from the
    observational regime.
    """
    n = g.n
    flags = tuple(independent_flags) if independent_flags else (False,) * n
    if len(flags) != n:
        raise UsageError("independent_flags length must equal node count")
    targets = [parse_targets(s, n) for s in targets_list]
    full = frozenset(range(n))
    has_joint = full in targets
    has_obs = frozenset() in targets
    pa = g.parent_sets()
    witness = {}
    missing = []
    for i in range(n):
        if flags[i]:
            continue
        for idx, s in enumerate(targets):
            if pa[i] <= s and i not in s:
                witness[i] = idx
                break
        else:
            missing.append(i)
    return SufficiencyReport(
        sufficient=has_joint and has_obs and not missing,
        witness=witness,
        missing=tuple(missing),
        has_joint=has_joint,
        has_observational=has_obs,
    )


def save_discovery_result(res: DiscoveryResult, out_dir) -> None:
    """graph.json, report.json and datasets/<k>.csv (with sidecars) for the
    k-th collected dataset, each dataset one ``util.fork_map`` item whose
    work is the numbers it holds."""
    os.makedirs(out_dir, exist_ok=True)
    res.learned_graph.save(os.path.join(out_dir, "graph.json"))
    ds_dir = os.path.join(out_dir, "datasets")
    os.makedirs(ds_dir, exist_ok=True)

    def write(k):
        save_dataset(res.collected[k], os.path.join(ds_dir, f"{k}.csv"))

    fork_map(write, range(len(res.collected)), sum(ds.m * (ds.n + 1) for ds in res.collected))
    write_json(os.path.join(out_dir, "report.json"), {
        "interventions_used": int(res.interventions_used),
        "dataset_count": len(res.collected),
        "n": res.learned_graph.n,
    })


def load_discovery_result(out_dir) -> DiscoveryResult:
    """The saved result with every dataset as a handle (``scm.open_dataset``):
    each sidecar and CSV header is read and checked now, but rows are parsed
    only for the datasets a caller reads."""
    graph = Dag.load(os.path.join(out_dir, "graph.json"))
    report = read_json(os.path.join(out_dir, "report.json"))
    with malformed("discovery report.json"):
        count = operator.index(report["dataset_count"])
        used = operator.index(report["interventions_used"])
    ds_dir = os.path.join(out_dir, "datasets")
    collected = [open_dataset(os.path.join(ds_dir, f"{k}.csv")) for k in range(count)]
    return DiscoveryResult(graph, tuple(collected), used)
