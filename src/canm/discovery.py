"""Randomized discovery of the treatment graph from interventions.

Two layers: learning the transitive closure from a strongly separating set
system (one dependence test batch per set, a bit row per intervened node),
and the outer randomized loop that repeatedly intervenes on a random subset,
takes the transitive reduction of the post-interventional closure, and
unions the recovered edges. The loop chooses every intervention before it
sees a test result, so ``plan_discovery`` lists all its regimes up front;
the tests of each iteration form one ``util.fork_map`` item. All rounds
then fold at once, and the cycle guard walks each distinct edge once.
Every planned regime is kept as a dataset handle, because the same draws
double as the estimation inputs; a data test reads a fresh draw of each
regime it tests and drops it.

Also here: the direct intervention plan read off a known graph and the
sufficiency predicate that decides whether a collection of intervention
targets identifies every effect.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UsageError, malformed
from .graph import Dag, bit_edges, closure_rows, integer, node_flags
from .scm import LazyDataset, open_dataset, parse_targets, save_dataset
from .setsys import strongly_separating
from .util import derive_seed, fork_map, read_json, write_json


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


def _strict_orders(raws: list, n: int) -> np.ndarray:
    """Per round of raw dependence rows (bit b of ``raw[a]``: a -> b), its
    closure less every mutually reachable pair, as a (rounds, n, n) bool
    array: a strict partial order, and the minimal repair of a relation that
    false positives made cyclic. Warshall's, stacked over the rounds."""
    width = (n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for raw in raws for row in raw)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
    reach = bits.reshape(len(raws), n, 8 * width)[:, :, :n].astype(bool)
    for k in np.flatnonzero(reach.any(axis=(0, 1))):
        reach |= reach[:, :, k, None] & reach[:, None, k, :]
    return reach & ~reach.transpose(0, 2, 1)


def _fold(raws: list, n: int) -> list:
    """The learned rows: the union of every round's transitive reduction (v
    stays a child of u iff no w has u < w < v; the float product counts the
    w exactly), less what the cycle guard refuses. The guard walks each
    distinct edge once, in (round, a, b) order: a later copy is learned
    already or still refused, as ``reach`` only grows. It refuses what a
    statistical test would make a cycle, and never fires on an exact test."""
    order = _strict_orders(raws, n)
    flat = order.astype(np.float32)
    codes = np.flatnonzero(order & ~(flat @ flat).astype(bool)) % (n * n)
    _, first = np.unique(codes, return_index=True)
    learned, reach = [0] * n, [0] * n
    for a, b in (divmod(code, n) for code in codes[np.sort(first)].tolist()):
        if not reach[b] >> a & 1:
            learned[a] |= 1 << b
            reach = closure_rows(learned)
    return learned


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
    for idx, s in enumerate(strongly_separating(n)):
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
    outer = int(math.ceil(4.0 * alpha * d_max * math.log2(n)))
    for t in range(outer):
        rng = np.random.default_rng(derive_seed(seed, "subset", t))
        s = frozenset(np.flatnonzero(rng.random(n) < include_prob).tolist())
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


def _reads_data(test, m: int) -> bool:
    """``test.needs_data`` of a test that follows the protocol of
    ``canm.independence``, for m >= 1 samples per regime, as ``scm.sample``
    would refuse on the first draw; UsageError for anything else."""
    if m < 1:
        raise UsageError("m must be >= 1")
    if not (hasattr(test, "batch") and hasattr(test, "needs_data")):
        raise UsageError("a dependence test needs batch(ds, sources) and needs_data; "
                         "build it with canm.independence")
    return test.needs_data


def _raw_edges(sampler, test, n: int, m: int, seed: int, entries) -> list:
    """Raw dependence edges over (regime, handle) entries, as the OR of the
    test's rows per randomized node. A data test reads a fresh draw of each
    regime, dropped once tested, so no handle keeps it; a test that reads
    only targets reads the handle, which draws nothing."""
    raw = [0] * n
    for regime, handle in entries:
        ds = _draw(sampler, m, seed, regime) if test.needs_data else handle
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
    _reads_data(test, m_per_int)  # refuse a test outside the protocol before any draw
    entries = [(r, _handle(sampler, n, m_per_int, seed, r))
               for r in _separating_regimes(n, frozenset(), (), 0) if r.randomized]
    order = _strict_orders([_raw_edges(sampler, test, n, m_per_int, seed, entries)], n)[0]
    return Dag(n, frozenset(map(tuple, np.argwhere(order).tolist())))


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
    of ``canm.independence``. A data test (``test.needs_data``) reads a
    fresh draw of each regime it tests and drops it, one ``util.fork_map``
    item per iteration; a test that reads only targets draws nothing. All
    rounds fold at once after the tests, so no result depends on the workers.
    """
    reads = _reads_data(test, m_per_int)
    plan = plan_discovery(n, d_max, alpha, seed)
    collected = tuple(_handle(sampler, n, m_per_int, seed, r) for r in plan)
    rounds: dict = {}  # iteration -> indices of its tested regimes
    for k, regime in enumerate(plan):
        if regime.randomized:
            rounds.setdefault(regime.iteration, []).append(k)
    work = sum(map(len, rounds.values())) * m_per_int * (n + 1) if reads else 0

    def round_edges(ks):
        return _raw_edges(sampler, test, n, m_per_int, seed,
                          [(plan[k], collected[k]) for k in ks])

    learned = _fold(fork_map(round_edges, rounds.values(), work), n)
    return DiscoveryResult(Dag(n, frozenset(bit_edges(learned))), collected, len(plan) - 1)


def core_intervention_plan(g: Dag, independent_flags=None) -> tuple:
    """Deduplicated direct plan [empty, all treatments, Pa(X_1), ..., Pa(X_n)].

    Empty parent sets fold into the observational entry. A treatment whose
    noise is flagged independent needs no parent-set intervention, so its
    entry is dropped.
    """
    n = g.n
    flags = node_flags(independent_flags, n)
    plan = [frozenset(), frozenset(range(n))]
    for i, pa in enumerate(g.parent_sets()):
        if pa and not flags[i] and pa not in plan:
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
    flags = node_flags(independent_flags, n)
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
        count = integer(report["dataset_count"])
        used = integer(report["interventions_used"])
    ds_dir = os.path.join(out_dir, "datasets")
    collected = [open_dataset(os.path.join(ds_dir, f"{k}.csv")) for k in range(count)]
    return DiscoveryResult(graph, tuple(collected), used)
