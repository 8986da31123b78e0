"""Randomized discovery of the treatment graph from interventions.

Two layers: learning the transitive closure from a strongly separating set
system (one dependence test per intervened/free pair per set), and the outer
randomized loop that repeatedly intervenes on a random subset, takes the
transitive reduction of the post-interventional closure, and unions the
recovered edges. The outer loop also accumulates every interventional
dataset it draws, because the same draws double as the estimation inputs.

Also here: the direct intervention plan read off a known graph and the
sufficiency predicate that decides whether a collection of intervention
targets identifies every effect.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graph import Dag, bit_nodes, closure_bits, transitive_reduction
from .scm import LazyDataset, open_dataset, save_dataset
from .setsys import strongly_separating
from .util import derive_seed


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


def _strict_order_edges(n: int, raw_edges) -> frozenset:
    """Reachability closure of possibly-contradictory raw edges, with any
    mutually-reachable pair dropped so the result is a strict partial order.

    Statistical false positives can make the raw dependence relation cyclic;
    keeping only the one-directional part of its closure is the minimal
    repair that preserves everything consistent.
    """
    reach = closure_bits(n, raw_edges)
    return frozenset((a, b) for a in range(n) for b in bit_nodes(reach[a])
                     if not reach[b] >> a & 1)


def _regime(sampler, lazy, n, targets, m, seed, *key):
    """The dataset of one regime, seeded by derive_seed(seed, *key): drawn
    now, or, for a test that reads no data, a handle that draws it with the
    same seed on first read."""
    if lazy:
        return LazyDataset(n, targets, m, lambda: sampler(targets, m, derive_seed(seed, *key)))
    return sampler(targets, m, derive_seed(seed, *key))


def _closure_with_data(sampler, test, n, m_per_int, seed, context=frozenset()):
    context = frozenset(context)
    lazy = not getattr(test, "needs_data", True)
    system = strongly_separating(n) if n > 1 else ()
    raw = set()
    datasets = []
    free_all = set(range(n)) - context
    batch = getattr(test, "batch", None)
    for idx, s in enumerate(system):
        ds = _regime(sampler, lazy, n, frozenset(s) | context, m_per_int, seed, "int", idx)
        datasets.append(ds)
        free = sorted(free_all - s)
        pairs = [(a, b) for a in sorted(s) for b in free]
        if not pairs:
            continue
        if batch is not None:
            verdicts = batch(ds, pairs)
        else:
            verdicts = [test(ds, a, b) for a, b in pairs]
        raw.update(p for p, dep in zip(pairs, verdicts) if dep)
    return Dag(n, _strict_order_edges(n, raw)), datasets


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
    dag, _ = _closure_with_data(sampler, test, n, m_per_int, seed)
    return dag


def learn_observable_graph(sampler, test, n: int, d_max: int, alpha: float = 3.0,
                           m_per_int: int = 1000, seed: int = 0) -> DiscoveryResult:
    """Learn the treatment graph and accumulate the datasets needed for
    effect estimation.

    Runs ceil(4 * alpha * d_max * log2 n) iterations. Each iteration draws a
    random target set S by independent inclusion with probability 1 - 1/d_max,
    learns the closure of the post-interventional graph, and unions the edges
    of its transitive reduction into the answer. Every dataset drawn along the
    way is kept, plus one do(S) dataset per iteration, the observational
    dataset, and the joint intervention on all treatments. When the test
    reads no data (``test.needs_data`` is false) every kept dataset is a
    ``LazyDataset`` that draws its rows, with the same seed, on first read.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if d_max < 2:
        raise UsageError("d_max must be >= 2")
    if alpha < 1:
        raise UsageError("alpha must be >= 1")
    lazy = not getattr(test, "needs_data", True)
    collected = [_regime(sampler, lazy, n, frozenset(), m_per_int, seed, "obs")]
    interventions = 0
    include_prob = 1.0 - 1.0 / d_max
    outer = int(math.ceil(4.0 * alpha * d_max * math.log2(n))) if n > 1 else 0
    edges: set = set()
    # reachability of the union edge set; used to refuse edges a statistical
    # test run would otherwise turn into a cycle (exact tests never trigger
    # the guard)
    reach = [0] * n

    for t in range(outer):
        rng = np.random.default_rng(derive_seed(seed, "subset", t))
        s = frozenset(int(i) for i in range(n) if rng.random() < include_prob)
        closure_t, inner = _closure_with_data(
            sampler, test, n, m_per_int, derive_seed(seed, "closure", t), context=s
        )
        collected.extend(inner)
        interventions += len(inner)
        reduction = transitive_reduction(closure_t)
        for a, b in sorted(reduction.edges):
            if (a, b) in edges or reach[b] >> a & 1:
                continue
            edges.add((a, b))
            reach = closure_bits(n, edges)
        collected.append(_regime(sampler, lazy, n, s, m_per_int, seed, "context", t))
        interventions += 1

    collected.append(_regime(sampler, lazy, n, frozenset(range(n)), m_per_int, seed, "joint"))
    interventions += 1
    return DiscoveryResult(Dag(n, frozenset(edges)), tuple(collected), interventions)


def intervention_budget(n: int, d_max: int, alpha: float) -> int:
    """Exact ceiling on interventions_used for learn_observable_graph:
    per-iteration separating draws plus the do(S) draw, plus the joint."""
    if n <= 1:
        return 1
    outer = int(math.ceil(4.0 * alpha * d_max * math.log2(n)))
    inner = len(strongly_separating(n))
    return outer * (inner + 1) + 1


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
    targets = [frozenset(map(int, s)) for s in targets_list]
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
    os.makedirs(out_dir, exist_ok=True)
    res.learned_graph.save(os.path.join(out_dir, "graph.json"))
    ds_dir = os.path.join(out_dir, "datasets")
    os.makedirs(ds_dir, exist_ok=True)
    for k, ds in enumerate(res.collected):
        save_dataset(ds, os.path.join(ds_dir, f"{k}.csv"))
    report = {
        "interventions_used": int(res.interventions_used),
        "dataset_count": len(res.collected),
        "n": res.learned_graph.n,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_discovery_result(out_dir) -> DiscoveryResult:
    """The saved result with every dataset as a handle (``scm.open_dataset``):
    each sidecar and CSV header is read and checked now, but rows are parsed
    only for the datasets a caller reads."""
    graph = Dag.load(os.path.join(out_dir, "graph.json"))
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    ds_dir = os.path.join(out_dir, "datasets")
    collected = [open_dataset(os.path.join(ds_dir, f"{k}.csv"))
                 for k in range(report["dataset_count"])]
    return DiscoveryResult(graph, tuple(collected), report["interventions_used"])
