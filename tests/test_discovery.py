"""Closure learning, the randomized outer loop, plans, and sufficiency."""
import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canm.discovery import (
    _strict_order_bits,
    check_sufficiency,
    core_intervention_plan,
    intervention_budget,
    learn_observable_graph,
    learn_transitive_closure,
    load_discovery_result,
    plan_discovery,
    save_discovery_result,
)
from canm.errors import UsageError
from canm.estimation import fit_model
from canm.fixtures import fig_g1, fig_g2, fig_g3
from canm.graph import (
    Dag,
    bit_edges,
    random_dag,
    reduction_bits,
    shd,
    transitive_closure,
    transitive_reduction,
)
from canm.independence import data_ci_test, oracle_ci_test
from canm import discovery, independence, util
from canm.scm import InterventionalDataset, LazyDataset, anm_sampler, random_anm, sample
from canm.setsys import strongly_separating
from canm.util import derive_seed


def oracle_setup(g, seed):
    anm = random_anm(g, seed=seed)
    return anm_sampler(anm), oracle_ci_test(anm.graph)


def dfs_reach(n, edges):
    children = [[] for _ in range(n)]
    for a, b in edges:
        children[a].append(b)
    reach = [set() for _ in range(n)]
    for src in range(n):
        stack = list(children[src])
        while stack:
            v = stack.pop()
            if v not in reach[src]:
                reach[src].add(v)
                stack.extend(children[v])
    return reach


def edge_rows(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
    return rows


def reference_strict_order(n, raw_edges):
    """Per-source DFS closure minus every mutually reachable pair."""
    reach = dfs_reach(n, raw_edges)
    return {(a, b) for a in range(n) for b in reach[a] if a != b and a not in reach[b]}


def reference_observable_graph(sampler, test, n, d_max, alpha, m_per_int, seed):
    """The discovery loop with eager draws and set-based reachability,
    written independently of the library, as the reference for its output."""
    def closure(context, cseed):
        raw, datasets = set(), []
        for idx, s in enumerate(strongly_separating(n) if n > 1 else ()):
            ds = sampler(frozenset(s) | context, m_per_int, derive_seed(cseed, "int", idx))
            datasets.append(ds)
            sources, free = sorted(s), sorted(set(range(n)) - context - s)
            if free:
                rows = test.batch(ds, sources)
                raw.update((a, b) for a, row in zip(sources, rows) for b in free if row >> b & 1)
        clos = reference_strict_order(n, raw)
        red = {(u, v) for u, v in clos
               if not any((u, w) in clos and (w, v) in clos for w in range(n))}
        return red, datasets

    collected = [sampler(frozenset(), m_per_int, derive_seed(seed, "obs"))]
    edges = set()
    outer = int(math.ceil(4.0 * alpha * d_max * math.log2(n))) if n > 1 else 0
    for t in range(outer):
        rng = np.random.default_rng(derive_seed(seed, "subset", t))
        s = frozenset(i for i in range(n) if rng.random() < 1.0 - 1.0 / d_max)
        red, inner = closure(s, derive_seed(seed, "closure", t))
        collected.extend(inner)
        for a, b in sorted(red):
            if (a, b) not in edges and a not in dfs_reach(n, edges)[b]:
                edges.add((a, b))
        collected.append(sampler(s, m_per_int, derive_seed(seed, "context", t)))
    collected.append(sampler(frozenset(range(n)), m_per_int, derive_seed(seed, "joint")))
    return Dag(n, frozenset(edges)), collected


def counting(sampler):
    calls = []

    def draw(targets, m, seed):
        calls.append(seed)
        return sampler(targets, m, seed)

    return draw, calls


def assert_same_datasets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.targets == b.targets
        assert a.value_policy == b.value_policy
        assert a.seed == b.seed
        assert np.array_equal(a.data, b.data)


# raw dependence edges as a test run may report them: cycles and self-pairs
raw_edge_sets = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        max_size=3 * n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw_edge_sets)
def test_strict_order_edges_matches_reference(case):
    n, raw = case
    assert set(bit_edges(_strict_order_bits(edge_rows(n, raw)))) == reference_strict_order(n, raw)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw_edge_sets)
def test_reduction_of_strict_order_rows_matches_transitive_reduction(case):
    """The discovery loop reduces the strict order's rows without building a
    Dag; the edges, in the order the cycle guard walks them, are those of
    graph.transitive_reduction on the strict order as a Dag."""
    n, raw = case
    order = _strict_order_bits(edge_rows(n, raw))
    edges = bit_edges(reduction_bits(order))
    assert edges == sorted(transitive_reduction(Dag(n, frozenset(bit_edges(order)))).edges)


class TestLazyRegimes:
    def test_oracle_discovery_draws_only_when_read(self, monkeypatch):
        monkeypatch.setattr(util, "usable_cpus", lambda: 1)
        g = random_dag(8, 3, seed=30)
        anm = random_anm(g, seed=31)
        oracle = oracle_ci_test(anm.graph)
        draw, calls = counting(anm_sampler(anm))
        res = learn_observable_graph(draw, oracle, 8, 3, 2.0, 25, seed=32)
        assert calls == []
        assert all(isinstance(ds, LazyDataset) and ds.m == 25 for ds in res.collected)
        # a data test run inline reads the handles of the regimes it tests,
        # which keep their draws, and every kept dataset is still a handle
        def reading_batch(ds, sources):
            assert len(ds.data) == 25
            return oracle.batch(ds, sources)

        eager_draw, eager_calls = counting(anm_sampler(anm))
        eager = learn_observable_graph(
            eager_draw, types.SimpleNamespace(batch=reading_batch, needs_data=True),
            8, 3, 2.0, 25, seed=32)
        tested = sum(bool(r.randomized) for r in plan_discovery(8, 3, 2.0, seed=32))
        assert 0 < len(eager_calls) == tested < len(eager.collected)
        assert all(isinstance(ds, LazyDataset) and ds.m == 25 for ds in eager.collected)
        assert res.learned_graph == eager.learned_graph
        assert res.interventions_used == eager.interventions_used
        assert [ds.targets for ds in res.collected] == [ds.targets for ds in eager.collected]
        assert calls == []
        assert_same_datasets(res.collected, eager.collected)
        assert sorted(calls) == sorted(eager_calls)
        res.collected[0].x(0)
        assert len(calls) == len(res.collected)

    def test_fit_model_draws_only_the_regimes_it_fits_from(self):
        g = random_dag(8, 3, seed=30)
        anm = random_anm(g, seed=31)
        draw, calls = counting(anm_sampler(anm))
        res = learn_observable_graph(draw, oracle_ci_test(g), 8, 3, 2.0, 400, seed=32)
        assert res.learned_graph == g
        with pytest.raises(UsageError, match="treatments"):
            fit_model(Dag(9), res.collected)
        assert calls == []
        fit_model(res.learned_graph, res.collected)
        # the joint and observational regimes plus at most one witness each
        assert 0 < len(calls) <= g.n + 2 < len(res.collected)

    @pytest.mark.parametrize("level", [1e-3, 0.3])
    def test_pearson_discovery_matches_reference(self, level):
        g = random_dag(6, 3, seed=33)
        anm = random_anm(g, seed=34)
        test = data_ci_test("pearson", level=level, seed=35)
        res = learn_observable_graph(anm_sampler(anm), test, 6, 3, 1.0, 200, seed=36)
        graph, collected = reference_observable_graph(anm_sampler(anm), test, 6, 3, 1.0,
                                                      200, seed=36)
        assert res.learned_graph == graph
        assert all(isinstance(ds, LazyDataset) for ds in res.collected)
        assert_same_datasets(res.collected, collected)


def saved_files(out_dir) -> dict:
    return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


class TestWorkerCount:
    @pytest.mark.parametrize("level", [1e-3, 0.3])
    def test_results_do_not_depend_on_worker_count(self, level, tmp_path, forking,
                                                   monkeypatch):
        anm = random_anm(random_dag(6, 3, seed=40), seed=41)
        runs, parent_draws = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            draw, calls = counting(anm_sampler(anm))
            test = data_ci_test("pearson", level=level, seed=42)
            runs[cpus] = res = learn_observable_graph(draw, test, 6, 3, 1.0, 120, seed=43)
            save_discovery_result(res, tmp_path / str(cpus))
            parent_draws[cpus] = len(calls)
        one, two = runs[1], runs[2]
        # inline, each regime is drawn here once, tested or saved; with two
        # workers nothing is
        assert parent_draws[1] == len(one.collected) and parent_draws[2] == 0
        assert one.learned_graph == two.learned_graph
        assert one.interventions_used == two.interventions_used
        assert_same_datasets(one.collected, two.collected)
        assert saved_files(tmp_path / "1") == saved_files(tmp_path / "2")
        assert len(saved_files(tmp_path / "1")) == 2 * len(one.collected) + 2

    def test_discovery_nested_in_a_worker_keeps_no_draw(self, forking, monkeypatch):
        anm = random_anm(random_dag(6, 3, seed=40), seed=41)

        def discover(_):
            test = data_ci_test("pearson", level=1e-3, seed=42)
            res = learn_observable_graph(anm_sampler(anm), test, 6, 3, 1.0, 120, seed=43)
            return res.learned_graph, [ds._ds is None for ds in res.collected]

        monkeypatch.setattr(util, "usable_cpus", lambda: 1)
        inline_graph, inline_undrawn = discover(None)
        # inline, the tested handles keep their draws
        assert not all(inline_undrawn)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        nested = util.fork_map(discover, range(2), 0)
        for graph, undrawn in nested:
            assert graph == inline_graph
            assert len(undrawn) == len(inline_undrawn) and all(undrawn)

    def test_usage_error_in_a_worker_keeps_its_class(self, forking):
        anm = random_anm(Dag(3, {(0, 1)}), seed=44)

        def constant_x3(targets, m, seed):
            ds = sample(anm, targets, "std_normal", m, seed)
            data = ds.data.copy()
            if 2 not in ds.targets:
                data[:, 2] = 0.5
            return InterventionalDataset(ds.targets, ds.value_policy, data, ds.seed)

        with pytest.raises(UsageError, match="constant input vector") as info:
            learn_observable_graph(constant_x3, data_ci_test("pearson", seed=45), 3, 2, 1.0,
                                   50, seed=46)
        # the cause carries the worker's traceback
        assert "constant input vector" in str(info.value.__cause__)
        assert "_raw_edges" in str(info.value.__cause__)


@pytest.mark.parametrize("test", [
    lambda ds, a, b: True,
    types.SimpleNamespace(batch=lambda ds, sources: [0] * len(sources)),
    types.SimpleNamespace(needs_data=False),
], ids=["plain-callable", "no-needs-data", "no-batch"])
def test_test_outside_the_protocol_is_refused(test):
    draw, calls = counting(anm_sampler(random_anm(Dag(3, {(0, 1)}), seed=15)))
    with pytest.raises(UsageError, match="batch"):
        learn_transitive_closure(draw, test, 3, 30, seed=16)
    with pytest.raises(UsageError, match="batch"):
        learn_observable_graph(draw, test, 3, 2, 1.0, 30, seed=16)
    assert calls == []


def test_benchmark_tracer_sees_the_row_protocol(monkeypatch):
    """``perfbench/tracer.py`` wraps every test's ``batch`` as a function of
    two positional arguments and counts ``len()`` of the second: discovery
    under it learns the untraced graphs and its batch calls are counted."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    importlib.import_module("canm.harness")  # Tracer.install wraps its functions too
    monkeypatch.setattr(util, "usable_cpus", lambda: 1)  # counted only in this process
    anm = random_anm(random_dag(6, 3, seed=50), seed=51)

    def learned_graphs():
        tests = ((independence.oracle_ci_test(anm.graph), 1),
                 (independence.data_ci_test("pearson", level=0.3, seed=52), 120))
        return [discovery.learn_observable_graph(anm_sampler(anm), test, 6, 3, 1.0, m,
                                                 seed=53).learned_graph for test, m in tests]

    want = learned_graphs()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        got = learned_graphs()
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.counts["independence.test.batch_calls"] > 0
    assert tracer.counts["independence.test.pairs"] > 0
    assert independence.data_ci_test is data_ci_test


class TestPlan:
    def test_plan_lists_the_collected_regimes(self):
        g = random_dag(8, 3, seed=30)
        sampler, test = oracle_setup(g, 31)
        plan = plan_discovery(8, 3, 2.0, seed=32)
        res = learn_observable_graph(sampler, test, 8, 3, 2.0, 25, seed=32)
        assert [r.targets for r in plan] == [ds.targets for ds in res.collected]
        assert intervention_budget(8, 3, 2.0) == res.interventions_used == len(plan) - 1
        outer = math.ceil(4 * 2.0 * 3 * math.log2(8))
        system = strongly_separating(8)
        assert [r.key[0][0] for r in plan] == (
            ["obs"] + (["closure"] * len(system) + ["context"]) * outer + ["joint"])
        for r in plan:
            if r.key[0][0] == "closure":
                context = plan[(r.iteration + 1) * (len(system) + 1)].targets
                sep = system.sets[r.key[-1][1]]
                assert r.targets == sep | context
                free = [b for b in range(8) if b not in r.targets]
                assert r.randomized == (sep if free else frozenset())
            else:
                assert r.randomized == frozenset()

    @pytest.mark.parametrize("args", [(0, 3, 1.0), (4, 1, 1.0), (4, 3, 0.5)])
    def test_plan_rejects_bad_parameters(self, args):
        with pytest.raises(UsageError):
            plan_discovery(*args)


class TestClosureLearning:
    def test_chain_exact(self):
        g = Dag(3, {(0, 1), (1, 2)})
        sampler, test = oracle_setup(g, 0)
        learned = learn_transitive_closure(sampler, test, 3, m_per_int=1, seed=1)
        assert learned.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_exact_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            g = random_dag(n, 4, seed=int(rng.integers(1 << 30)))
            sampler, test = oracle_setup(g, int(rng.integers(1 << 30)))
            learned = learn_transitive_closure(sampler, test, n, 1, seed=trial)
            assert shd(learned, transitive_closure(g)) == 0

    def test_single_node(self):
        sampler, test = oracle_setup(Dag(1), 3)
        assert learn_transitive_closure(sampler, test, 1, 1, seed=0).edges == frozenset()

    def test_false_positive_budget_on_empty_graph(self):
        # extra closure edges stay near the binomial expectation at the level
        g = Dag(8)
        anm = random_anm(g, seed=4)
        level = 0.01
        extra = 0
        tested = 0
        for rep in range(20):
            test = data_ci_test("pearson", level=level, seed=rep)
            learned = learn_transitive_closure(
                anm_sampler(anm), test, 8, m_per_int=1000, seed=derive_seed(5, rep)
            )
            extra += len(learned.edges)
            tested += sum(len(s) * (8 - len(s)) for s in
                          __import__("canm.setsys", fromlist=["strongly_separating"])
                          .strongly_separating(8))
        mean = tested * level
        # 99.9% binomial quantile plus slack for transitive composition
        bound = mean + 4.0 * math.sqrt(mean) + 3.0
        assert extra <= bound


class TestObservableGraph:
    def test_oracle_recovery_small(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            g = random_dag(8, 3, seed=int(rng.integers(1 << 30)))
            sampler, test = oracle_setup(g, int(rng.integers(1 << 30)))
            res = learn_observable_graph(sampler, test, 8, max(2, g.max_degree()),
                                         alpha=4.0, m_per_int=1, seed=trial)
            assert shd(res.learned_graph, g) == 0

    def test_soundness_no_false_edges(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            g = random_dag(10, 4, seed=int(rng.integers(1 << 30)))
            sampler, test = oracle_setup(g, int(rng.integers(1 << 30)))
            res = learn_observable_graph(sampler, test, 10, max(2, g.max_degree()),
                                         alpha=2.0, m_per_int=1, seed=trial)
            assert res.learned_graph.edges <= g.edges

    def test_intervention_accounting(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(2, 5))
            g = random_dag(n, d, seed=int(rng.integers(1 << 30)))
            sampler, test = oracle_setup(g, int(rng.integers(1 << 30)))
            res = learn_observable_graph(sampler, test, n, d, 3.0, 1, seed=trial)
            assert res.interventions_used <= intervention_budget(n, d, 3.0)

    def test_collected_always_has_observational_and_joint(self):
        g = random_dag(5, 3, seed=9)
        sampler, test = oracle_setup(g, 10)
        res = learn_observable_graph(sampler, test, 5, 3, 1.0, 1, seed=11)
        targets = [ds.targets for ds in res.collected]
        assert frozenset() in targets
        assert frozenset(range(5)) in targets

    def test_single_node_trivial(self):
        g = Dag(1)
        sampler, test = oracle_setup(g, 12)
        res = learn_observable_graph(sampler, test, 1, 2, 3.0, 1, seed=13)
        assert res.learned_graph.edges == frozenset()
        # nothing beyond the joint dataset is ever drawn for one treatment
        assert res.interventions_used == 1

    def test_rejects_small_dmax(self):
        g = Dag(3)
        sampler, test = oracle_setup(g, 14)
        with pytest.raises(UsageError):
            learn_observable_graph(sampler, test, 3, 1, 3.0, 1, seed=0)

    @pytest.mark.parametrize("m", [0, -7])
    def test_rejects_fewer_than_one_sample_with_an_oracle(self, m):
        g = Dag(3, {(0, 1)})
        sampler, test = oracle_setup(g, 16)
        with pytest.raises(UsageError, match="m must be >= 1"):
            learn_observable_graph(sampler, test, 3, 2, 3.0, m, seed=0)
        with pytest.raises(UsageError, match="m must be >= 1"):
            learn_transitive_closure(sampler, test, 3, m, seed=0)

    def test_round_trip_via_directory(self, tmp_path):
        g = random_dag(4, 3, seed=15)
        anm = random_anm(g, seed=16)
        res = learn_observable_graph(
            anm_sampler(anm), oracle_ci_test(anm.graph),
            4, 3, 1.0, 25, seed=17,
        )
        save_discovery_result(res, tmp_path / "out")
        back = load_discovery_result(tmp_path / "out")
        assert back.learned_graph == res.learned_graph
        assert back.interventions_used == res.interventions_used
        assert len(back.collected) == len(res.collected)
        np.testing.assert_allclose(back.collected[0].data, res.collected[0].data)


class TestCorePlan:
    def test_g1_matches_parent_sets(self):
        plan = core_intervention_plan(fig_g1())
        assert [sorted(s) for s in plan] == [[], [0, 1, 2, 3], [1], [0, 1, 2]]

    def test_g2_chain(self):
        plan = core_intervention_plan(fig_g2())
        assert [sorted(s) for s in plan] == [[], [0, 1, 2, 3], [0], [1], [2]]

    def test_g3_no_edges(self):
        plan = core_intervention_plan(fig_g3())
        assert [sorted(s) for s in plan] == [[], [0, 1, 2, 3]]

    def test_flags_drop_parent_sets(self):
        plan = core_intervention_plan(fig_g1(), (False, False, True, True))
        assert [sorted(s) for s in plan] == [[], [0, 1, 2, 3]]


class TestSufficiency:
    def test_core_plan_sufficient_with_witnesses(self):
        g = fig_g1()
        plan = core_intervention_plan(g)
        rep = check_sufficiency(g, plan)
        assert rep.sufficient
        # X3's witness is its parent-set entry, not the joint set
        assert rep.witness[2] == 2
        assert rep.witness[3] == 3
        assert set(rep.witness) == {0, 1, 2, 3}

    def test_joint_and_obs_alone_insufficient(self):
        rep = check_sufficiency(fig_g1(), [frozenset(), frozenset(range(4))])
        assert not rep.sufficient
        assert rep.missing == (2, 3)
        assert rep.has_joint and rep.has_observational

    def test_missing_joint_detected(self):
        rep = check_sufficiency(fig_g3(), [frozenset()])
        assert not rep.sufficient
        assert not rep.has_joint

    @pytest.mark.parametrize("bad, match", [([0.5], "integer"), ([5], "out of range")])
    def test_entries_must_be_node_indices(self, bad, match):
        # [0.5] used to read as [0] and make this list sufficient
        with pytest.raises(UsageError, match=match):
            check_sufficiency(Dag(2, {(0, 1)}), [[], [0, 1], bad])

    def test_report_invariant(self):
        rng = np.random.default_rng(18)
        pool = [frozenset(), frozenset(range(5))] + [
            frozenset(int(v) for v in rng.choice(5, size=k, replace=False))
            for k in (1, 2, 3) for _ in range(4)
        ]
        for trial in range(200):
            g = random_dag(5, 4, seed=int(rng.integers(1 << 30)))
            picks = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 7)))]
            flags = tuple(bool(rng.random() < 0.3) for _ in range(5))
            rep = check_sufficiency(g, picks, flags)
            assert rep.sufficient == (
                rep.has_joint and rep.has_observational and not rep.missing
            )

    def test_matches_brute_force_predicate(self):
        rng = np.random.default_rng(19)
        pool = [frozenset(), frozenset(range(5)), frozenset({0}), frozenset({1, 2}),
                frozenset({0, 1, 3}), frozenset({2, 3, 4}), frozenset({0, 2})]
        for trial in range(300):
            n = int(rng.integers(2, 6))
            g = random_dag(n, 4, seed=int(rng.integers(1 << 30)))
            picks = [frozenset(v for v in s if v < n)
                     for s in (pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 7))))]
            flags = tuple(bool(rng.random() < 0.25) for _ in range(n))
            rep = check_sufficiency(g, picks, flags)
            full = frozenset(range(n))
            pa = g.parent_sets()
            want = (
                full in picks
                and frozenset() in picks
                and all(
                    flags[i] or any(pa[i] <= s and i not in s for s in picks)
                    for i in range(n)
                )
            )
            assert rep.sufficient == want
