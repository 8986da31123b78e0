"""Graph algorithms against independent brute-force oracles."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canm.errors import UsageError
from canm.graph import (
    Dag,
    closure_bits,
    random_dag,
    shd,
    topological_order,
    transitive_closure,
    transitive_reduction,
)
from reference import d_separated


def closure_by_dfs(g):
    """Independent per-source DFS reachability."""
    children = {v: [] for v in range(g.n)}
    for a, b in g.edges:
        children[a].append(b)
    edges = set()
    for src in range(g.n):
        stack = list(children[src])
        seen = set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                edges.add((src, v))
                stack.extend(children[v])
    return edges


def reduction_by_exhaustion(g):
    """Minimum edge subset of g with the same closure, by exhaustive search."""
    edges = sorted(g.edges)
    target = closure_by_dfs(g)
    best = None
    for mask in range(1 << len(edges)):
        subset = {edges[k] for k in range(len(edges)) if mask >> k & 1}
        if best is not None and len(subset) >= len(best):
            continue
        if closure_by_dfs(Dag(g.n, frozenset(subset))) == target:
            best = subset
    return best


class TestDagInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(UsageError):
            Dag(2, {(0, 0)})

    def test_rejects_cycle(self):
        with pytest.raises(UsageError):
            Dag(2, {(0, 1), (1, 0)})

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            Dag(2, {(0, 5)})

    def test_json_round_trip(self):
        g = Dag(4, {(0, 1), (2, 3)})
        assert Dag.from_json(g.to_json()) == g

    @pytest.mark.parametrize("n,edges", [(3.7, [(0, 1)]), (3, [(0.9, 1.2)]), (3, [(0, 1.0)])])
    def test_rejects_float_node_indices(self, n, edges):
        with pytest.raises(UsageError, match="integer"):
            Dag(n, edges)


class TestTopologicalOrder:
    def test_empty_graph_index_order(self):
        assert topological_order(Dag(3)) == [0, 1, 2]

    def test_unique_order(self):
        assert topological_order(Dag(3, {(2, 0), (0, 1)})) == [2, 0, 1]

    def test_sources_tie_break(self):
        assert topological_order(Dag(3, {(0, 2), (1, 2)})) == [0, 1, 2]

    def test_edges_respected_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            g = random_dag(10, 4, seed=int(rng.integers(1 << 30)))
            pos = {v: k for k, v in enumerate(topological_order(g))}
            assert all(pos[a] < pos[b] for a, b in g.edges)


class TestClosureReduction:
    def test_chain_closure(self):
        g = Dag(3, {(0, 1), (1, 2)})
        assert transitive_closure(g).edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_empty_closure(self):
        assert transitive_closure(Dag(4)).edges == frozenset()

    def test_closure_matches_dfs_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            g = random_dag(8, 5, seed=int(rng.integers(1 << 30)))
            assert transitive_closure(g).edges == frozenset(closure_by_dfs(g))

    def test_reduction_removes_chord(self):
        g = Dag(3, {(0, 1), (1, 2), (0, 2)})
        assert transitive_reduction(g).edges == frozenset({(0, 1), (1, 2)})

    def test_reduction_fixed_point(self):
        g = Dag(2, {(0, 1)})
        assert transitive_reduction(g).edges == g.edges

    def test_reduction_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 30:
            g = random_dag(7, 4, seed=int(rng.integers(1 << 30)))
            if len(g.edges) > 12:
                continue
            assert transitive_reduction(g).edges == frozenset(reduction_by_exhaustion(g))
            done += 1

    def test_closure_idempotent_and_round_trip(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            g = random_dag(9, 4, seed=int(rng.integers(1 << 30)))
            clos = transitive_closure(g)
            assert transitive_closure(clos).edges == clos.edges
            red = transitive_reduction(g)
            assert red.edges <= g.edges
            assert transitive_closure(red).edges == clos.edges


def closure_by_matrix(n, edges, cut=()):
    """Boolean-matrix closure by repeated squaring, edges into cut removed."""
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        if b not in cut:
            adj[a, b] = True
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    return reach


@st.composite
def edge_sets(draw, max_n=9):
    """Any edge set on n nodes (cycles and self-loops allowed) plus a cut set."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    cut = draw(st.sets(node))
    return n, edges, cut


@st.composite
def dags(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    return random_dag(n, draw(st.integers(1, 5)), seed=draw(st.integers(0, 1 << 30)))


class TestClosureBits:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edge_sets())
    def test_matches_matrix_closure(self, case):
        n, edges, cut = case
        reach = closure_bits(n, edges, cut)
        want = closure_by_matrix(n, edges, cut)
        got = np.array([[bool(reach[i] >> j & 1) for j in range(n)] for i in range(n)])
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dags())
    def test_closure_and_reduction_match_reference(self, g):
        clos = closure_by_dfs(g)
        assert transitive_closure(g).edges == frozenset(clos)
        # a closure edge survives iff no intermediate node splits it
        red = {(u, v) for u, v in clos
               if not any((u, w) in clos and (w, v) in clos for w in range(g.n))}
        assert transitive_reduction(g).edges == frozenset(red)


class TestShd:
    def test_identity(self):
        g = Dag(3, {(0, 1)})
        assert shd(g, g) == 0

    def test_single_missing(self):
        assert shd(Dag(2, {(0, 1)}), Dag(2)) == 1

    def test_reversed_costs_two(self):
        assert shd(Dag(2, {(0, 1)}), Dag(2, {(1, 0)})) == 2

    def test_mismatched_n(self):
        with pytest.raises(UsageError):
            shd(Dag(2), Dag(3))

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            gs = [random_dag(6, 4, seed=int(rng.integers(1 << 30))) for _ in range(3)]
            a, b, c = gs
            assert shd(a, b) == shd(b, a)
            assert shd(a, a) == 0
            assert shd(a, c) <= shd(a, b) + shd(b, c)


class TestRandomDag:
    def test_single_node(self):
        assert random_dag(1, 3, seed=0).edges == frozenset()

    def test_seed_determinism(self):
        assert random_dag(12, 4, seed=42) == random_dag(12, 4, seed=42)

    def test_degree_bound_many_draws(self):
        for seed in range(1000):
            g = random_dag(20, 4, edge_prob=0.5, seed=seed)
            assert g.max_degree() <= 4


def brute_force_m_connected(g, a, b, cond, bidirected):
    """Path enumeration with the usual chain/fork/collider blocking rules,
    on the latent expansion of the DAG g plus the bidirected pairs."""
    n = g.n
    directed = set(g.edges)
    for k, (i, j) in enumerate(sorted(bidirected)):
        lat = n + k
        directed.add((lat, i))
        directed.add((lat, j))
    total = n + len(bidirected)
    nbrs = {v: set() for v in range(total)}
    for u, v in directed:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def descendants(v):
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for w in range(total):
                if (u, w) in directed and w not in out:
                    out.add(w)
                    stack.append(w)
        return out

    cond = set(cond)

    def path_active(path):
        for k in range(1, len(path) - 1):
            prev, mid, nxt = path[k - 1], path[k], path[k + 1]
            into_mid = (prev, mid) in directed
            out_of_mid = (mid, nxt) in directed
            collider = into_mid and (nxt, mid) in directed
            if collider:
                if mid not in cond and not (descendants(mid) & cond):
                    return False
            else:
                if mid in cond:
                    return False
        return True

    def extend(path):
        last = path[-1]
        if last == b:
            return path_active(path)
        for w in nbrs[last]:
            if w not in path:
                if extend(path + [w]):
                    return True
        return False

    return extend([a])


class TestDSeparation:
    def test_blocked_chain(self):
        g = Dag(3, {(0, 1), (1, 2)})
        assert d_separated(g, 0, 2, {1}) is True

    def test_collider_unconditioned(self):
        g = Dag(3, {(0, 2), (1, 2)})
        assert d_separated(g, 0, 1, set()) is True

    def test_bidirected_pair_confounded(self):
        assert d_separated(Dag(2), 0, 1, set(), {(0, 1)}) is False

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(25):
            n = int(rng.integers(3, 7))
            g = random_dag(n, 4, edge_prob=0.4, seed=int(rng.integers(1 << 30)))
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.35
            ]
            for a, b in itertools.combinations(range(n), 2):
                rest = [v for v in range(n) if v not in (a, b)]
                for r in range(len(rest) + 1):
                    for cond in itertools.combinations(rest, r):
                        got = d_separated(g, a, b, cond, pairs)
                        want = not brute_force_m_connected(g, a, b, cond, pairs)
                        assert got == want, (sorted(g.edges), pairs, a, b, cond)
                        checked += 1
        assert checked >= 1500
