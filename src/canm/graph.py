"""DAG machinery for treatment networks.

Nodes are integers 0..n-1 and stand for the treatment variables only; the
outcome is implicit (every treatment points into it) and never appears as a
node here. All graph values are immutable and every operation is a pure
function, so they are safe to share across concurrent tasks.
"""
from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, malformed
from .util import read_json, write_json


def node_index(node) -> int:
    """A node index: JSON object keys are strings of digits, anything else
    must be an integer (operator.index rejects 1.9 where int() truncates)."""
    try:
        return int(node) if isinstance(node, str) else operator.index(node)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"node indices must be integers, got {node!r}") from exc


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over ``n`` nodes with edge set {(i, j): i -> j}."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "n", node_index(self.n))
        object.__setattr__(self, "edges",
                           frozenset((node_index(a), node_index(b)) for a, b in self.edges))
        if self.n < 0:
            raise UsageError("node count must be nonnegative")
        for a, b in self.edges:
            if a == b:
                raise UsageError(f"self-loop at node {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise UsageError(f"edge ({a}, {b}) out of range for n={self.n}")
        # acyclicity check; raises on failure
        topological_order(self)

    def parents(self, i: int) -> frozenset:
        return frozenset(a for a, b in self.edges if b == i)

    def children(self, i: int) -> frozenset:
        return frozenset(b for a, b in self.edges if a == i)

    def parent_sets(self) -> tuple:
        pa = [set() for _ in range(self.n)]
        for a, b in self.edges:
            pa[b].add(a)
        return tuple(frozenset(s) for s in pa)

    def max_degree(self) -> int:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return max(deg, default=0)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted([a, b] for a, b in self.edges)}

    @classmethod
    def from_json(cls, obj: dict) -> "Dag":
        with malformed("graph JSON"):
            return cls(obj["n"], obj["edges"])

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "Dag":
        return cls.from_json(read_json(path))


def topological_order(g: Dag) -> list:
    """Topological order with ties broken by ascending node index.

    Deterministic for a fixed graph. Raises UsageError if a cycle is found
    (unreachable for a validly constructed Dag).
    """
    indeg = [0] * g.n
    children = [[] for _ in range(g.n)]
    for a, b in g.edges:
        indeg[b] += 1
        children[a].append(b)
    heap = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != g.n:
        raise UsageError("graph contains a cycle")
    return order


def closure_rows(rows) -> list:
    """Reachability of a relation given as one integer bitset per node (bit
    j of ``rows[i]``: i -> j), in the same form: bit j of ``reach[i]`` is set
    iff a path of length >= 1 leads from i to j. Cycles are allowed (a node
    on a cycle reaches itself). Warshall over Python ints."""
    reach = list(rows)
    for k in range(len(reach)):
        bit, row = 1 << k, reach[k]
        if row:
            for i, r in enumerate(reach):
                if r & bit:
                    reach[i] = r | row
    return reach


def closure_bits(n: int, edges, cut=()) -> list:
    """``closure_rows`` of any edge set over n nodes. Edges into the nodes
    of ``cut`` are dropped first, which is the graph surgery of an
    intervention on them."""
    blocked = sum(1 << v for v in set(cut))
    rows = [0] * n
    for a, b in edges:
        if not blocked >> b & 1:
            rows[a] |= 1 << b
    return closure_rows(rows)


def bit_nodes(mask: int) -> list:
    """The set bits of mask as ascending node indices."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def bit_edges(rows) -> list:
    """The edges (i, j) of bitset rows (bit j of rows[i]), in sorted order."""
    return [(i, j) for i, row in enumerate(rows) for j in bit_nodes(row)]


def transitive_closure(g: Dag) -> Dag:
    """Edge (i, j) in the result iff a directed path i ~> j exists in g."""
    return Dag(g.n, frozenset(bit_edges(closure_bits(g.n, g.edges))))


def reduction_bits(reach: list) -> list:
    """Transitive reduction of an acyclic reachability relation given as
    ``closure_rows`` rows: v stays a child of u iff no w with u ~> w has
    w ~> v."""
    red = []
    for row in reach:
        via = 0
        for w in bit_nodes(row):
            via |= reach[w]
        red.append(row & ~via)
    return red


def transitive_reduction(g: Dag) -> Dag:
    """Unique minimum-edge DAG with the same transitive closure as g.

    A closure edge (u, v) survives iff no intermediate w has u ~> w ~> v;
    such edges are necessarily direct edges of g, so the result is a subset
    of g's edge set.
    """
    return Dag(g.n, frozenset(bit_edges(reduction_bits(closure_bits(g.n, g.edges)))))


def shd(g1: Dag, g2: Dag) -> int:
    """Structural Hamming distance: count of differing directed edge slots.

    A reversed edge differs in both slots and therefore costs 2.
    """
    if g1.n != g2.n:
        raise UsageError(f"node count mismatch: {g1.n} vs {g2.n}")
    return len(g1.edges ^ g2.edges)


def random_dag(n: int, d_max: int, edge_prob: float | None = None, seed: int = 0) -> Dag:
    """Random DAG with every node's total degree (in + out) capped at d_max.

    Candidate edges are laid against a random topological order, visited in a
    random order, accepted with probability ``edge_prob`` and rejected when
    either endpoint's degree budget would be exceeded. Deterministic per seed.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if d_max < 1:
        raise UsageError("d_max must be >= 1")
    if edge_prob is None:
        edge_prob = min(1.0, d_max / (n - 1)) if n > 1 else 0.0
    if not 0.0 <= edge_prob <= 1.0:
        raise UsageError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cand = [(int(order[i]), int(order[j])) for i in range(n) for j in range(i + 1, n)]
    perm = rng.permutation(len(cand))
    deg = [0] * n
    edges = set()
    for k in perm:
        u, v = cand[k]
        if rng.random() < edge_prob and deg[u] < d_max and deg[v] < d_max:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Dag(n, frozenset(edges))
