"""Strongly separating set systems via binary expansion of node indices.

For every ordered pair (i, j) of distinct nodes the family contains sets S
and S' with i in S \\ S' and j in S' \\ S. Using 0-based indices keeps the
bit-length at ceil(log2 n) even when n is a power of two; the construction
then needs at most 2*ceil(log2 n) sets.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graph import node_index


@dataclass(frozen=True)
class SeparatingSetSystem:
    n: int
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(map(node_index, s)) for s in self.sets))
        for s in self.sets:
            if any(v < 0 or v >= self.n for v in s):
                raise UsageError("set element out of range")
        if self.n >= 2 and len(self.sets) > 2 * math.ceil(math.log2(self.n)):
            raise UsageError("set system exceeds the 2*ceil(log2 n) size bound")

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def membership(self) -> np.ndarray:
        """Boolean matrix M[s, v] = (v in sets[s])."""
        m = np.zeros((len(self.sets), self.n), dtype=bool)
        for row, s in enumerate(self.sets):
            m[row, sorted(s)] = True
        return m

    def is_strongly_separating(self) -> bool:
        """Exhaustive pairwise check, vectorized so n up to ~1024 stays fast."""
        if self.n < 2:
            return True
        m = self.membership().astype(np.float32)
        # split[i, j] = some set contains i but not j
        split = (m.T @ (1.0 - m)) > 0.0
        off = ~np.eye(self.n, dtype=bool)
        return bool(np.all(split[off]))


@functools.lru_cache(maxsize=32)
def strongly_separating(n: int) -> SeparatingSetSystem:
    """Two sets per bit position: the nodes with the bit set and the nodes
    without it. Empty and full sets contribute nothing and are dropped.
    Cached: the value is immutable and discovery asks for it per closure."""
    if n < 1:
        raise UsageError("n must be >= 1")
    bits = max(1, math.ceil(math.log2(n)))
    sets = []
    full = frozenset(range(n))
    for k in range(bits):
        ones = frozenset(v for v in range(n) if (v >> k) & 1)
        for s in (ones, full - ones):
            if s and s != full:
                sets.append(s)
    return SeparatingSetSystem(n, tuple(sets))
