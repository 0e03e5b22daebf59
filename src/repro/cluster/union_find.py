"""Union–find (disjoint sets) with union by rank and path compression.

The master processor maintains the EST clusters in exactly this structure
(§3.3, citing Tarjan): ``find`` locates an EST's cluster and ``union``
merges two clusters, with amortised cost given by the inverse Ackermann
function — constant for all practical purposes.  Operation counters are
kept because the master's bookkeeping load is part of the paper's
"single master is not a bottleneck" argument.

The parent pointers are one int32 array, so the pair-selection test over
a block of pairs is one :meth:`UnionFind.find_many` — a level-synchronous
sweep over that array (docs/ALGORITHMS.md §5.1) — instead of a Python
loop per EST.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnionFind", "MAX_ELEMENTS"]

#: Elements an int32 parent array can hold.
MAX_ELEMENTS = 2**31 - 1


class UnionFind:
    """Disjoint sets over the integers ``0 .. n-1``."""

    __slots__ = ("_parent", "_rank", "n_elements", "n_components", "finds", "unions")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"need at least one element, got {n}")
        if n > MAX_ELEMENTS:
            raise ValueError(
                f"an int32 parent array holds at most {MAX_ELEMENTS} elements, got {n}"
            )
        self._parent = np.arange(n, dtype=np.int32)
        self._rank = np.zeros(n, dtype=np.int8)  # at most log2(n) < 31
        self.n_elements = n
        self.n_components = n
        self.finds = 0
        self.unions = 0

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with full path compression)."""
        self.finds += 1
        parent = self._parent
        up = parent.item
        root = x
        while (step := up(root)) != root:
            root = step
        while (step := up(x)) != root:
            parent[x] = root
            x = step
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; True iff they were distinct."""
        self.unions += 1
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self._rank
        if rank.item(rx) < rank.item(ry):
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank.item(rx) == rank.item(ry):
            rank[rx] += 1
        self.n_components -= 1
        return True

    def find_many(self, xs) -> np.ndarray:
        """Representatives of many elements at once, as an int32 array.

        Level-synchronous: each round lifts every query one level toward
        its root, all queries at once, until a round moves none; then the
        queried elements are pointed straight at their roots.  Union by
        rank bounds the rounds by log2 n; path compression keeps them at
        one or two.
        """
        xs = np.asarray(xs, dtype=np.int32)
        self.finds += xs.size
        parent = self._parent
        roots = parent[xs]
        while True:
            up = parent[roots]
            if (up == roots).all():
                break
            roots = up
        parent[xs] = roots
        return roots

    def same(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def labels(self) -> np.ndarray:
        """The representative of every element (compresses them all)."""
        return self.find_many(np.arange(self.n_elements, dtype=np.int32))

    def components(self) -> list[list[int]]:
        """All sets, each sorted, ordered by smallest member."""
        roots = self.labels()
        # Stable over increasing elements: each set's members in order,
        # its smallest first.
        order = np.argsort(roots, kind="stable")
        grouped = roots[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        by_smallest = np.argsort(order[starts], kind="stable").tolist()
        bounds = np.append(starts, order.size).tolist()
        members = order.tolist()
        return [members[bounds[g] : bounds[g + 1]] for g in by_smallest]
