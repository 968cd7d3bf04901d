"""Independent answer checker: a plain Kruskal over the benchmark's instance.

It shares no code with ``mstplan.constrained``, which is a layer under test.
An answer is correct when its tree is a spanning tree of the instance, its
total is that tree's weight, and that weight is the minimum the reference
finds with the unstable edges at the answer's values.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from instances import Instance


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class Reference:
    def __init__(self, inst: Instance):
        self.n = inst.n
        self.edges = inst.edges
        self.unstable = inst.unstable
        skip = set(inst.unstable)
        self.stable_order = sorted(
            (w, i) for i, (_, _, w) in enumerate(inst.edges) if i not in skip
        )

    def mst_total(self, values: Mapping[int, float]) -> float:
        """Minimum spanning tree weight with unstable edges at ``values``."""
        parent = list(range(self.n))
        moving = sorted((values[e], e) for e in self.unstable)
        total = 0
        joined = 0
        for w, i in heapq.merge(self.stable_order, moving):
            u, v, _ = self.edges[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                total += w
                joined += 1
                if joined == self.n - 1:
                    break
        return total

    def check(
        self, values: Mapping[int, float], tree: Iterable[int], total: float
    ) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        ids = set(tree)
        if len(ids) != self.n - 1:
            return f"tree has {len(ids)} edges, a spanning tree has {self.n - 1}"
        parent = list(range(self.n))
        weight = 0
        for i in sorted(ids):
            if not 0 <= i < len(self.edges):
                return f"tree names unknown edge {i}"
            u, v, w = self.edges[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return f"tree has a cycle through edge {i}"
            parent[ru] = rv
            weight += values.get(i, w)
        if weight != total:
            return f"reported total {total} but the tree weighs {weight}"
        best = self.mst_total(values)
        if total != best:
            return f"reported total {total} but the minimum is {best}"
        return None
