"""Graph representation with stable and unstable edges, plus union-find.

A graph here is mostly static: every edge weight is fixed except for a small
set of designated "unstable" edges whose current values may be replaced at any
time via :func:`set_unstable_weight`. Parallel edges are allowed, self-loops
are not, and the full edge set must connect all vertices.

Every minimum spanning tree a graph can have is one fixed set of stable edges
plus a tree of its small :class:`Kernel`, built once and shared with copies.

Graphs are safe to share read-only across threads; weight replacement needs
exclusive access. There is no internal locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from .errors import (
    DisconnectedGraphError,
    Error,
    NonFiniteWeightError,
    NotUnstableError,
    SelfLoopError,
    UnknownEdgeError,
    VertexOutOfRangeError,
)


class EdgeKind(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True, slots=True)
class Edge:
    """One undirected edge. For unstable edges, ``weight`` is the current value."""

    id: int
    u: int
    v: int
    weight: float
    kind: EdgeKind


_set_id, _set_u, _set_v, _set_weight, _set_kind = (
    getattr(Edge, name).__set__ for name in ("id", "u", "v", "weight", "kind")
)


def _new_edge(eid: int, u: int, v: int, weight: float, kind: EdgeKind) -> Edge:
    """``Edge(eid, u, v, weight, kind)``, fields unchecked, in about half the time.

    It fills the slots through their descriptors, skipping the frozen
    ``__init__``'s ``object.__setattr__`` calls; a graph parse makes one
    edge per line, so that cost is a large part of it.
    """
    e = object.__new__(Edge)
    _set_id(e, eid)
    _set_u(e, u)
    _set_v(e, v)
    _set_weight(e, weight)
    _set_kind(e, kind)
    return e


class DisjointSetUnion:
    """Union-find over ``n`` elements with path halving and union by rank."""

    __slots__ = ("parent", "rank", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Merge the sets holding ``a`` and ``b``; False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


def _kruskal(order: Iterable[int], ends, parent: list[int], need: int) -> list[int]:
    """Ids of ``order`` that join two sets of ``parent``, until ``need`` have.

    Edge ``eid`` joins ``ends[eid]``; ``parent`` is updated in place. With
    ``need`` 0, ``parent`` must already be one set. The union-find is
    inlined: this loop is most of a kernel build.
    """
    taken: list[int] = []
    for eid in order:
        a, b = ends[eid]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            taken.append(eid)
            if len(taken) == need:
                break
    return taken


def _exact_sum(weights: list[float]) -> tuple[float, ...]:
    """Floats whose exact sum is the exact sum of ``weights``, largest first.

    Each is the correctly rounded sum of what the ones before it leave
    over, so ``fsum`` of them is ``fsum(weights)``, and ``fsum`` of them
    plus other floats is the correctly rounded sum of all. There is one
    when that sum is exact, as for integer weights, and seldom more than two.
    """
    rest = list(weights)
    parts = []
    while (part := math.fsum(rest)) != 0.0:
        parts.append(part)
        rest.append(-part)
    return tuple(parts)


@dataclass(frozen=True, slots=True)
class Kernel:
    """What a graph's minimum spanning trees share at any unstable values.

    With k unstable edges, the ``(weight, id)`` minimum spanning tree is
    always ``forced`` plus a tree of the kernel graph (Eppstein, "Offline
    algorithms for dynamic minimum spanning tree problems", J. Algorithms
    1994). ``forced`` holds the stable edges Kruskal takes when every
    unstable edge ranks first; contracting them leaves ``supers`` <= k + 1
    super-vertices. The kernel's edges are the unstable ones and ``stable``,
    the at most k other stable edges Kruskal then takes, in ``(weight, id)``
    order; ``ends`` maps each to the super-vertices it joins.
    """

    forced: frozenset[int]
    supers: int
    stable: tuple[int, ...]
    ends: dict[int, tuple[int, int]]
    # The exact sum of the ``forced`` weights, as ``_exact_sum`` gives it.
    _forced_expansion: tuple[float, ...] = field(repr=False, compare=False)

    def spanning(self, order: Iterable[int]) -> list[int] | None:
        """Kernel edges of ``order`` Kruskal takes; None if they do not span the kernel."""
        need = self.supers - 1
        tree = _kruskal(order, self.ends, list(range(self.supers)), need)
        return tree if len(tree) == need else None


def _build_kernel(g: "WeaklyDynamicGraph") -> Kernel:
    edges = g.edges
    n = g.n
    ends = [(e.u, e.v) for e in edges]
    weight = [e.weight for e in edges]
    unstable = set(g.unstable_ids)
    stable = [eid for eid in range(len(edges)) if eid not in unstable]
    # A stable sort of ascending ids keeps equal weights in id order.
    stable.sort(key=weight.__getitem__)
    parent = list(range(n))
    joined = _kruskal(g.unstable_ids, ends, parent, n - 1)
    forced = _kruskal(stable, ends, parent, n - 1 - len(joined))
    parent = list(range(n))
    _kruskal(forced, ends, parent, len(forced))
    contracted = list(parent)  # a root per component of ``forced``
    supers = n - len(forced)
    kernel_stable = _kruskal(stable, ends, parent, supers - 1)
    index: dict[int, int] = {}  # component root -> super-vertex

    def super_of(v: int) -> int:
        while contracted[v] != v:
            v = contracted[v]
        return index.setdefault(v, len(index))

    kernel_ends = {
        eid: (super_of(ends[eid][0]), super_of(ends[eid][1]))
        for eid in (*kernel_stable, *g.unstable_ids)
    }
    forced_sum = _exact_sum([weight[eid] for eid in forced])
    return Kernel(frozenset(forced), supers, tuple(kernel_stable), kernel_ends, forced_sum)


@dataclass
class WeaklyDynamicGraph:
    """A weighted undirected multigraph whose unstable edges may change value.

    ``edges`` is indexed by dense edge id (input order); ``unstable_ids``
    enumerates the edges whose weights are replaceable.
    """

    n: int
    edges: list[Edge]
    unstable_ids: tuple[int, ...]
    _kernel: Kernel | None = field(default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        if not 0 <= edge_id < len(self.edges):
            raise UnknownEdgeError(f"no edge with id {edge_id}")
        return self.edges[edge_id]

    def weight(self, edge_id: int) -> float:
        return self.edge(edge_id).weight

    def copy(self) -> "WeaklyDynamicGraph":
        """Independent copy; mutating one graph's weights leaves the other alone.

        The copy shares the kernel, building it first if need be, so plans
        built on either graph are accepted by the other.
        """
        return WeaklyDynamicGraph(self.n, list(self.edges), self.unstable_ids, self.kernel())

    def kernel(self) -> Kernel:
        """The graph's :class:`Kernel`; treat as read-only.

        It depends on no unstable value, so it is built on first use and
        kept for the life of the graph and its copies.
        """
        if self._kernel is None:
            self._kernel = _build_kernel(self)
        return self._kernel


def _coerce_kind(kind) -> EdgeKind:
    if isinstance(kind, EdgeKind):
        return kind
    if isinstance(kind, str):
        try:
            return EdgeKind(kind.lower())
        except ValueError:
            pass
    raise Error(f"invalid edge kind: {kind!r}")


def build_graph(
    n: int,
    edge_specs: Iterable[tuple[int, int, float, EdgeKind | str]],
) -> WeaklyDynamicGraph:
    """Build and validate a graph from ``(u, v, weight, kind)`` tuples.

    Edge ids are assigned densely in input order. The graph restricted to all
    edges must be connected.
    """
    if n < 1:
        raise Error(f"vertex count must be >= 1, got {n}")
    edges: list[Edge] = []
    for u, v, weight, kind in edge_specs:
        kind = _coerce_kind(kind)
        _validate_edge(n, u, v, weight)
        edges.append(_new_edge(len(edges), u, v, float(weight), kind))
    return _graph_of(n, edges)


def _graph_of(n: int, edges: list[Edge]) -> WeaklyDynamicGraph:
    """The graph of validated edges whose ids are their positions; it must be connected."""
    unstable_kind = EdgeKind.UNSTABLE  # one enum lookup, not one per edge
    g = WeaklyDynamicGraph(n, edges, tuple(e.id for e in edges if e.kind is unstable_kind))
    if not is_connected(g, frozenset()):
        raise DisconnectedGraphError(
            f"graph on {n} vertices is not connected by its full edge set"
        )
    return g


def _validate_edge(n: int, u: int, v: int, weight: float) -> None:
    if not (isinstance(u, int) and isinstance(v, int)):
        raise VertexOutOfRangeError(f"endpoints must be integers, got ({u!r}, {v!r})")
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRangeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    if not math.isfinite(weight):
        raise NonFiniteWeightError(f"edge ({u}, {v}) has non-finite weight {weight!r}")


def is_connected(g: WeaklyDynamicGraph, excluded: frozenset[int] | set[int]) -> bool:
    """True iff the graph minus ``excluded`` edge ids spans all vertices."""
    for eid in excluded:
        g.edge(eid)  # raises UnknownEdgeError on bad ids
    if g.n == 1:
        return True
    dsu = DisjointSetUnion(g.n)
    for e in g.edges:
        if e.id in excluded:
            continue
        if dsu.union(e.u, e.v) and dsu.components == 1:
            return True
    return dsu.components == 1


def set_unstable_weight(
    g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> WeaklyDynamicGraph:
    """Replace the current value of an unstable edge, in place.

    Only that edge's weight changes; ids, endpoints and every other weight are
    untouched. Returns the same graph for convenience.
    """
    e = g.edge(edge_id)
    if e.kind is not EdgeKind.UNSTABLE:
        raise NotUnstableError(f"edge {edge_id} is stable; its weight is immutable")
    if not math.isfinite(new_x):
        raise NonFiniteWeightError(f"new value for edge {edge_id} is not finite: {new_x!r}")
    g.edges[edge_id] = replace(e, weight=float(new_x))
    return g


def unstable_values(g: WeaklyDynamicGraph) -> dict[int, float]:
    """Current values of all unstable edges, keyed by edge id."""
    return {eid: g.edges[eid].weight for eid in g.unstable_ids}
