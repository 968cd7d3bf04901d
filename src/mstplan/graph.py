"""Graph representation with stable and unstable edges, plus union-find.

A graph here is mostly static: every edge weight is fixed except for a small
set of designated "unstable" edges whose current values may be replaced at any
time via :func:`set_unstable_weight`. Parallel edges are allowed, self-loops
are not, and the full edge set must connect all vertices.

So a graph is stored as three flat columns indexed by edge id, both
endpoints as lists of ints and the weights as one ``array('d')`` of
float64 values, plus the ids of its unstable edges. Every reader reads
the columns; ``edge(i)`` builds one :class:`Edge` from them per call.

Every minimum spanning tree a graph can have is one fixed set of stable edges
plus a tree of its small :class:`Kernel`. A graph comes from parsing or from
:func:`build_graph`, and each is built with its kernel, whose build is the
graph's connectivity check. Only copies share a kernel.

Graphs, and the trees and plans built on them, are safe to share read-only
across threads; weight replacement needs exclusive access. No lock is taken.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import filterfalse
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


def _kruskal(order: Iterable[int], u, v, parent, need: int) -> list[int]:
    """Ids of ``order`` that join two sets of ``parent``, until ``need`` have.

    Edge ``eid`` joins ``u[eid]`` and ``v[eid]``. The inlined union-find halves paths and
    links the larger root index under the smaller. With path halving any linking rule keeps
    finds logarithmic amortized (Tarjan and van Leeuwen 1984), so one rule that keeps no list
    beside ``parent`` serves the n-vertex kernel build and the <= k + 1-vertex kernel searches.
    """
    tree: list[int] = []
    if need <= 0:
        return tree
    for eid in order:
        a = u[eid]
        b = v[eid]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            tree.append(eid)
            if len(tree) == need:
                break
    return tree


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum(values)``, refusing a sum past the largest float."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise NonFiniteWeightError(
            "a spanning tree's total weight overflows the float range"
        ) from None


def _exact_sum(weights: list[float]) -> tuple[float, ...]:
    """Floats whose exact sum is the exact sum of ``weights``, largest first.

    Each is the correctly rounded sum of what the ones before it leave
    over, so ``fsum`` of them is ``fsum(weights)``, and ``fsum`` of them
    plus other floats is the correctly rounded sum of all. There is one
    when that sum is exact, as for integer weights, and seldom more than two.
    """
    rest = list(weights)
    parts = []
    while (part := _fsum(rest)) != 0.0:
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
    the at most k other stable edges Kruskal then takes, each mapped to its
    weight in ``(weight, id)`` order; ``_u`` and ``_v`` map each to the
    super-vertices it joins, as two columns, the way ``_kruskal`` reads them.
    """

    forced: frozenset[int]
    supers: int
    stable: dict[int, float]
    _u: dict[int, int]
    _v: dict[int, int]
    # The exact sum of the ``forced`` weights, as ``_exact_sum`` gives it.
    _forced_expansion: tuple[float, ...] = field(repr=False, compare=False)

    def spanning(self, order: Iterable[int]) -> list[int] | None:
        """Kernel edges of ``order`` Kruskal takes; None if they do not span the kernel."""
        supers = self.supers
        tree = _kruskal(order, self._u, self._v, list(range(supers)), supers - 1)
        return tree if len(tree) == supers - 1 else None


def _build_kernel(g: "WeaklyDynamicGraph") -> Kernel:
    u, v, weight = g._u, g._v, g._weight
    n = g.n
    unstable = set(g.unstable_ids)
    stable = list(filterfalse(unstable.__contains__, range(len(weight))))
    # A stable sort of ascending ids keeps equal weights in id order. It reads
    # a list: a key that boxes one float per id from the array is slower.
    stable.sort(key=weight.tolist().__getitem__)
    parent = list(range(n))
    joined = _kruskal(g.unstable_ids, u, v, parent, n - 1)
    forced = _kruskal(stable, u, v, parent, n - 1 - len(joined))
    if len(joined) + len(forced) < n - 1:
        raise _disconnected(n)
    parent = list(range(n))
    _kruskal(forced, u, v, parent, len(forced))
    contracted = list(parent)  # a root per component of ``forced``; a path to it can be n long
    supers = n - len(forced)
    forced = frozenset(forced)  # joins no two sets of ``parent`` now, so the search skips it
    kernel_stable = _kruskal(filterfalse(forced.__contains__, stable), u, v, parent, supers - 1)
    index: dict[int, int] = {}  # component root -> super-vertex

    def super_of(x: int) -> int:
        while contracted[x] != x:  # halving the path, as _kruskal does
            contracted[x] = contracted[contracted[x]]
            x = contracted[x]
        return index.setdefault(x, len(index))

    edges = (*kernel_stable, *g.unstable_ids)
    ends_u = {eid: super_of(u[eid]) for eid in edges}
    ends_v = {eid: super_of(v[eid]) for eid in edges}
    forced_sum = _exact_sum([weight[eid] for eid in forced])
    stable_weights = {eid: weight[eid] for eid in kernel_stable}
    return Kernel(forced, supers, stable_weights, ends_u, ends_v, forced_sum)


class WeaklyDynamicGraph:
    """A weighted undirected multigraph whose unstable edges may change value.

    The graph is stored as columns indexed by dense edge id (input order):
    both endpoints, as lists, and the current weight of each edge, as one
    ``array('d')``, so no float object is kept per edge. ``unstable_ids``
    enumerates the edges whose weights are replaceable; change one with
    :func:`set_unstable_weight`. ``edge(i)`` is a new :class:`Edge` of
    edge ``i``'s current columns on each call. Graphs come from
    :func:`build_graph` or :func:`~mstplan.parse_graph`, each built with its
    kernel, and from ``copy()``; they compare by identity.
    """

    __slots__ = ("n", "unstable_ids", "_u", "_v", "_weight", "_kernel")

    def __init__(self, *args, **kwargs):
        raise TypeError("a graph is made by build_graph or parse_graph, not directly")

    @property
    def num_edges(self) -> int:
        return len(self._weight)

    def _check_edge(self, edge_id: int) -> None:
        if not (type(edge_id) is int and 0 <= edge_id < len(self._weight)):
            raise UnknownEdgeError(f"no edge with id {edge_id!r}")

    def _is_unstable(self, edge_id: int) -> bool:
        """Whether ``edge_id`` is unstable; UnknownEdgeError if there is no such edge."""
        self._check_edge(edge_id)
        return edge_id in self.unstable_ids

    def edge(self, edge_id: int) -> Edge:
        kind = EdgeKind.UNSTABLE if self._is_unstable(edge_id) else EdgeKind.STABLE
        return Edge(edge_id, self._u[edge_id], self._v[edge_id], self._weight[edge_id], kind)

    def weight(self, edge_id: int) -> float:
        self._check_edge(edge_id)
        return self._weight[edge_id]

    def copy(self) -> "WeaklyDynamicGraph":
        """Independent copy; mutating one graph's weights leaves the other alone.

        The copy shares the kernel, so plans built on either graph are
        accepted by the other.
        """
        return _graph(self.n, self._u, self._v, self._weight[:], self.unstable_ids, self._kernel)

    def kernel(self) -> Kernel:
        """The graph's :class:`Kernel`, built with it and shared by its copies; read-only."""
        return self._kernel


def _graph(n, u, v, weight, unstable_ids, kernel=None) -> WeaklyDynamicGraph:
    """The graph of validated edge columns, sharing ``kernel`` if one is given.

    Otherwise it builds its kernel, which raises DisconnectedGraphError for
    a graph that is not connected. Fewer than ``n - 1`` edges cannot connect
    it, and are refused before anything of size ``n`` is built. ``u`` and
    ``v`` are lists of ints, ``weight`` an ``array('d')``.
    """
    if kernel is None and len(weight) < n - 1:
        raise _disconnected(n)
    g = object.__new__(WeaklyDynamicGraph)
    g.n = n
    g.unstable_ids = tuple(unstable_ids)
    # The columns. Only ``set_unstable_weight`` and ``apply_change`` write
    # them, and only ``_weight``, so copies share ``_u`` and ``_v``.
    g._u, g._v, g._weight = u, v, weight
    g._kernel = kernel if kernel is not None else _build_kernel(g)
    return g


def _disconnected(n: int) -> DisconnectedGraphError:
    return DisconnectedGraphError(f"graph on {n} vertices is not connected by its full edge set")


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
    if not (type(n) is int and n >= 1):
        raise Error(f"vertex count must be an int >= 1, got {n!r}")
    us: list[int] = []
    vs: list[int] = []
    weights: list[float] = []  # list.append is about 3x as fast as array.append
    unstable: list[int] = []
    for u, v, weight, kind in edge_specs:
        kind = _coerce_kind(kind)
        weight = _validate_edge(n, u, v, weight)
        if kind is EdgeKind.UNSTABLE:
            unstable.append(len(weights))
        us.append(u)
        vs.append(v)
        weights.append(weight)
    return _graph(n, us, vs, array("d", weights), unstable)


def _validate_edge(n: int, u: int, v: int, weight: float) -> float:
    if not (type(u) is int and type(v) is int):
        raise VertexOutOfRangeError(f"endpoints must be integers, got ({u!r}, {v!r})")
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRangeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    return _finite(weight, "weight of edge ({}, {})", u, v)


def _finite(value: float, what: str, *args) -> float:
    """``float(value)``; NonFiniteWeightError if no finite float holds it.

    The error names ``what.format(*args)``, formatted only when it is raised.
    """
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the largest float
        raise NonFiniteWeightError(f"{what.format(*args)} is past the float range") from None
    raise NonFiniteWeightError(f"{what.format(*args)} is not finite: {value!r}")


def is_connected(g: WeaklyDynamicGraph, excluded: frozenset[int] | set[int]) -> bool:
    """True iff the graph minus ``excluded`` edge ids spans all vertices."""
    for eid in excluded:
        g._check_edge(eid)
    kept = filterfalse(excluded.__contains__, range(g.num_edges))
    return len(_kruskal(kept, g._u, g._v, list(range(g.n)), g.n - 1)) == g.n - 1


def set_unstable_weight(
    g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> WeaklyDynamicGraph:
    """Replace the current value of an unstable edge, in place.

    Only that edge's weight changes; ids, endpoints and every other weight are
    untouched. Returns the same graph for convenience.
    """
    if not g._is_unstable(edge_id):
        raise NotUnstableError(f"edge {edge_id} is stable; its weight is immutable")
    g._weight[edge_id] = _finite(new_x, "new value for edge {}", edge_id)
    return g


def unstable_values(g: WeaklyDynamicGraph) -> dict[int, float]:
    """Current values of all unstable edges, keyed by edge id."""
    weight = g._weight
    return {eid: weight[eid] for eid in g.unstable_ids}
