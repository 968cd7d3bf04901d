"""Edge-constrained minimum spanning trees.

Two algorithms solve the same problem: find a minimum spanning tree that
contains every edge of a mandatory set and avoids every edge of a forbidden
set.

* :func:`constrained_mst_kruskal` seeds the forest with all mandatory edges,
  then scans the remaining non-forbidden edges in sorted order.
* :func:`constrained_mst_prim` handles the single-mandatory-edge case by
  starting the usual tree growth from both endpoints of the seed edge, with
  the seed edge already in the tree.

Both return an :class:`Infeasible` value (never raise) when no such tree
exists: either the mandatory set already contains a cycle, or removing the
forbidden set disconnects the graph. All functions are pure with respect to
the graph and safe to call concurrently on a shared snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, Sequence, Union

from .errors import InvalidConstraintsError
from .graph import WeaklyDynamicGraph, _exact_sum, _fsum, _kruskal


@dataclass(frozen=True)
class Constraints:
    """Disjoint mandatory and forbidden edge-id sets."""

    mandatory: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "mandatory", frozenset(self.mandatory))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))

    def validate(self, g: WeaklyDynamicGraph) -> None:
        for eid in self.mandatory | self.forbidden:
            g._check_edge(eid)
        overlap = self.mandatory & self.forbidden
        if overlap:
            raise InvalidConstraintsError(
                f"edges both mandatory and forbidden: {sorted(overlap)}"
            )


@dataclass(frozen=True, slots=True, eq=False)
class SpanningTree:
    """An edge-id set forming a spanning tree, with its stable weight cached.

    The ids are a shared ``_base`` plus a ``_part`` disjoint from it: for a
    tree of a graph's kernel, the kernel's forced edges plus at most k
    kernel edges; for any other tree, all its ids and no part. ``edge_ids``,
    their union, is built on first read and kept. Trees compare by ids,
    ``stable_sum`` and ``unstable_members`` and hash by ids, however they
    were built; two trees of one base compare only their parts.

    ``stable_sum`` is the correctly rounded sum of the stable member
    weights (``math.fsum``), so it does not depend on the order they are
    added in. The tree keeps their exact sum as a short tuple of floats,
    from which every total of the tree is one ``fsum``.
    ``unstable_members`` are the member edges whose weights may still move.

    A plan's other tree, one swap of a kernel tree, is made in O(1) by
    :func:`_swapped` and filled on the first read of any field. Two unfilled
    trees that trade the same edges of equal trees of one kernel are equal.
    """

    _base: frozenset[int]
    _part: frozenset[int]
    unstable_members: frozenset[int]
    # Floats whose exact sum is the exact sum of the stable member weights.
    _expansion: tuple[float, ...] = field(repr=False)
    stable_sum: float = field(init=False)
    _ids: frozenset[int] | None = field(init=False, default=None, repr=False)
    # (graph, tree, out, into) until an unfilled other tree is filled.
    _swap: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stable_sum", _fsum(self._expansion))

    def __getattr__(self, name):
        # Reached for a name no slot holds yet: every field of an unfilled tree.
        swap = object.__getattribute__(self, "_swap")
        if swap is None:
            raise AttributeError(name)
        g, tree, out, into = swap
        SpanningTree.__init__(self, *_kernel_fields(g, tree._part - {out} | {into}))
        return getattr(self, name)

    @property
    def edge_ids(self) -> frozenset[int]:
        if self._ids is None:
            object.__setattr__(self, "_ids", self._base | self._part if self._part else self._base)
        return self._ids

    def __eq__(self, other):
        if not isinstance(other, SpanningTree):
            return NotImplemented
        # A fill reads only the kernel (copies alone share one, and their
        # stable weights), the swap and the filled source tree's part: O(k).
        if self._swap is not None and other._swap is not None:
            (g, tree, *swap), (h, other_tree, *other_swap) = self._swap, other._swap
            if swap == other_swap and g.kernel() is h.kernel() and tree._part == other_tree._part:
                return True
        if self._base is other._base:  # O(k): the trees differ in their parts only
            same_ids = self._part == other._part
        else:
            same_ids = self.edge_ids == (other._base | other._part)
        return (
            self.stable_sum == other.stable_sum
            and self.unstable_members == other.unstable_members
            and same_ids
        )

    def __hash__(self):
        return hash(self.edge_ids)

    @classmethod
    def from_edge_ids(
        cls, g: WeaklyDynamicGraph, ids: Iterable[int]
    ) -> "SpanningTree":
        ids = frozenset(ids)
        if not {int}.issuperset(map(type, ids)):  # a bool is an int, but not an id
            for eid in ids:
                g._check_edge(eid)  # refuses the first id of no edge
        if ids:  # the int extremes raise UnknownEdgeError for any id out of range
            g._check_edge(min(ids))
            g._check_edge(max(ids))
        return _whole_tree(g, ids, g._weight)


def _kernel_fields(g: WeaklyDynamicGraph, part: frozenset[int]) -> tuple:
    """The fields of the tree of the kernel's forced edges plus the kernel edges ``part``."""
    kernel = g.kernel()
    unstable = part.intersection(g.unstable_ids)
    # The stable sum is the forced edges' exact sum plus the at most k
    # stable kernel weights: no pass over the tree's n - 1 edges.
    stable = kernel._forced_expansion + tuple(g._weight[f] for f in part - unstable)
    return kernel.forced, part, unstable, stable


def _swapped(g: WeaklyDynamicGraph, tree: SpanningTree, out: int, into: int) -> SpanningTree:
    """``tree``, a tree of ``g``'s kernel, with the edge ``out`` traded for ``into``; unfilled."""
    other = object.__new__(SpanningTree)
    object.__setattr__(other, "_swap", (g, tree, out, into))
    return other


def _whole_tree(g: WeaklyDynamicGraph, ids: frozenset, weight: Sequence[float]) -> SpanningTree:
    """The tree of ``g``'s edges ``ids``, checked already, with no part; ``weight`` is by id."""
    unstable = ids.intersection(g.unstable_ids)
    return SpanningTree(ids, frozenset(), unstable, _exact_sum([weight[f] for f in ids - unstable]))


MANDATORY_CYCLE = "mandatory-cycle"
FORBIDDEN_DISCONNECTS = "forbidden-disconnects"


@dataclass(frozen=True, slots=True)
class Infeasible:
    """No constrained spanning tree exists; ``reason`` says why."""

    reason: str


MstResult = Union[SpanningTree, Infeasible]


def constrained_mst_kruskal(
    g: WeaklyDynamicGraph,
    constraints: Constraints = Constraints(),
) -> MstResult:
    """Minimum spanning tree containing all mandatory, no forbidden edges.

    Unstable edges participate at their current weights. Ties are broken by
    edge id, so the result is deterministic.
    """
    constraints.validate(g)
    # A list: a sort key that boxes one float per id from the array is slower.
    u, v, weight = g._u, g._v, g._weight.tolist()
    parent = list(range(g.n))
    mandatory = sorted(constraints.mandatory)
    chosen = _kruskal(mandatory, u, v, parent, len(mandatory))
    if len(chosen) != len(mandatory):
        return Infeasible(MANDATORY_CYCLE)
    skip = constraints.mandatory | constraints.forbidden
    # A stable sort of ascending ids keeps equal weights in id order.
    order = sorted(filterfalse(skip.__contains__, range(len(weight))), key=weight.__getitem__)
    chosen += _kruskal(order, u, v, parent, g.n - 1 - len(chosen))
    if len(chosen) != g.n - 1:
        return Infeasible(FORBIDDEN_DISCONNECTS)
    # The weights are a list: no float is boxed per id.
    return _whole_tree(g, frozenset(chosen), weight)


def constrained_mst_prim(
    g: WeaklyDynamicGraph,
    seed_edge: int,
    forbidden: frozenset[int] | set[int] = frozenset(),
) -> MstResult:
    """Single-mandatory-edge variant: grow the tree from the seed edge.

    Starts with both endpoints of ``seed_edge`` in the visited set and the
    seed edge in the tree, then repeatedly adds the cheapest non-forbidden
    edge leaving the visited set.
    """
    g._check_edge(seed_edge)
    forbidden = frozenset(forbidden)
    for eid in forbidden:
        g._check_edge(eid)
    if seed_edge in forbidden:
        raise InvalidConstraintsError(f"seed edge {seed_edge} is forbidden")

    u, v, weight = g._u, g._v, g._weight
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in range(len(weight)):
        if eid in forbidden:
            continue
        adj[u[eid]].append((eid, v[eid]))
        adj[v[eid]].append((eid, u[eid]))

    in_tree = bytearray(g.n)
    in_tree[u[seed_edge]] = in_tree[v[seed_edge]] = 1
    chosen = [seed_edge]
    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush

    def add_frontier(vertex: int) -> None:
        for eid, other in adj[vertex]:
            if not in_tree[other]:
                push(heap, (weight[eid], eid, other))

    add_frontier(u[seed_edge])
    add_frontier(v[seed_edge])
    need = g.n - 1
    while heap and len(chosen) < need:
        _, eid, target = heapq.heappop(heap)
        if in_tree[target]:
            continue
        in_tree[target] = 1
        chosen.append(eid)
        add_frontier(target)

    if len(chosen) != need:
        return Infeasible(FORBIDDEN_DISCONNECTS)
    return SpanningTree.from_edge_ids(g, chosen)


def tree_total_weight(t: SpanningTree, g: WeaklyDynamicGraph) -> float:
    """Total of ``t`` at ``g``'s current values: one ``fsum`` of its exact stable
    sum and its unstable members' values, correctly rounded in any order."""
    return _fsum((*t._expansion, *[g._weight[eid] for eid in t.unstable_members]))
