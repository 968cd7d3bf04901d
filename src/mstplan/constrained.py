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
the graph and, like a tree's reads, safe to run at once on a shared snapshot.
"""

from __future__ import annotations

import heapq
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Sequence, Union

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
    kernel edges; for any other tree, all its ids and no part. ``edge_ids``
    is their union as a read-only ``collections.abc.Set[int]``: the base
    itself when there is no part, else a view of the two that copies
    neither; ``frozenset(tree.edge_ids)`` gives frozenset methods such as
    ``union``. Trees compare by ids, ``stable_sum`` and ``unstable_members``
    and hash by ids, however they were built; two trees of one base compare
    only their parts.

    ``stable_sum`` is the correctly rounded sum of the stable member
    weights (``math.fsum``), so it does not depend on the order they are
    added in. The tree keeps their exact sum as a short tuple of floats,
    from which every total of the tree is one ``fsum``.
    ``unstable_members`` are the member edges whose weights may still move.

    A plan's other tree, one swap of a kernel tree, is made in O(1) by
    :func:`_swapped`, copied unfilled, and filled by one ``__init__`` on the
    first read of any field, which threads may make at once. Two unfilled
    trees that trade the same edges of equal trees of one kernel are equal.
    """

    _base: frozenset[int]
    _part: frozenset[int]
    unstable_members: frozenset[int]
    # Floats whose exact sum is the exact sum of the stable member weights.
    _expansion: tuple[float, ...] = field(repr=False)
    stable_sum: float
    # (graph, tree, out, into) until a plan's other tree is filled. It is the last
    # field, so a fill's one __init__ sets it None last: then every field is set.
    _swap: tuple | None = field(init=False, default=None, repr=False)

    def __getattr__(self, name):
        # Reached for a name no slot held: a field of an unfilled tree, or one a fill set since.
        swap = object.__getattribute__(self, "_swap")
        if swap is None or name[:2] == "__":  # a dunder probe, as deepcopy's, fills nothing
            return object.__getattribute__(self, name)
        g, tree, out, into = swap
        SpanningTree.__init__(self, *_kernel_fields(g, tree._part - {out} | {into}))
        return getattr(self, name)

    def __reduce_ex__(self, protocol):  # an unfilled tree is copied unfilled, as its swap
        return (_swapped, swap) if (swap := self._swap) else object.__reduce_ex__(self, protocol)

    @property
    def edge_ids(self) -> Set[int]:
        part = self._part  # read first: a fill sets _base before it
        return _EdgeIds(self._base, part) if part else self._base

    def __eq__(self, other):
        if not isinstance(other, SpanningTree):
            return NotImplemented
        # A fill reads only the kernel (copies alone share one, and their
        # stable weights), the swap and the filled source tree's part: O(k).
        if (mine := self._swap) is not None and (theirs := other._swap) is not None:  # read once
            (g, tree, *swap), (h, other_tree, *other_swap) = mine, theirs
            if swap == other_swap and g.kernel() is h.kernel() and tree._part == other_tree._part:
                return True
        if self._base is other._base:  # O(k): the trees differ in their parts only
            same_ids = self._part == other._part
        else:
            same_ids = self.edge_ids == other.edge_ids
        return (
            self.stable_sum == other.stable_sum
            and self.unstable_members == other.unstable_members
            and same_ids
        )

    def __hash__(self):
        return hash(self.edge_ids)


class _EdgeIds(Set):
    """The ids of two disjoint frozensets, ``base`` and ``part``, read in place.

    It equals and hashes as the frozenset of the same ids. An operator's
    result, a pickle and a copy are frozensets.
    """

    __slots__ = ("_base", "_part")

    def __init__(self, base: frozenset[int], part: frozenset[int]):
        self._base, self._part = base, part

    def __contains__(self, eid) -> bool:
        return eid in self._part or eid in self._base

    def __iter__(self):
        return chain(self._base, self._part)

    def __len__(self) -> int:
        return len(self._base) + len(self._part)

    @classmethod
    def _from_iterable(cls, ids) -> frozenset[int]:
        return frozenset(ids)

    def __eq__(self, other):
        if type(other) is _EdgeIds and other._base is self._base:  # O(k): compare the parts
            return self._part == other._part
        return Set.__eq__(self, other)

    def __hash__(self):
        return hash(frozenset(self))

    def __reduce__(self):
        return frozenset, (tuple(self),)

    def __repr__(self):
        return f"_EdgeIds({sorted(self)})"


def _kernel_fields(g: WeaklyDynamicGraph, part: frozenset[int]) -> tuple:
    """The fields of the tree of the kernel's forced edges plus the kernel edges ``part``."""
    kernel = g.kernel()
    unstable = part.intersection(g.unstable_ids)
    # The stable sum is the forced edges' exact sum plus the at most k
    # stable kernel weights: no pass over the tree's n - 1 edges.
    stable = kernel._forced_expansion + tuple(g._weight[f] for f in part - unstable)
    return kernel.forced, part, unstable, stable, _fsum(stable)


def _swapped(g: WeaklyDynamicGraph, tree: SpanningTree, out: int, into: int) -> SpanningTree:
    """``tree``, a tree of ``g``'s kernel, with the edge ``out`` traded for ``into``; unfilled."""
    other = object.__new__(SpanningTree)
    object.__setattr__(other, "_swap", (g, tree, out, into))
    return other


def _whole_tree(g: WeaklyDynamicGraph, ids: frozenset, weight: Sequence[float]) -> SpanningTree:
    """The tree of ``g``'s edges ``ids``, a spanning tree, with no part; ``weight`` is by id."""
    unstable = ids.intersection(g.unstable_ids)
    stable = _exact_sum([weight[f] for f in ids - unstable])
    return SpanningTree(ids, frozenset(), unstable, stable, _fsum(stable))


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
    return _whole_tree(g, frozenset(chosen), weight)


def tree_total_weight(t: SpanningTree, g: WeaklyDynamicGraph) -> float:
    """Total of ``t`` at ``g``'s current values: one ``fsum`` of its exact stable
    sum and its unstable members' values, correctly rounded in any order."""
    return _fsum((*t._expansion, *[g._weight[eid] for eid in t.unstable_members]))
