"""Per-edge precomputation of alternative spanning trees and their threshold.

For one unstable edge the answer to "what is the minimum spanning tree right
now?" only ever has two shapes: the best tree that avoids the edge (its total
``d_s`` is a constant) and the best tree that contains it (its total is
``s_v + x`` where ``x`` is the current value and ``s_v`` the fixed rest).
The two trees differ by one swap, so the exact crossover ``d_s - s_v`` is
the weight of the edge the other tree trades, which the graph holds as a
float: that weight is the threshold ``cv``, exact. Both trees and the
threshold are computed once; after that, any new value of ``x`` is answered
by a single comparison with no graph work at all.

Both trees come from the graph's kernel (:class:`~mstplan.graph.Kernel`):
at any values, a minimum spanning tree under the ``(weight, id)`` order is
the kernel's fixed stable edges plus a tree of at most 2k kernel edges
between at most k + 1 super-vertices. A build reads the unstable values
from a vector it is given, never from the graph, which it neither changes
nor copies. Every plan it builds holds one tree object, the minimum
spanning tree at the vector, and its ``swap``, the edge its other tree
trades (Tarjan, "Sensitivity analysis of minimum spanning trees and
shortest path trees", IPL 1982); one pass over the kernel tree finds every
swap. The other tree, a ``SpanningTree`` too, is made in O(1) from that tree
and its swap, and each total is one ``fsum``.

With several unstable edges, one plan is kept per edge, each computed with
the *other* unstable edges frozen at the set's snapshot, stored once. Under
the one-change-at-a-time contract the plan for the changed edge is exact at
the moment of the change and after it, so a change keeps it, reads the new
minimum tree off it and rebuilds the others around that tree; one whose
value did not move keeps all. They all freeze one snapshot, so a rebuild
touches no edge outside the kernel.

Plans and plan sets are immutable once built; a lazy tree's one ``__init__``
publishes it whole with its last write. Selection may run during a rebuild
once the rebuilt set is published atomically (single writer, many readers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .constrained import SpanningTree, _kernel_fields, _swapped
from .errors import (
    Error,
    FrozenIncompleteError,
    NonFiniteWeightError,
    NotUnstableError,
    StalePlanSetError,
)
from .graph import (
    Kernel,
    WeaklyDynamicGraph,
    _exact_sum,
    _finite,
    _fsum,
    unstable_values,
)


class TreeKind(Enum):
    STABLE = "stable"
    VARIABLE = "variable"


@dataclass(frozen=True, slots=True)
class EdgePlan:
    """Precomputed alternatives for one unstable edge.

    ``mst_s``/``d_s``: best tree avoiding the edge and its (constant) total;
    ``mst_s`` is None and ``d_s`` is +inf when the edge is a bridge.
    ``mst_v``/``s_v``: best tree containing the edge and the fixed part of its
    total, so the full total is ``s_v + x``.
    ``cv``: the threshold, the exact ``d_s - s_v``: the weight of ``swap``,
    the one edge ``mst_s`` holds and ``mst_v`` does not (+inf and None for a
    bridge). One tree is the one its set's plans share. It stores no values:
    it is exact at its set's :attr:`PlanSet.snapshot`, or at
    :func:`precompute_plan`'s ``frozen``.
    """

    edge_id: int
    mst_s: SpanningTree | None
    d_s: float
    mst_v: SpanningTree
    s_v: float
    cv: float
    swap: int | None
    # The answer on the stable side, built once so selection only returns it;
    # None for a bridge, whose cv no finite x reaches.
    _stable: Selection | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mst_s is None and self.cv != math.inf:
            raise Error(f"edge {self.edge_id}: a plan without a stable tree needs cv = inf")
        stable = None
        if self.mst_s is not None:  # as select_tree builds its answers
            stable = _new_tuple(Selection, (_STABLE, self.d_s, self.mst_s))
        object.__setattr__(self, "_stable", stable)


@dataclass(frozen=True, slots=True)
class PlanSet:
    """One plan per unstable edge and the values, stored once, all are exact at.

    Neither of a plan's totals reads its own edge's value, so the plan that
    ``apply_change`` keeps is exact at the new ``snapshot`` too.
    """

    plans: Mapping[int, EdgePlan]
    snapshot: Mapping[int, float]
    # The kernel of the graph the plans were built from. Only that graph and
    # its copies share it, so ``apply_change`` refuses a plan set whose
    # kernel is another graph's.
    _kernel: Kernel | None = field(default=None, repr=False, compare=False)


class Selection(NamedTuple):
    chosen: TreeKind
    total_weight: float
    tree: SpanningTree


# Selection runs on every weight change; keep its globals one load away.
_VARIABLE = TreeKind.VARIABLE
_STABLE = TreeKind.STABLE
# NamedTuple's generated __new__ runs in Python; this builds the same tuple.
_new_tuple = tuple.__new__


def _build_plans(
    g: WeaklyDynamicGraph,
    values: Mapping[int, float],
    tree: SpanningTree | None,
    edge_ids: Sequence[int],
) -> dict[int, EdgePlan]:
    """Plans for ``edge_ids`` at ``values``, a float per unstable id in ascending order.

    ``tree`` is the ``(weight, id)`` minimum spanning tree at ``values``, a
    tree of this graph's kernel, or None to find it with one Kruskal. Every
    plan holds it. One pass finds each plan's swap (Tarjan, IPL 1982): each
    kernel edge outside the tree, in ``(weight, id)`` order, walks the tree
    path between its ends. It is the swap of each edge on the path that no
    lighter edge walked, and the path's heaviest edge is its own swap.
    ``g``'s own unstable weights are neither read nor changed.
    """
    kernel = g.kernel()
    ends_u, ends_v = kernel._u, kernel._v
    weight = {f: g._weight[f] for f in kernel.stable}
    weight.update(values)
    order = [f for _, f in sorted([(w, f) for f, w in weight.items()])]
    if tree is None:
        tree = SpanningTree(*_kernel_fields(g, frozenset(kernel.spanning(order))))
    part = tree._part  # fills a swapped tree, which then refers to no other plan set's tree

    # Root the kernel tree at super-vertex 0: each other super-vertex's
    # depth, its parent, and the tree edge to it.
    supers = kernel.supers
    near: list[list[int]] = [[] for _ in range(supers)]
    for f in part:
        near[ends_u[f]].append(f)
        near[ends_v[f]].append(f)
    up, parent, depth, stack = [-1] * supers, [0] * supers, [0] * supers, [0]
    while stack:
        a = stack.pop()
        for f in near[a]:
            if f != up[a]:
                b = ends_v[f] if ends_u[f] == a else ends_u[f]
                up[b], parent[b], depth[b] = f, a, depth[a] + 1
                stack.append(b)
    rank = {f: i for i, f in enumerate(order)}
    swap: dict[int, int] = {}
    for f in order:
        if f in part:
            continue
        a, b, top = ends_u[f], ends_v[f], -1
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            t = up[a]
            if rank[t] > top:
                top = rank[t]
            swap.setdefault(t, f)
            a = parent[a]
        swap[f] = order[top]

    # The tree's exact total at ``values``, summed in tree_total_weight's order,
    # so it raises where that does. Each total below adds at most two weights
    # to it, and its every partial sum is a total of the tree or of a plan's.
    exact = _exact_sum([*tree._expansion, *(values[f] for f in tree.unstable_members)])
    total = _fsum(exact)
    plans = {}
    for eid in edge_ids:
        f = swap.get(eid)
        cv = math.inf if f is None else weight[f]
        if eid not in part:
            mst_s, d_s, mst_v, s_v = tree, total, _swapped(g, tree, f, eid), _fsum((*exact, -cv))
        elif f is None:  # a bridge
            mst_s, d_s, mst_v, s_v = None, math.inf, tree, _fsum((*exact, -values[eid]))
        else:
            x = values[eid]
            s_v = _fsum((*exact, -x))
            mst_s, d_s, mst_v = _swapped(g, tree, eid, f), _fsum((*exact, -x, cv)), tree
        plans[eid] = EdgePlan(eid, mst_s, d_s, mst_v, s_v, cv, f)
    return plans


def precompute_plan(
    g: WeaklyDynamicGraph, edge_id: int, frozen: Mapping[int, float]
) -> EdgePlan:
    """Build the two alternative trees and the threshold for one unstable edge.

    ``frozen`` must map every *other* unstable edge id to the value it is
    pinned at for this computation (empty when the edge is the only unstable
    one). The plan is built at those values plus the edge's current one;
    the graph is neither changed nor copied.
    """
    if not g._is_unstable(edge_id):
        raise NotUnstableError(f"edge {edge_id} is stable; plans cover unstable edges")
    expected = set(g.unstable_ids) - {edge_id}
    if set(frozen) != expected:
        raise FrozenIncompleteError(
            f"frozen values must cover exactly edges {sorted(expected)}, "
            f"got {sorted(frozen)}"
        )
    values = {eid: g._weight[eid] for eid in g.unstable_ids}
    for eid, value in frozen.items():
        values[eid] = _finite(value, "frozen value for edge {}", eid)
    return _build_plans(g, values, None, [edge_id])[edge_id]


def select_tree(plan: EdgePlan, x: float) -> Selection:
    """Pick the best precomputed tree for value ``x``. Constant time.

    Below the threshold the variable tree wins with total ``s_v + x``; at or
    above it the stable tree wins with total ``d_s``. ``cv`` is the exact
    crossover, so the tree chosen is a minimum one at ``x``, a tie going to
    the stable tree. ``d_s`` and ``s_v`` are correctly rounded sums of their
    trees' weights, whatever the order of the edges; ``s_v + x`` is one more
    rounding. Where the total is ``s_v + x``, an int past the float range
    and a finite ``x`` whose total overflows to an infinity raise
    ``NonFiniteWeightError``.
    """
    # Each branch checks one number for finiteness: the variable branch its
    # total, which also fails for -inf and for a finite x whose total
    # overflows, and the stable branch x; NaN and +inf take the stable one.
    if x < plan.cv:
        try:
            total = plan.s_v + x
        except OverflowError:  # an int past the largest float
            raise NonFiniteWeightError("query value is past the float range") from None
        if total - total == 0.0:  # 0.0 only for a finite total
            return _new_tuple(Selection, (_VARIABLE, total, plan.mst_v))
        if x - x == 0.0:
            raise NonFiniteWeightError(
                f"edge {plan.edge_id}: the variable tree's total s_v + x overflows the float range"
            )
    if x - x != 0.0:  # 0.0 only for finite x; NaN and both infinities fail
        raise NonFiniteWeightError(f"query value must be finite, got {x!r}")
    return plan._stable


def precompute_all(g: WeaklyDynamicGraph) -> PlanSet:
    """One plan per unstable edge: the kernel's minimum tree and one swap of it per edge."""
    values = unstable_values(g)
    return PlanSet(_build_plans(g, values, None, g.unstable_ids), values, g.kernel())


def apply_change(
    ps: PlanSet, g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> tuple[Selection, PlanSet]:
    """Answer a weight change instantly, then rebuild the plans it moved.

    The immediate answer comes from the existing plan for ``edge_id``, which
    is exact because every other unstable edge still holds its snapshot value;
    a plan set built at other values than the graph's, or on a graph other
    than ``g`` and its copies, is refused. That plan is kept, and the others,
    which froze the old value, are rebuilt at the new values around the new
    minimum tree, which that plan holds, so the next change is answered just
    as fast; a value that did not move (``==``) keeps every plan. Only then
    is the new value set in the graph, its one change: misuse, such as a
    ``new_x`` that no finite float holds, and a rebuild that raises, such as
    one whose tree total overflows (``NonFiniteWeightError``), leave the
    graph as it was.
    """
    if not g._is_unstable(edge_id):
        raise NotUnstableError(f"edge {edge_id} is stable; it cannot change")
    try:
        plan = ps.plans[edge_id]
    except KeyError:
        raise Error(f"plan set has no plan for edge {edge_id}") from None
    current = unstable_values(g)
    if dict(ps.snapshot) != current:
        raise StalePlanSetError(
            "plan set was built at other unstable values than the graph holds; "
            "rebuild it with precompute_all"
        )
    if ps._kernel is not g.kernel():
        raise StalePlanSetError(
            "plan set was not built on this graph or a copy of it; "
            "rebuild it with precompute_all"
        )
    new_x = _finite(new_x, "new value for edge {}", edge_id)
    immediate = select_tree(plan, new_x)
    values = {**current, edge_id: new_x}
    plans = dict(ps.plans)
    if new_x != current[edge_id] and len(plans) > 1:
        tree = _minimum_tree(plan, new_x, g._weight)
        plans.update(_build_plans(g, values, tree, [e for e in g.unstable_ids if e != edge_id]))
    g._weight[edge_id] = new_x
    return immediate, PlanSet(plans, values, g.kernel())


def _minimum_tree(plan: EdgePlan, x: float, weight: Sequence[float]) -> SpanningTree:
    """The minimum tree when ``plan``'s edge holds ``x`` and its swap ``weight[plan.swap]``.

    The plan's trees are the best with and without the edge, at any value of it: the
    (weight, id) Kruskal takes the edge before its swap exactly when it ranks first.
    """
    swap = plan.swap
    return plan.mst_v if swap is None or (x, plan.edge_id) < (weight[swap], swap) else plan.mst_s

