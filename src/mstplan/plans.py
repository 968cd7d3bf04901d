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
the kernel's fixed stable edges plus a Kruskal over at most 2k kernel edges
between at most k + 1 super-vertices. A build is given a vector of unstable
values and reads them from it, never from the graph, which it neither
changes nor copies. It finds the minimum spanning tree at the vector with
one Kruskal, and every plan it builds holds that tree object: as ``mst_v``
for an edge in it, as ``mst_s`` for one outside. The other tree is one swap
of it (Tarjan, IPL 1982), found by one more Kruskal: over the kernel edges
but the plan's edge (none: the edge is a bridge), or over the edge and the
tree's kernel edges. A tree is the kernel's forced edges, which every tree
shares, plus its own at most k kernel edges, so it costs O(k).

With several unstable edges, one plan is kept per edge, each computed with
the *other* unstable edges frozen at the set's snapshot, stored once. Under
the one-change-at-a-time contract the plan for the changed edge is exact at
the moment of the change and after it, so a change keeps it and rebuilds the
others at the new vector, and one whose value did not move keeps all. They
all freeze one snapshot, so a rebuild touches no edge outside the kernel.

Plans and plan sets are immutable once built. Selection is read-only and may
run concurrently with a rebuild as long as the rebuilt plan set is published
atomically (single writer, many readers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .constrained import SpanningTree, _total_at
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
    _finite,
    set_unstable_weight,
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
    ``cv``: the threshold, the exact ``d_s - s_v``: the weight of the edge its
    two trees trade (+inf for a bridge). It stores no values: it is exact at
    its set's :attr:`PlanSet.snapshot`, or at :func:`precompute_plan`'s ``frozen``.
    """

    edge_id: int
    mst_s: SpanningTree | None
    d_s: float
    mst_v: SpanningTree
    s_v: float
    cv: float
    # The answer on the stable side, built once so selection only returns it;
    # None for a bridge, whose cv no finite x reaches.
    _stable: Selection | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mst_s is None and self.cv != math.inf:
            raise Error(f"edge {self.edge_id}: a plan without a stable tree needs cv = inf")
        stable = None if self.mst_s is None else Selection(_STABLE, self.d_s, self.mst_s)
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


def _kernel_order(g: WeaklyDynamicGraph, values: Mapping[int, float]) -> list[int]:
    """The kernel's edges in ``(weight, id)`` order, unstable ones at ``values``.

    It is the tie rule of every tree a plan holds, and of the graph's
    minimum spanning tree.
    """
    pairs = [(g._weight[eid], eid) for eid in g.kernel().stable]
    pairs += [(x, eid) for eid, x in values.items()]
    return [eid for _, eid in sorted(pairs)]


def _swap(g: WeaklyDynamicGraph, values: Mapping, mst_s, mst_v) -> tuple:
    """``(weight, id)`` at ``values`` of a plan's swap, in mst_s but not mst_v, or (inf, None)."""
    if mst_s is None:
        return math.inf, None
    shared = mst_s._base is mst_v._base  # then they differ in parts; a loop beats a set op
    other = mst_v._part if shared else mst_v.edge_ids
    for swap in mst_s._part if shared else mst_s.edge_ids:
        if swap not in other:
            return values.get(swap, g._weight[swap]), swap


def _kernel_tree(g: WeaklyDynamicGraph, part: list[int], known: dict) -> SpanningTree:
    """The kernel's forced edges plus ``part``; the tree in ``known``, by part, if there."""
    key = frozenset(part)
    tree = known.get(key)
    if tree is None:
        # The stable sum is the forced edges' exact sum plus the at most
        # k stable kernel weights: no pass over the tree's n - 1 edges.
        kernel = g.kernel()
        unstable = key.intersection(g.unstable_ids)
        stable = kernel._forced_expansion + tuple(g._weight[f] for f in key - unstable)
        tree = known[key] = SpanningTree(kernel.forced, key, unstable, stable)
    return tree


def _build_plans(
    g: WeaklyDynamicGraph, values: Mapping[int, float], edge_ids: Sequence[int], known: dict
) -> dict[int, EdgePlan]:
    """Plans for ``edge_ids`` at ``values``, a float per unstable id in ascending order.

    One Kruskal finds the minimum tree at ``values`` and its total; each
    plan's other tree is one more, which for an edge outside the tree drops
    the heaviest edge of the cycle the edge closes. ``g``'s own unstable
    weights are neither read nor changed. ``known`` maps kernel parts to
    trees of this graph's kernel; a tree whose part is there is reused, as
    its cached stable sum depends on no value, and each new tree is added.
    """
    kernel = g.kernel()
    order = _kernel_order(g, values)
    taken = kernel.spanning(order)
    tree = _kernel_tree(g, taken, known)
    total = _total_at(tree, values)
    plans = {}
    for eid in edge_ids:
        if eid in tree._part:
            avoiding = kernel.spanning([f for f in order if f != eid])
            mst_s = None if avoiding is None else _kernel_tree(g, avoiding, known)
            mst_v, d_s = tree, math.inf if mst_s is None else _total_at(mst_s, values)
        else:
            mst_s, d_s = tree, total
            mst_v = _kernel_tree(g, kernel.spanning([eid, *taken]), known)
        s_v = _total_at(mst_v, values, exclude=eid)
        cv = _swap(g, values, mst_s, mst_v)[0]  # the exact d_s - s_v
        plans[eid] = EdgePlan(eid, mst_s, d_s, mst_v, s_v, cv)
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
        values[eid] = _finite(value, f"frozen value for edge {eid}")
    return _build_plans(g, values, [edge_id], {})[edge_id]


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
    return PlanSet(_build_plans(g, values, g.unstable_ids, {}), values, g.kernel())


def apply_change(
    ps: PlanSet, g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> tuple[Selection, PlanSet]:
    """Answer a weight change instantly, then rebuild the plans it moved.

    The immediate answer comes from the existing plan for ``edge_id``, which
    is exact because every other unstable edge still holds its snapshot value;
    a plan set built at other values than the graph's, or on a graph other
    than ``g`` and its copies, is refused. That plan is kept, and the others,
    which froze the old value, are rebuilt from the graph's kernel at the
    new values, so the next change is answered just as fast; a value that
    did not move (``==``) keeps every plan. Only then is the new value set
    in the graph, its one change: misuse, such as a ``new_x`` that no finite
    float holds, and a rebuild that raises, such as one whose tree total
    overflows (``NonFiniteWeightError``), leave the graph as it was.
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
    new_x = _finite(new_x, f"new value for edge {edge_id}")
    immediate = select_tree(plan, new_x)
    values = {**current, edge_id: new_x}
    plans = dict(ps.plans)
    if new_x != current[edge_id] and len(g.unstable_ids) > 1:
        known = {t._part: t for p in plans.values() for t in (p.mst_s, p.mst_v) if t}
        plans.update(_build_plans(g, values, [e for e in g.unstable_ids if e != edge_id], known))
    set_unstable_weight(g, edge_id, new_x)
    return immediate, PlanSet(plans, values, g.kernel())

