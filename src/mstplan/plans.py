"""Per-edge precomputation of alternative spanning trees and their threshold.

For one unstable edge the answer to "what is the minimum spanning tree right
now?" only ever has two shapes: the best tree that avoids the edge (its total
``d_s`` is a constant) and the best tree that contains it (its total is
``s_v + x`` where ``x`` is the current value and ``s_v`` the fixed rest).
The crossover sits at ``cv = d_s - s_v``. Both trees and the threshold are
computed once; after that, any new value of ``x`` is answered by a single
comparison with no graph work at all.

Both trees come from the graph's kernel (:class:`~mstplan.graph.Kernel`):
at any values, a minimum spanning tree under the ``(weight, id)`` order is
the kernel's fixed stable edges plus a Kruskal over at most 2k kernel edges
between at most k + 1 super-vertices. A build sorts those edges once at the
current values; ``mst_s`` is their Kruskal without the edge (no tree: the
edge is a bridge) and ``mst_v`` their Kruskal with the edge taken first.
One of the two is the graph's minimum spanning tree, and every plan of a
build shares that tree object.

With several unstable edges, one plan is kept per edge, each computed with
the *other* unstable edges frozen at their snapshot values. Under the
one-change-at-a-time contract the plan for the changed edge is exact at the
moment of the change; all plans are then rebuilt so the next change is exact
too. They all freeze one snapshot, so a rebuild touches no edge outside the
kernel.

Plans and plan sets are immutable once built. Selection is read-only and may
run concurrently with a rebuild as long as the rebuilt plan set is published
atomically (single writer, many readers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .constrained import SpanningTree, tree_total_weight
from .errors import (
    Error,
    FrozenIncompleteError,
    NonFiniteWeightError,
    NotUnstableError,
    StablePlanMissingError,
    StalePlanSetError,
)
from .graph import (
    EdgeKind,
    Kernel,
    WeaklyDynamicGraph,
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
    ``cv``: the threshold ``d_s - s_v``.
    ``frozen_others``: the values every other unstable edge was pinned to
    while this plan was computed; staleness is detectable by comparing them
    with the graph's current values.
    """

    edge_id: int
    mst_s: SpanningTree | None
    d_s: float
    mst_v: SpanningTree
    s_v: float
    cv: float
    frozen_others: Mapping[int, float]
    # The answer on the stable side, built once so selection only returns it.
    _stable: Selection | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stable = None if self.mst_s is None else Selection(_STABLE, self.d_s, self.mst_s)
        object.__setattr__(self, "_stable", stable)


@dataclass(frozen=True, slots=True)
class PlanSet:
    """One plan per unstable edge plus the value snapshot they were built at."""

    plans: Mapping[int, EdgePlan]
    snapshot: Mapping[int, float]
    # The kernel of the graph the plans were built from. Only that graph and
    # its copies share it, so ``apply_change`` refuses a plan set whose
    # kernel is another graph's. A loaded plan set has none: the file's
    # fingerprint already bound it to its graph, and its first change
    # rebuilds every plan rather than keep one.
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


def _frozen_view(
    g: WeaklyDynamicGraph, edge_id: int, frozen: Mapping[int, float]
) -> WeaklyDynamicGraph:
    """Graph with the other unstable edges pinned at their frozen values."""
    expected = set(g.unstable_ids) - {edge_id}
    if set(frozen) != expected:
        raise FrozenIncompleteError(
            f"frozen values must cover exactly edges {sorted(expected)}, "
            f"got {sorted(frozen)}"
        )
    if not frozen:
        return g
    view = g.copy()
    for eid, value in frozen.items():
        set_unstable_weight(view, eid, value)
    return view


def _build_plans(
    g: WeaklyDynamicGraph, edge_ids: Iterable[int], previous: Mapping[int, EdgePlan]
) -> dict[int, EdgePlan]:
    """Plans for ``edge_ids`` with every other unstable edge at its current value.

    A plan is a function of the values it froze, so a ``previous`` plan that
    froze the same ones is kept as it is; a tree whose edge set comes up
    again is kept too, as its cached stable sum depends on no value.
    ``previous`` must come from this graph's kernel.
    """
    values = unstable_values(g)
    frozen = {eid: {k: v for k, v in values.items() if k != eid} for eid in edge_ids}
    kept = {
        eid: previous[eid]
        for eid, others in frozen.items()
        if eid in previous and previous[eid].frozen_others == others
    }
    if len(kept) == len(frozen):
        return kept
    kernel = g.kernel()
    # Every tree is ``kernel.forced`` plus kernel edges; key trees by the latter.
    known = {
        t.edge_ids.intersection(kernel.ends): t
        for p in previous.values()
        for t in (p.mst_s, p.mst_v)
        if t is not None
    }

    def tree_of(part: list[int]) -> SpanningTree:
        key = frozenset(part)
        if key not in known:
            known[key] = SpanningTree.from_edge_ids(g, kernel.forced | key)
        return known[key]

    edges = g.edges
    order = sorted(kernel.ends, key=lambda eid: (edges[eid].weight, eid))
    plans = {}
    for eid, others in frozen.items():
        if eid in kept:
            plans[eid] = kept[eid]
            continue
        rest = [f for f in order if f != eid]
        avoiding = kernel.spanning(rest)
        mst_s = None if avoiding is None else tree_of(avoiding)
        mst_v = tree_of(kernel.spanning([eid, *rest]))
        d_s = math.inf if mst_s is None else tree_total_weight(mst_s, g)
        s_v = tree_total_weight(mst_v, g, exclude=eid)
        plans[eid] = EdgePlan(
            edge_id=eid,
            mst_s=mst_s,
            d_s=d_s,
            mst_v=mst_v,
            s_v=s_v,
            cv=d_s - s_v,
            frozen_others=others,
        )
    return plans


def precompute_plan(
    g: WeaklyDynamicGraph, edge_id: int, frozen: Mapping[int, float]
) -> EdgePlan:
    """Build the two alternative trees and the threshold for one unstable edge.

    ``frozen`` must map every *other* unstable edge id to the value it is
    pinned at for this computation (empty when the edge is the only unstable
    one).
    """
    e = g.edge(edge_id)
    if e.kind is not EdgeKind.UNSTABLE:
        raise NotUnstableError(f"edge {edge_id} is stable; plans cover unstable edges")
    view = _frozen_view(g, edge_id, frozen)
    return _build_plans(view, [edge_id], {})[edge_id]


def select_tree(plan: EdgePlan, x: float) -> Selection:
    """Pick the best precomputed tree for value ``x``. Constant time.

    Below the threshold the variable tree wins with total ``s_v + x``; at or
    above it the stable tree wins with total ``d_s``.
    """
    if x - x != 0.0:  # 0.0 only for finite x; NaN and both infinities fail
        raise NonFiniteWeightError(f"query value must be finite, got {x!r}")
    if x < plan.cv:
        return _new_tuple(Selection, (_VARIABLE, plan.s_v + x, plan.mst_v))
    stable = plan._stable
    if stable is None:
        raise StablePlanMissingError(
            f"plan for edge {plan.edge_id} has no stable tree yet x >= cv"
        )
    return stable


def precompute_all(g: WeaklyDynamicGraph) -> PlanSet:
    """One plan per unstable edge, each tree one Kruskal over the graph's kernel."""
    plans = _build_plans(g, g.unstable_ids, {})
    return PlanSet(plans, unstable_values(g), g.kernel())


def apply_change(
    ps: PlanSet, g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> tuple[Selection, PlanSet]:
    """Answer a weight change instantly, then rebuild all plans.

    The immediate answer comes from the existing plan for ``edge_id``, which
    is exact because every other unstable edge still holds its snapshot value;
    a plan set built at other values than the graph's, or on a graph other
    than ``g`` and its copies, is refused. The graph is then mutated and the
    plans rebuilt from the graph's kernel, keeping the plans and trees that
    did not move, so the next change is answered just as fast. Misuse, such
    as a non-finite ``new_x``, is refused before any mutation, and a rebuild
    that raises puts the old value back.
    """
    e = g.edge(edge_id)
    if e.kind is not EdgeKind.UNSTABLE:
        raise NotUnstableError(f"edge {edge_id} is stable; it cannot change")
    try:
        plan = ps.plans[edge_id]
    except KeyError:
        raise Error(f"plan set has no plan for edge {edge_id}") from None
    if dict(ps.snapshot) != unstable_values(g):
        raise StalePlanSetError(
            "plan set was built at other unstable values than the graph holds; "
            "rebuild it with precompute_all"
        )
    if ps._kernel is not None and ps._kernel is not g.kernel():
        raise StalePlanSetError(
            "plan set was built on another graph; rebuild it with precompute_all"
        )
    immediate = select_tree(plan, new_x)
    previous = ps.plans if ps._kernel is not None else {}
    set_unstable_weight(g, edge_id, new_x)
    try:
        plans = _build_plans(g, g.unstable_ids, previous)
    except BaseException:
        set_unstable_weight(g, edge_id, e.weight)
        raise
    return immediate, PlanSet(plans, unstable_values(g), g.kernel())

