"""Per-edge precomputation of alternative spanning trees and their threshold.

For one unstable edge the answer to "what is the minimum spanning tree right
now?" only ever has two shapes: the best tree that avoids the edge (its total
``d_s`` is a constant) and the best tree that contains it (its total is
``s_v + x`` where ``s_v`` is the fixed part and ``x`` the current value).
The crossover sits at ``cv = d_s - s_v``. Both trees and the threshold are
computed once; after that, any new value of ``x`` is answered by a single
comparison with no graph work at all.

Both trees come from the graph's minimum spanning tree (ties broken by edge
id, so it is unique). If the edge is in it, that tree is ``mst_v`` and
``mst_s`` swaps the edge for its lightest replacement; otherwise that tree is
``mst_s`` and ``mst_v`` swaps the edge in for the heaviest edge on the cycle
it closes. Each swap is one constrained Kruskal.

With several unstable edges, one plan is kept per edge, each computed with
the *other* unstable edges frozen at their snapshot values. Under the
one-change-at-a-time contract the plan for the changed edge is exact at the
moment of the change; all plans are then rebuilt so the next change is exact
too. They all freeze one snapshot, so a rebuild is one minimum spanning tree.

Plans and plan sets are immutable once built. Selection is read-only and may
run concurrently with a rebuild as long as the rebuilt plan set is published
atomically (single writer, many readers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .constrained import (
    Constraints,
    Infeasible,
    SpanningTree,
    constrained_mst_kruskal,
    tree_total_weight,
)
from .errors import (
    Error,
    FrozenIncompleteError,
    NonFiniteWeightError,
    NotUnstableError,
    StablePlanMissingError,
)
from .graph import (
    EdgeKind,
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


@dataclass(frozen=True, slots=True)
class PlanSet:
    """One plan per unstable edge plus the value snapshot they were built at."""

    plans: Mapping[int, EdgePlan]
    snapshot: Mapping[int, float]


class Selection(NamedTuple):
    chosen: TreeKind
    total_weight: float
    tree: SpanningTree


# Selection runs on every weight change; keep its globals one load away.
_VARIABLE = TreeKind.VARIABLE
_STABLE = TreeKind.STABLE


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


def _swap_plan(
    g: WeaklyDynamicGraph, mst: SpanningTree, edge_id: int, frozen: Mapping[int, float]
) -> EdgePlan:
    """Plan for ``edge_id``: ``mst``, the minimum spanning tree of ``g``, is
    one of its trees, and one edge swap gives the other."""
    if edge_id in mst.edge_ids:
        mst_v = mst
        avoiding = constrained_mst_kruskal(
            g, Constraints(mandatory=mst.edge_ids - {edge_id}, forbidden={edge_id})
        )
        mst_s = None if isinstance(avoiding, Infeasible) else avoiding  # bridge
    else:
        mst_s = mst
        outside = set(range(g.num_edges)) - mst.edge_ids - {edge_id}
        mst_v = constrained_mst_kruskal(
            g, Constraints(mandatory={edge_id}, forbidden=outside)
        )
    d_s = math.inf if mst_s is None else tree_total_weight(mst_s, g)
    s_v = tree_total_weight(mst_v, g, exclude=edge_id)
    return EdgePlan(
        edge_id=edge_id,
        mst_s=mst_s,
        d_s=d_s,
        mst_v=mst_v,
        s_v=s_v,
        cv=d_s - s_v,
        frozen_others=dict(frozen),
    )


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
    return _swap_plan(view, constrained_mst_kruskal(view), edge_id, frozen)


def select_tree(plan: EdgePlan, x: float) -> Selection:
    """Pick the best precomputed tree for value ``x``. Constant time.

    Below the threshold the variable tree wins with total ``s_v + x``; at or
    above it the stable tree wins with total ``d_s``.
    """
    if x - x != 0.0:  # 0.0 only for finite x; NaN and both infinities fail
        raise NonFiniteWeightError(f"query value must be finite, got {x!r}")
    if x < plan.cv:
        return Selection(_VARIABLE, plan.s_v + x, plan.mst_v)
    if plan.mst_s is None:
        raise StablePlanMissingError(
            f"plan for edge {plan.edge_id} has no stable tree yet x >= cv"
        )
    return Selection(_STABLE, plan.d_s, plan.mst_s)


def precompute_all(g: WeaklyDynamicGraph) -> PlanSet:
    """One plan per unstable edge: one minimum spanning tree, then one swap each."""
    snapshot = unstable_values(g)
    mst = constrained_mst_kruskal(g)
    plans = {}
    for eid in g.unstable_ids:
        frozen = {k: v for k, v in snapshot.items() if k != eid}
        plans[eid] = _swap_plan(g, mst, eid, frozen)
    return PlanSet(plans=plans, snapshot=snapshot)


def apply_change(
    ps: PlanSet, g: WeaklyDynamicGraph, edge_id: int, new_x: float
) -> tuple[Selection, PlanSet]:
    """Answer a weight change instantly, then rebuild all plans.

    The immediate answer comes from the existing plan for ``edge_id``, which
    is exact because every other unstable edge still holds its snapshot value.
    The graph is then mutated and all plans rebuilt (one minimum spanning tree
    plus one swap per unstable edge) so the next change is answered just as
    fast. The selection refuses a non-finite ``new_x`` before any mutation.
    """
    e = g.edge(edge_id)
    if e.kind is not EdgeKind.UNSTABLE:
        raise NotUnstableError(f"edge {edge_id} is stable; it cannot change")
    try:
        plan = ps.plans[edge_id]
    except KeyError:
        raise Error(f"plan set has no plan for edge {edge_id}") from None
    immediate = select_tree(plan, new_x)
    set_unstable_weight(g, edge_id, new_x)
    return immediate, precompute_all(g)


@dataclass(frozen=True, slots=True)
class PiecewiseWeight:
    """Closed form of a plan's best-tree total as a function of ``x``.

    A slope-one line ``intercept + x`` left of the breakpoint, a constant
    ``plateau`` at and right of it. Evaluates to ``min(plateau, intercept + x)``
    everywhere.
    """

    intercept: float
    plateau: float
    breakpoint: float

    def __call__(self, x: float) -> float:
        if x < self.breakpoint:
            return self.intercept + x
        return self.plateau


def weight_function(plan: EdgePlan) -> PiecewiseWeight:
    """Piecewise description of ``min(d_s, s_v + x)`` for the plan."""
    return PiecewiseWeight(intercept=plan.s_v, plateau=plan.d_s, breakpoint=plan.cv)
