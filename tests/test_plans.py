"""Per-edge plans: precomputation, constant-time selection, change handling."""

import copy
import dataclasses
import math
import operator
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from collections.abc import Mapping
from fractions import Fraction

import pytest
from helpers import (
    M3_TEXT,
    _exact_total,
    bridge_graph,
    edges,
    plan_sets_equal,
    random_graph,
    random_pairs,
    reference_plans,
    reference_tree,
)

import mstplan.constrained as constrained_module
import mstplan.plans as plans_module
from mstplan import (
    Constraints,
    DisconnectedGraphError,
    EdgePlan,
    Error,
    FrozenIncompleteError,
    Infeasible,
    NonFiniteWeightError,
    NotUnstableError,
    PlanFormatError,
    PlanSet,
    SpanningTree,
    StalePlanSetError,
    TreeKind,
    UnknownEdgeError,
    WeaklyDynamicGraph,
    apply_change,
    brute_critical_value,
    build_graph,
    catalog_total,
    constrained_mst_kruskal,
    constrained_mst_prim,
    enumerate_spanning_trees,
    format_graph,
    generate_graph,
    parse_graph,
    plans_from_json,
    plans_to_json,
    precompute_all,
    precompute_plan,
    read_plans,
    select_tree,
    set_unstable_weight,
    tree_total_weight,
    unstable_values,
    write_plans,
)
from mstplan.graph import Kernel


def test_fixture_plan_values(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    assert (plan.d_s, plan.s_v, plan.cv) == (40.0, 32.0, 8.0)
    assert plan.mst_s.edge_ids == {0, 1, 2, 3, 4}
    assert plan.mst_v.edge_ids == {0, 1, 3, 4, 5}


def test_triangle_plan_values(triangle):
    plan = precompute_plan(triangle, 2, {})
    assert (plan.d_s, plan.s_v, plan.cv) == (3.0, 1.0, 2.0)
    assert plan.mst_s.edge_ids == {0, 1}
    assert plan.mst_v.edge_ids == {0, 2}


def test_bridge_plan_has_no_stable_tree():
    g = build_graph(2, [(0, 1, 5, "unstable")])
    plan = precompute_plan(g, 0, {})
    assert plan.mst_s is None
    assert plan.d_s == math.inf
    assert plan.cv == math.inf
    assert plan.mst_v.edge_ids == {0}
    assert plan.s_v == 0.0


def test_selection_on_both_sides(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    sel = select_tree(plan, 7.0)
    assert sel.chosen is TreeKind.VARIABLE
    assert sel.total_weight == 39.0
    assert sel.tree is plan.mst_v
    sel = select_tree(plan, 9.0)
    assert sel.chosen is TreeKind.STABLE
    assert sel.total_weight == 40.0
    assert sel.tree is plan.mst_s
    # a tie goes to the stable tree
    sel = select_tree(plan, 8.0)
    assert sel.chosen is TreeKind.STABLE
    assert sel.total_weight == 40.0


def test_selection_follows_replaced_plan_fields(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    assert select_tree(plan, 9.0) is select_tree(plan, 12.0)  # built once
    moved = dataclasses.replace(plan, d_s=41.0, cv=9.0)
    sel = select_tree(moved, 9.5)
    assert (sel.chosen, sel.total_weight, sel.tree) == (TreeKind.STABLE, 41.0, plan.mst_s)
    assert select_tree(moved, 8.5).total_weight == 40.5


def test_selection_handles_extreme_finite_values(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    sel = select_tree(plan, -1e9)
    assert sel.chosen is TreeKind.VARIABLE
    assert sel.total_weight == 32.0 - 1e9
    assert select_tree(plan, 1e18).chosen is TreeKind.STABLE


def test_selection_rejects_nonfinite(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteWeightError):
            select_tree(plan, bad)


def test_bridge_selection_always_variable(bridge4):
    plan = precompute_plan(bridge4, 3, {})
    assert plan.cv == math.inf
    for x in (0.0, 123.0, 10.0**6):
        sel = select_tree(plan, x)
        assert sel.chosen is TreeKind.VARIABLE
        assert sel.total_weight == plan.s_v + x
        assert 3 in sel.tree.edge_ids


def test_stable_plan_missing_is_reported(triangle):
    # Refused when the plan is built: only a bridge has no stable tree, and
    # no finite x reaches its cv of inf.
    tree = precompute_plan(triangle, 2, {}).mst_v
    with pytest.raises(Error, match="^edge 2: a plan without a stable tree needs cv = inf$"):
        EdgePlan(edge_id=2, mst_s=None, d_s=math.inf, mst_v=tree, s_v=1.0, cv=3.0, swap=None)
    bridge = EdgePlan(
        edge_id=2, mst_s=None, d_s=math.inf, mst_v=tree, s_v=1.0, cv=math.inf, swap=None
    )
    assert select_tree(bridge, 4.0).chosen is TreeKind.VARIABLE


def test_selection_needs_no_graph(threshold8):
    plan = precompute_plan(threshold8, 5, {})
    # mutating the graph afterwards cannot influence selections
    set_unstable_weight(threshold8, 5, 1000.0)
    sel = select_tree(plan, 7.0)
    assert (sel.chosen, sel.total_weight) == (TreeKind.VARIABLE, 39.0)


def test_precompute_argument_validation(triangle, multi3):
    with pytest.raises(NotUnstableError):
        precompute_plan(triangle, 0, {})
    with pytest.raises(UnknownEdgeError):
        precompute_plan(triangle, 9, {})
    with pytest.raises(FrozenIncompleteError):
        precompute_plan(multi3, 4, {})
    with pytest.raises(FrozenIncompleteError):
        precompute_plan(triangle, 2, {1: 2.0})
    with pytest.raises(NonFiniteWeightError):
        precompute_plan(multi3, 4, {5: math.inf, 6: 1.0})


def test_precompute_all_cardinality(triangle, multi3):
    stable_only = build_graph(2, [(0, 1, 3, "stable")])
    assert precompute_all(stable_only).plans == {}
    assert precompute_all(stable_only).snapshot == {}

    ps = precompute_all(triangle)
    assert set(ps.plans) == {2}
    assert ps.snapshot == {2: 10.0}

    ps = precompute_all(multi3)
    assert set(ps.plans) == {4, 5, 6}
    assert ps.snapshot == unstable_values(multi3)
    for eid, plan in ps.plans.items():
        assert plan.edge_id == eid


def test_precompute_leaves_graph_untouched(multi3):
    before = edges(multi3)
    precompute_all(multi3)
    assert edges(multi3) == before


def test_apply_change_immediate_then_rebuild(threshold8):
    ps = precompute_all(threshold8)
    immediate, rebuilt = apply_change(ps, threshold8, 5, 9.0)
    assert immediate.chosen is TreeKind.STABLE
    assert immediate.total_weight == 40.0
    assert threshold8.weight(5) == threshold8.edge(5).weight == 9.0
    assert rebuilt is not ps
    # a single unstable edge's plan does not depend on its own value
    old, new = ps.plans[5], rebuilt.plans[5]
    assert (old.d_s, old.s_v, old.cv) == (new.d_s, new.s_v, new.cv)
    assert old.mst_s.edge_ids == new.mst_s.edge_ids
    assert old.mst_v.edge_ids == new.mst_v.edge_ids
    assert rebuilt.snapshot == {5: 9.0}


def test_single_edge_plan_constant_across_changes(threshold8, monkeypatch):
    ps = precompute_all(threshold8)
    reference = ps.plans[5]

    def no_kruskal(kernel, order):
        raise AssertionError("a change of the only unstable edge ran a Kruskal")

    monkeypatch.setattr(Kernel, "spanning", no_kruskal)
    for x in (7.0, 8.0, 0.0, 55.5, 9.0):
        sel, ps = apply_change(ps, threshold8, 5, x)
        plan = ps.plans[5]
        assert plan is reference  # kept, as it pins no other value
        assert (plan.d_s, plan.s_v, plan.cv) == (40.0, 32.0, 8.0)
        assert plan.mst_s.edge_ids == reference.mst_s.edge_ids
        assert plan.mst_v.edge_ids == reference.mst_v.edge_ids
        assert sel.total_weight == min(40.0, 32.0 + x)


def test_apply_change_rebuilds_dependent_plans():
    g = build_graph(
        3, [(0, 1, 5, "unstable"), (1, 2, 6, "unstable"), (0, 2, 4, "stable")]
    )
    ps = precompute_all(g)
    assert (ps.plans[0].d_s, ps.plans[0].s_v, ps.plans[0].cv) == (10.0, 4.0, 6.0)
    assert (ps.plans[1].d_s, ps.plans[1].s_v, ps.plans[1].cv) == (9.0, 4.0, 5.0)

    immediate, rebuilt = apply_change(ps, g, 1, 1.0)
    assert immediate.chosen is TreeKind.VARIABLE
    assert immediate.total_weight == 5.0
    assert immediate.tree.edge_ids == {1, 2}
    # edge 0's plan now sees the other edge frozen at 1
    plan0 = rebuilt.plans[0]
    assert dict(rebuilt.snapshot) == {0: 5.0, 1: 1.0}
    assert (plan0.d_s, plan0.s_v, plan0.cv) == (5.0, 1.0, 4.0)
    # the old plan set is a snapshot, not a view
    assert ps.plans[0].cv == 6.0
    assert dict(ps.snapshot) == {0: 5.0, 1: 6.0}


def test_apply_change_noop_value(multi3):
    ps = precompute_all(multi3)
    x0 = multi3.weight(5)
    _, rebuilt = apply_change(ps, multi3, 5, x0)
    assert rebuilt.snapshot == ps.snapshot
    for eid in ps.plans:
        old, new = ps.plans[eid], rebuilt.plans[eid]
        assert (old.d_s, old.s_v, old.cv) == (new.d_s, new.s_v, new.cv)
        assert old.mst_v.edge_ids == new.mst_v.edge_ids
    assert all(rebuilt.plans[eid] is ps.plans[eid] for eid in ps.plans)
    # 0.0 to -0.0 does not move the value under ``==`` either.
    _, zero = apply_change(rebuilt, multi3, 5, 0.0)
    _, signed = apply_change(zero, multi3, 5, -0.0)
    assert all(signed.plans[eid] is zero.plans[eid] for eid in zero.plans)


def test_no_plan_holds_a_mapping(triangle, multi3):
    # A set states its values once, as its snapshot; no plan copies them.
    ps = precompute_all(multi3)
    _, moved = apply_change(ps, multi3.copy(), 5, 4.5)
    _, same = apply_change(ps, multi3.copy(), 5, multi3.weight(5))
    _, single = apply_change(precompute_all(triangle), triangle, 2, 1.0)
    loaded = plans_from_json(plans_to_json(ps, multi3), multi3)
    for plan_set in (ps, moved, same, single, loaded):
        for plan in plan_set.plans.values():
            held = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
            assert not any(isinstance(value, Mapping) for value in held)


def test_apply_change_validation(triangle):
    ps = precompute_all(triangle)
    with pytest.raises(NotUnstableError):
        apply_change(ps, triangle, 0, 2.0)
    # An id is an int in range: 2.0 and "2" name no edge, though 2 does.
    for bad in (9, 2.0, 2.5, "2"):
        with pytest.raises(UnknownEdgeError):
            apply_change(ps, triangle, bad, 2.0)
        with pytest.raises(UnknownEdgeError):
            precompute_plan(triangle, bad, {})
    with pytest.raises(NonFiniteWeightError):
        apply_change(ps, triangle, 2, math.nan)
    assert triangle.weight(2) == 10.0  # nothing was applied
    empty = PlanSet(plans={}, snapshot={})
    with pytest.raises(Error):
        apply_change(empty, triangle, 2, 2.0)


def test_numbers_no_float_holds_are_refused(multi3):
    # An int past the float range is an mstplan error, not the OverflowError
    # of float(), and nothing is changed by the call that raised it.
    for huge in (10**400, -(10**400)):
        with pytest.raises(NonFiniteWeightError, match="float range"):
            build_graph(2, [(0, 1, huge, "stable")])
        ps = precompute_all(multi3)
        before = (format_graph(multi3), unstable_values(multi3))
        with pytest.raises(NonFiniteWeightError, match="float range"):
            set_unstable_weight(multi3, 4, huge)
        with pytest.raises(NonFiniteWeightError, match="float range"):
            apply_change(ps, multi3, 4, huge)
        with pytest.raises(NonFiniteWeightError, match="float range"):
            precompute_plan(multi3, 4, {5: huge, 6: 1.0})
        assert (format_graph(multi3), unstable_values(multi3)) == before
        assert ps == precompute_all(multi3)
    # Below the threshold the total is s_v + x, which no float holds; at or
    # above it the total is d_s.
    plan = precompute_all(multi3).plans[4]
    with pytest.raises(NonFiniteWeightError, match="float range"):
        select_tree(plan, -(10**400))
    assert select_tree(plan, 10**400) is plan._stable


def test_precompute_all_runs_one_kruskal_and_a_change_none(monkeypatch):
    # precompute_all finds the minimum tree with one Kruskal and every swap in
    # one pass over it; a change reads the new tree off the changed edge's
    # plan. Before that each rebuilt plan ran a Kruskal of its own.
    rng = random.Random(1982)
    unstable = rng.sample(range(29 + 60), 5)
    g = random_graph(rng, 30, 60, unstable=unstable)
    calls = []
    spanning = Kernel.spanning

    def counted(kernel, order):
        calls.append(order)
        return spanning(kernel, order)

    monkeypatch.setattr(Kernel, "spanning", counted)
    ps = precompute_all(g)
    assert len(calls) == 1
    calls.clear()
    for eid in unstable * 4:
        cv = ps.plans[eid].cv if ps.plans[eid].swap is not None else 1.0
        _, ps = apply_change(ps, g, eid, rng.choice([cv - 0.5, cv, cv + 0.5, 0.0]))
    _, ps = apply_change(ps, g, unstable[1], g.weight(unstable[1]))
    assert calls == []
    monkeypatch.undo()
    assert plan_sets_equal(ps, reference_plans(g))


def _shared_trees(ps):
    """The tree objects that every plan of ``ps`` holds."""
    trees = [(p.mst_s, p.mst_v) for p in ps.plans.values()]
    return [t for t in trees[0] if t is not None and all(t is s or t is v for s, v in trees)]


def test_a_change_reads_the_kruskal_tree_at_the_new_values_off_the_changed_plan():
    # A change runs no Kruskal: the changed edge's plan holds the best trees
    # with and without the edge, and the set it builds shares the one the
    # kernel's (weight, id) Kruskal takes at the new values. Ties at x == cv,
    # bridges, parallel edges, and non-integer weights among ties.
    rng = random.Random(2410)
    pool = (0.1, 0.2, 0.3, 0.7, 2.5)
    draws = (lambda: float(rng.randint(1, 3)), lambda: rng.choice(pool), lambda: rng.uniform(-2, 3))
    compared = ties = bridges = 0
    for trial in range(240):
        draw = draws[trial % 3]
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = rng.sample(range(len(pairs)), rng.randint(2, min(5, len(pairs))))
        g = build_graph(
            n + 1,
            [
                (u, v, draw(), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        kernel = g.kernel()
        ps = precompute_all(g)
        for _ in range(8):
            eid = rng.choice(unstable)
            plan = ps.plans[eid]
            pick = rng.random()
            if plan.cv != math.inf and pick < 0.4:
                x = plan.cv
            elif pick < 0.7:
                x = g.weight(rng.randrange(g.num_edges))
            else:
                x = draw()
            if x == g.weight(eid):
                continue  # a value that did not move keeps every plan
            _, ps = apply_change(ps, g, eid, x)
            keys = [(g.weight(f), f) for f in (*kernel.stable, *g.unstable_ids)]
            want = frozenset(kernel.spanning([f for _, f in sorted(keys)]))
            # Every plan holds the tree the change read off the kept one.
            (tree,) = _shared_trees(ps)
            assert tree is plan.mst_s or tree is plan.mst_v
            assert tree._part == want and tree.edge_ids == constrained_mst_kruskal(g).edge_ids
            compared += 1
            ties += x == plan.cv
            bridges += plan.swap is None
    assert compared > 1000 and ties > 300 and bridges > 100


def test_a_change_chain_frees_the_plan_sets_it_has_moved_past():
    # Every plan of a set holds the set's minimum tree, so once that tree's
    # part is freed no plan of the set is alive, nor is the set. A plan a
    # change keeps holds trees, never another set's plans.
    g = generate_graph(300, 900, 8, 5)
    ps = precompute_all(g)
    rng = random.Random(8)
    early = None
    for step in range(200):
        eid = rng.choice(g.unstable_ids)
        cv = ps.plans[eid].cv
        x = float(rng.randint(1, 10**6)) if cv == math.inf else cv + rng.randint(-3000, 3000)
        _, ps = apply_change(ps, g, eid, x)
        if step == 10:
            early = weakref.ref(_shared_trees(ps)[0]._part)
            assert early() is not None
    assert early() is None


@pytest.mark.parametrize("edge_first", [True, False])
def test_a_change_to_the_threshold_plans_from_the_id_ordered_tree(edge_first):
    # At x == cv the changed edge ties with its swap. select_tree answers
    # with the stable tree, but the plans hold the (weight, id) Kruskal's,
    # which takes the edge when its id is the lower.
    tie = [(0, 2, 10, "unstable")]
    rest = [(0, 1, 1, "stable"), (1, 2, 5, "stable"), (2, 3, 2, "stable")]
    other = [(1, 3, 7, "unstable")]
    specs = tie + rest + other if edge_first else rest + tie + other
    eid = 0 if edge_first else 3
    g = build_graph(4, specs)
    ps = precompute_all(g)
    cv = ps.plans[eid].cv
    assert cv == 5.0
    _, rebuilt = apply_change(ps, g, eid, cv)
    tree = constrained_mst_kruskal(g).edge_ids
    assert (eid in tree) is edge_first
    for plan in rebuilt.plans.values():
        own = plan.mst_v if plan.edge_id in tree else plan.mst_s
        assert own.edge_ids == tree
    specs[eid] = (*specs[eid][:2], cv, "unstable")
    fresh = build_graph(4, specs)
    assert plans_to_json(rebuilt, g) == plans_to_json(precompute_all(fresh), fresh)


def test_apply_change_refuses_a_stale_plan_set(multi3):
    ps = precompute_all(multi3)
    set_unstable_weight(multi3, 5, 100.0)  # moved behind the plans' back
    before = edges(multi3)
    with pytest.raises(StalePlanSetError):
        apply_change(ps, multi3, 4, 0.0)
    assert edges(multi3) == before


def test_apply_change_keeps_nothing_from_another_graphs_plans():
    def graph(w):
        return build_graph(4, [
            (0, 1, w, "stable"), (1, 2, 2, "stable"), (0, 2, 3, "stable"),
            (2, 3, 4, "unstable"), (0, 3, 5, "unstable"), (1, 3, 6, "stable"),
        ])

    ps = precompute_all(graph(1.0))
    g = graph(10.0)  # the same unstable values, so no snapshot check sees it
    before = edges(g)
    with pytest.raises(StalePlanSetError):
        apply_change(ps, g, 3, 4.5)
    assert edges(g) == before
    _, rebuilt = apply_change(precompute_all(g), g, 3, 4.5)
    assert rebuilt.plans == reference_plans(g).plans


def test_a_graph_made_from_anothers_edges_plans_from_its_own():
    # Stable edge 0, which every tree holds, raised from 1 to 100, or one
    # vertex more. The edited graph is built from g's edge view.
    specs = [
        (0, 1, 1.0, "stable"), (1, 2, 2, "stable"), (0, 2, 3, "stable"),
        (2, 3, 4, "unstable"), (0, 3, 5, "unstable"), (1, 3, 6, "stable"),
    ]
    g = build_graph(4, specs)
    ps = precompute_all(g)
    fresh = build_graph(4, [(0, 1, 100.0, "stable"), *specs[1:]])
    assert (ps.plans[4].d_s, precompute_all(fresh).plans[4].d_s) == (7.0, 9.0)
    with pytest.raises(TypeError):
        dataclasses.replace(g, n=5)

    raised = [(e.u, e.v, 100.0 if e.id == 0 else e.weight, e.kind) for e in edges(g)]
    edited = build_graph(4, raised)
    assert edges(edited) == edges(fresh) and edited.kernel() is not g.kernel()
    assert plan_sets_equal(precompute_all(edited), reference_plans(fresh))
    with pytest.raises(StalePlanSetError):
        apply_change(ps, edited, 4, 0.5)
    assert unstable_values(edited) == unstable_values(g)
    with pytest.raises(DisconnectedGraphError):
        build_graph(5, [(e.u, e.v, e.weight, e.kind) for e in edges(g)])


def test_copy_made_before_the_first_sort_accepts_the_originals_plans():
    g = parse_graph(M3_TEXT)
    twin = g.copy()  # before any plan is built; it shares the kernel the parse built
    ps = precompute_all(g)
    sel, rebuilt = apply_change(ps, twin, 4, 9.0)
    assert sel == select_tree(ps.plans[4], 9.0)
    assert rebuilt.plans == reference_plans(twin).plans
    set_unstable_weight(g, 4, 9.0)  # and the original accepts the copy's plans
    _, back = apply_change(rebuilt, g, 6, 0.5)
    assert back.plans == reference_plans(g).plans


def test_failed_rebuild_leaves_the_graph_as_it_was(multi3, monkeypatch):
    ps = precompute_all(multi3)
    before = edges(multi3)

    def boom(*args):
        raise RuntimeError("rebuild failed")

    monkeypatch.setattr("mstplan.plans._build_plans", boom)
    with pytest.raises(RuntimeError):
        apply_change(ps, multi3, 4, 0.0)
    assert edges(multi3) == before
    monkeypatch.undo()
    _, rebuilt = apply_change(ps, multi3, 4, 0.0)  # the plans are not stale
    assert rebuilt.snapshot[4] == 0.0


def test_tree_totals_past_the_float_range_are_refused():
    # Each weight is finite, but a tree's total is not: an mstplan error,
    # not the OverflowError of math.fsum.
    g = build_graph(
        3, [(0, 1, 1e308, "stable"), (1, 2, 1e308, "stable"), (0, 2, 1.5e308, "unstable")]
    )
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        precompute_all(g)

    g = build_graph(3, [(0, 1, 1, "unstable"), (1, 2, 1, "unstable"), (0, 2, 1e308, "stable")])
    ps = precompute_all(g)
    before = (edges(g), unstable_values(g), format_graph(g))
    # At 1e308 on edge 0, edge 1's plan avoids it with the tree {0, 2}.
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        apply_change(ps, g, 0, 1e308)
    assert (edges(g), unstable_values(g), format_graph(g)) == before
    _, rebuilt = apply_change(ps, g, 0, 2.0)  # the plans are not stale
    assert rebuilt.plans == reference_plans(g).plans


@pytest.mark.parametrize("sign", [1, -1])
def test_a_finite_value_whose_variable_total_overflows_is_refused(sign):
    # s_v + x rounds to an infinity: an error, not a total of inf. With one
    # unstable edge a change runs no rebuild, so only select_tree refuses it.
    g = parse_graph(f"p wdg 3 2\ne 0 1 {sign}e308\nu 1 2 {sign}\n")
    ps = precompute_all(g)
    plan = ps.plans[1]
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        select_tree(plan, sign * 1.7e308)
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        select_tree(plan, sign * 10**308)  # an int a float holds
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        apply_change(ps, g, 1, sign * 1.7e308)
    assert g.weight(1) == sign and unstable_values(g) == dict(ps.snapshot)
    assert select_tree(plan, sign * 1e300).total_weight == sign * 1e308 + sign * 1e300


def test_planning_leaves_the_graph_alone(multi3, monkeypatch):
    # A build reads the values it is given: it neither copies the graph nor
    # sets a weight in it, not even to plan at other frozen values.
    def refuse(*args, **kwargs):
        raise AssertionError("planning copied the graph or set a weight in it")

    monkeypatch.setattr(WeaklyDynamicGraph, "copy", refuse)
    for name, module in list(sys.modules.items()):
        if name == "mstplan" or name.startswith("mstplan."):
            if hasattr(module, "set_unstable_weight"):
                monkeypatch.setattr(module, "set_unstable_weight", refuse)
    before = edges(multi3)
    ps = precompute_all(multi3)
    frozen = {4: 1.0, 6: 8}
    plan = precompute_plan(multi3, 5, frozen)
    assert edges(multi3) == before
    assert ps.snapshot == unstable_values(multi3)

    monkeypatch.undo()
    view = multi3.copy()
    for eid, value in frozen.items():
        set_unstable_weight(view, eid, value)
    assert plan == reference_plans(view).plans[5]


def test_apply_change_builds_first_and_sets_the_value_last(multi3, monkeypatch):
    ps = precompute_all(multi3)
    build = plans_module._build_plans
    seen = []

    def spy(g, values, *args):
        seen.append((g.weight(4), values[4]))
        return build(g, values, *args)

    monkeypatch.setattr("mstplan.plans._build_plans", spy)
    _, rebuilt = apply_change(ps, multi3, 4, 0.5)
    assert seen == [(2.0, 0.5)]  # the build ran at the new value, graph unchanged
    assert multi3.weight(4) == 0.5
    assert rebuilt.snapshot == unstable_values(multi3)
    assert rebuilt.plans == reference_plans(multi3).plans


def test_rebuild_runs_no_constrained_search(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise AssertionError("a constrained search ran during a rebuild")

    for name, module in list(sys.modules.items()):
        if name == "mstplan" or name.startswith("mstplan."):
            for search in ("constrained_mst_kruskal", "constrained_mst_prim"):
                if hasattr(module, search):
                    monkeypatch.setattr(module, search, boom)

    g = parse_graph(M3_TEXT)
    kernel = g._kernel  # parsing builds the kernel
    ps = precompute_all(g)
    assert ps._kernel is kernel
    assert kernel.forced == {2}  # stable weights 3, 4, 5, 6; only 2 is forced
    assert kernel.supers == 4
    assert kernel.stable == (0, 3, 1)
    assert g.copy()._kernel is kernel
    _, ps = apply_change(ps, g, 4, 9.0)
    _, ps = apply_change(ps, g, 6, 0.5)
    assert ps._kernel is kernel
    path = tmp_path / "m3.plan"
    write_plans(ps, g, path)
    loaded = parse_graph(format_graph(g))
    assert loaded._kernel is not None and loaded._kernel is not kernel
    assert read_plans(path, loaded)._kernel is loaded._kernel  # the load shares it

    precompute_plan(g, 5, {4: 1.0, 6: 8.0})
    set_unstable_weight(g, 5, 3.0)
    assert g._kernel is kernel


def test_kernel_holds_every_minimum_tree():
    # Whatever the unstable values, the minimum spanning tree contains the
    # kernel's forced edges and uses no stable edge outside the kernel.
    rng = random.Random(1994)
    shapes = [
        # a cycle made only of unstable edges
        (5, [(0, 1, 1, "u"), (1, 2, 2, "u"), (2, 0, 3, "u"), (2, 3, 2, "s"),
             (3, 4, 1, "s"), (4, 0, 3, "s"), (1, 3, 2, "s")]),
        # an unstable bridge
        (4, [(0, 1, 1, "s"), (1, 2, 2, "s"), (2, 0, 2, "s"), (2, 3, 1, "u")]),
        # two parallel unstable edges
        (3, [(0, 1, 2, "u"), (0, 1, 2, "u"), (0, 1, 3, "s"), (1, 2, 1, "s"),
             (0, 2, 1, "s")]),
        # every edge unstable
        (4, [(0, 1, 1, "u"), (1, 2, 1, "u"), (2, 3, 2, "u"), (3, 0, 1, "u"),
             (0, 2, 3, "u")]),
        # no unstable edge
        (4, [(0, 1, 1, "s"), (1, 2, 1, "s"), (2, 3, 2, "s"), (3, 0, 1, "s")]),
    ]
    for _ in range(300):
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(0, 2))  # parallel edges
        unstable = set(rng.sample(range(len(pairs)), rng.randint(1, min(5, len(pairs)))))
        shapes.append((n, [
            (u, v, rng.choice([1, 2, 3, rng.uniform(0, 4)]), "u" if i in unstable else "s")
            for i, (u, v) in enumerate(pairs)
        ]))
    for n, specs in shapes:
        g = build_graph(n, [
            (u, v, w, "unstable" if kind == "u" else "stable") for u, v, w, kind in specs
        ])
        kernel = g.kernel()
        fields = (kernel.forced, kernel.supers, kernel.stable, dict(kernel._u), dict(kernel._v))
        k = len(g.unstable_ids)
        assert kernel.supers <= k + 1
        assert len(kernel.stable) <= k
        reach = kernel.forced | set(kernel.stable) | set(g.unstable_ids)
        for _ in range(6):
            for eid in g.unstable_ids:
                tie = g.weight(rng.randrange(g.num_edges))
                set_unstable_weight(g, eid, rng.choice([tie, rng.uniform(-1.0, 5.0)]))
            tree = constrained_mst_kruskal(g).edge_ids
            assert kernel.forced <= tree <= reach
            assert g.kernel() is kernel
            assert (kernel.forced, kernel.supers, kernel.stable, kernel._u, kernel._v) == fields


def test_change_chains_match_the_constrained_kruskal_build():
    # Tie-heavy integers and floats, parallel edges and a bridge; values
    # often land on another edge's weight so that only ids break the tie.
    rng = random.Random(4242)
    for trial in range(120):
        if trial % 2:
            def draw():
                return float(rng.randint(1, 3))
        else:
            def draw():
                return rng.uniform(-5.0, 5.0)
        n = rng.randint(2, 10)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(5, len(pairs))))
        g = build_graph(
            n + 1,
            [
                (u, v, draw(), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        ps = precompute_all(g)
        for _ in range(8):
            reference = reference_plans(g)
            assert ps.snapshot == reference.snapshot
            for eid, plan in reference.plans.items():
                assert ps.plans[eid] == plan  # trees, sums, d_s, s_v, cv, frozen
            x = g.weight(rng.randrange(g.num_edges)) if rng.random() < 0.5 else draw()
            _, ps = apply_change(ps, g, rng.choice(unstable), x)


def _fsum_at(tree, g, values, exclude=None):
    """fsum of ``tree``'s member weights, unstable ones from ``values``."""
    return math.fsum(values.get(f, g.weight(f)) for f in tree.edge_ids if f != exclude)


def _fold_at(tree, g, values, exclude=None):
    """The same weights added one by one in ascending id order."""
    total = 0.0
    for f in sorted(tree.edge_ids - {exclude}):
        total += values.get(f, g.weight(f))
    return total


def test_totals_are_correctly_rounded_sums_of_the_tree_weights():
    # Uniform floats, where the order of a sum shows in its last bits, and
    # tie-heavy integers, with parallel edges and a bridge, along
    # apply_change chains. Each d_s and s_v is fsum of its tree's weights at
    # the plan's vector, bit for bit: as built, after a plan-file round trip,
    # and as a tree built whole from the same ids; on small graphs
    # each cv is the oracle's too.
    rng = random.Random(1997)
    draws = (lambda: rng.uniform(-5.0, 5.0), lambda: float(rng.randint(1, 3)))
    checked = unfolded = oracled = 0
    for trial in range(300):
        draw = draws[trial % 2]
        n = rng.randint(2, 10)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(5, len(pairs))))
        g = build_graph(
            n + 1,
            [
                (u, v, draw(), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        ps = precompute_all(g)
        if g.num_edges <= 12:  # the oracle's exact threshold
            for eid, plan in ps.plans.items():
                assert plan.cv == brute_critical_value(g, eid)
                oracled += 1
        for _ in range(4):
            loaded = plans_from_json(plans_to_json(ps, g), g)
            for plan_set in (ps, loaded):
                values = plan_set.snapshot
                for eid, plan in plan_set.plans.items():
                    sides = ((plan.mst_v, plan.s_v, eid), (plan.mst_s, plan.d_s, None))
                    for tree, total, exclude in sides:
                        if tree is None:
                            assert total == math.inf
                            continue
                        assert total == _fsum_at(tree, g, values, exclude)
                        again = reference_tree(g, tree.edge_ids)
                        assert again == tree  # ids, stable_sum, unstable_members
                        assert float(_exact_total(g, again, exclude)) == total
                        unfolded += total != _fold_at(tree, g, values, exclude)
                        checked += 1
            x = g.weight(rng.randrange(g.num_edges)) if rng.random() < 0.5 else draw()
            _, ps = apply_change(ps, g, rng.choice(unstable), x)
    assert checked > 5000 and oracled > 100
    assert unfolded > 0  # an ascending-id fold would have failed this test


def test_rebuilds_build_no_tree_from_all_its_edge_ids(monkeypatch):
    # After precompute_all, every new tree of a rebuild is the kernel's
    # forced edges plus kernel edges; none is summed over its n - 1 edges.
    rng = random.Random(53)
    weights = [rng.uniform(0.0, 100.0) for _ in range(59 + 180)]
    unstable = rng.sample(range(len(weights)), 5)
    g = random_graph(rng, 60, 180, unstable=unstable, weights=weights)
    ps = precompute_all(g)

    def boom(g, ids, weight):
        raise AssertionError("a rebuild built a tree from all its edge ids")

    monkeypatch.setattr(constrained_module, "_whole_tree", boom)
    trees = set()
    for _ in range(40):
        eid = rng.choice(unstable)
        cv = ps.plans[eid].cv
        x = rng.choice([cv, cv - rng.uniform(0.0, 3.0), cv + rng.uniform(0.0, 3.0)])
        old, moved = ps.plans, x != g.weight(eid)
        _, ps = apply_change(ps, g, eid, x)
        # The changed edge's plan pins only the other values, so it is kept;
        # every other plan pinned the old value and is new.
        kept = [c for c in unstable if ps.plans[c] is old[c]]
        assert kept == ([eid] if moved else unstable)
        trees.update(p.mst_v.edge_ids for p in ps.plans.values())
    monkeypatch.undo()
    assert len(trees) > 10  # the chain built many new trees
    assert plan_sets_equal(ps, reference_plans(g))


def test_changes_answers_and_plan_files_build_no_full_edge_id_set(monkeypatch):
    # A kernel tree is the kernel's forced edges plus its kernel part. At
    # the change-mix benchmark's size, no rebuild, answer or plan file
    # needs the union of the two.
    rng = random.Random(1500)
    n, extra = 1500, 4500
    weights = [rng.randint(1, 100_000) for _ in range(n - 1 + extra)]
    unstable = rng.sample(range(n - 1, n - 1 + extra), 6)  # none is a bridge
    g = random_graph(rng, n, extra, unstable=unstable, weights=weights)

    def boom(tree):
        raise AssertionError("a tree built its full edge-id set")

    monkeypatch.setattr(SpanningTree, "edge_ids", property(boom))
    ps = precompute_all(g)
    for _ in range(30):
        eid = rng.choice(unstable)
        _, ps = apply_change(ps, g, eid, ps.plans[eid].cv + rng.randint(-2000, 1999))
        for plan in ps.plans.values():
            assert select_tree(plan, plan.cv - 1.0).chosen is TreeKind.VARIABLE
            assert select_tree(plan, plan.cv).chosen is TreeKind.STABLE
    trees = [t for p in ps.plans.values() for t in (p.mst_s, p.mst_v)]
    assert all(t._base is g.kernel().forced and len(t._part) <= 6 for t in trees)
    text = plans_to_json(ps, g)
    monkeypatch.undo()
    fresh = parse_graph(format_graph(g))
    assert text == plans_to_json(precompute_all(fresh), fresh)


def test_edge_ids_behave_as_the_frozenset_of_the_same_ids():
    # A tree's edge_ids, a view of its base and part, against the frozenset
    # of its ids on every operation of the set contract, with frozensets and
    # other trees' ids on either side; fresh sets and along a change chain.
    # Ties among non-integer weights, parallel edges and a bridge.
    rng = random.Random(3333)
    pool = (0.1, 0.2, 0.3, 0.7, 2.5)

    def draw():
        return rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-1.0, 3.0)

    views = compared = 0
    for _ in range(15):
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(5, len(pairs))))
        g = build_graph(n + 1, [
            (u, v, draw(), "unstable" if i in unstable else "stable")
            for i, (u, v) in enumerate(pairs)
        ])
        ps = precompute_all(g)
        for step in range(21):  # the fresh set, then 20 changes
            if step:
                _, ps = apply_change(ps, g, rng.choice(unstable), draw())
            ids = [
                t.edge_ids for p in ps.plans.values() for t in (p.mst_s, p.mst_v) if t is not None
            ]
            ids.append(constrained_mst_kruskal(g).edge_ids)
            views += sum(type(a) is not frozenset for a in ids)
            plain = [frozenset(sorted(a)) for a in ids]
            everything = frozenset(range(g.num_edges))
            for a, fa in zip(ids, plain):
                assert sorted(a) == sorted(fa)  # each id once
                assert len(a) == len(fa) == n and hash(a) == hash(fa)
                for eid in (-1, *range(g.num_edges + 1)):
                    assert (eid in a) is (eid in fa)
            probes = [frozenset(), everything, frozenset(rng.sample(sorted(everything), n))]
            for a, fa in zip(ids, plain):
                j = rng.randrange(len(ids))
                for b, fb in ((ids[j], plain[j]), *((p, p) for p in probes)):
                    for x, y in ((a, b), (b, a), (a, fb), (fb, a), (fa, b), (b, fa)):
                        fx, fy = frozenset(x), frozenset(y)
                        assert (x == y) is (fx == fy) and (x != y) is (fx != fy)
                        assert (x <= y) is (fx <= fy) and (x >= y) is (fx >= fy)
                        assert (x < y) is (fx < fy) and (x > y) is (fx > fy)
                        assert x.isdisjoint(y) is fx.isdisjoint(fy)
                        for op in (operator.or_, operator.and_, operator.sub, operator.xor):
                            got = op(x, y)
                            assert type(got) is frozenset and got == op(fx, fy)
                        compared += 1
    assert views > 800 and compared > 20_000


def test_edge_ids_pickle_and_copy_as_frozensets_and_show_their_ids_sorted():
    g = build_graph(4, [
        (0, 1, 1.0, "stable"), (1, 2, 1.0, "stable"), (2, 3, 1.0, "stable"),
        (3, 0, 1.0, "stable"), (0, 2, 5.0, "unstable"), (1, 3, 0.5, "unstable"),
    ])
    ids = precompute_all(g).plans[5].mst_v.edge_ids
    assert type(ids) is not frozenset
    for twin in (pickle.loads(pickle.dumps(ids)), copy.copy(ids), copy.deepcopy(ids)):
        assert type(twin) is frozenset and twin == ids == {0, 1, 5}
    assert repr(ids).endswith("([0, 1, 5])")


def test_kept_answer_edge_ids_copy_no_tree():
    # Keeping each answer's edge_ids along a chain of changes that moves the
    # minimum tree holds no copy of the tree's n - 1 ids, which would take
    # some 64 KiB per distinct tree here.
    g = generate_graph(1500, 4500, 6, 3)
    rng = random.Random(33)
    ps = precompute_all(g)
    trees = []
    for step in range(50):
        eid = rng.choice(g.unstable_ids)
        cv = ps.plans[eid].cv
        x = cv - 1.0 if step % 2 or cv == math.inf else cv + 1.0
        sel, ps = apply_change(ps, g, eid, x)
        trees.append(sel.tree)
    for tree in trees:
        tree._part  # fills an unfilled tree before the count
    tracemalloc.start()
    try:
        kept = [tree.edge_ids for tree in trees]
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({frozenset(ids) for ids in kept}) >= 3  # the chain moved the tree
    assert all(len(ids) == g.n - 1 for ids in kept)
    assert grown < 1024 * len(kept)


def test_kernel_trees_equal_the_same_trees_built_any_other_way():
    # Equality and hashing follow the edge ids, whether a tree is the
    # kernel's forced edges plus a part or one whole id set. Non-integer
    # weights, ties among them and parallel edges.
    rng = random.Random(3141)
    pool = (0.1, 0.2, 0.3, 0.7, 2.5)

    def draw():
        return rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-1.0, 3.0)

    compared = 0
    for _ in range(80):
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(4, len(pairs))))
        g = build_graph(
            n,
            [
                (u, v, draw(), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        ps = precompute_all(g)
        for _ in range(5):
            kernel_trees = []
            for eid, plan in ps.plans.items():
                for tree, constraints in (
                    (plan.mst_s, Constraints(forbidden={eid})),
                    (plan.mst_v, Constraints(mandatory={eid})),
                ):
                    found = constrained_mst_kruskal(g, constraints)
                    if tree is None:
                        assert isinstance(found, Infeasible)
                        continue
                    kernel_trees.append(tree)
                    for other in (reference_tree(g, tree.edge_ids), found):
                        assert tree == other and other == tree
                        assert hash(tree) == hash(other)
                        assert tree.stable_sum == other.stable_sum
                        assert tree.unstable_members == other.unstable_members
                        compared += 1
            for a in kernel_trees:  # one base: the parts decide
                for b in kernel_trees:
                    assert (a == b) is (a.edge_ids == b.edge_ids)
            x = g.weight(rng.randrange(g.num_edges)) if rng.random() < 0.5 else draw()
            _, ps = apply_change(ps, g, rng.choice(unstable), x)
    assert compared > 3000

    # Trees of one base with equal sums and members but other parts differ:
    # on a square of unit edges with a diagonal, {0, 1, 5} and {0, 2, 5}.
    g = build_graph(4, [
        (0, 1, 1.0, "stable"), (1, 2, 1.0, "stable"), (2, 3, 1.0, "stable"),
        (3, 0, 1.0, "stable"), (0, 2, 5.0, "unstable"), (1, 3, 0.5, "unstable"),
    ])
    tree = precompute_all(g).plans[5].mst_v
    assert tree.edge_ids == {0, 1, 5} and tree._base is g.kernel().forced == {0}
    other = dataclasses.replace(tree, _part=frozenset({2, 5}))
    assert other == reference_tree(g, {0, 2, 5}) and other != tree
    assert (other.stable_sum, other.unstable_members) == (tree.stable_sum, tree.unstable_members)


def test_unfilled_other_trees_compare_as_their_filled_trees():
    # Fresh, unfilled other trees from plan sets of one graph, of its copy
    # (one kernel), of a rebuild of it and of a graph with other stable
    # weights (other kernels), and along a change chain, some changes to the
    # threshold. Non-integer weights with ties, parallel edges and a bridge.
    # Each comparison gives what the same trees give filled, and equal
    # trees hash alike.
    rng = random.Random(2626)
    pool = (0.1, 0.2, 0.3, 0.7, 2.5)

    def draw():
        return rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-1.0, 3.0)

    def lazy(tree):
        return tree is not None and tree._swap is not None

    unfilled_equal = filled_equal = compared = 0
    for _ in range(80):
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n, rng.randint(0, 2 * n))
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(5, len(pairs))))
        weights = [draw() for _ in pairs]
        others = [
            w if i in unstable or rng.random() < 0.7 else draw() for i, w in enumerate(weights)
        ]
        changes = [(rng.choice(unstable), draw(), rng.random() < 0.3) for _ in range(6)]

        def other_trees():
            """Per plan set, its plans' unfilled other trees by (edge, side)."""
            g, h, rebuilt = (
                build_graph(n + 1, [
                    (u, v, w, "unstable" if i in unstable else "stable")
                    for i, ((u, v), w) in enumerate(zip(pairs, ws))
                ])
                for ws in (weights, others, weights)
            )
            sets = [precompute_all(g), precompute_all(g.copy()), precompute_all(h)]
            sets.append(precompute_all(rebuilt))
            ps = sets[0]
            for eid, x, at_threshold in changes:
                cv = ps.plans[eid].cv
                _, ps = apply_change(ps, g, eid, cv if at_threshold and cv < math.inf else x)
                sets.append(ps)
            trees, seen = [], set()  # a kept plan's trees are in later sets too
            for ps in sets:
                trees.append({})
                for eid, p in ps.plans.items():
                    for side, tree in enumerate((p.mst_s, p.mst_v)):
                        if lazy(tree) and id(tree) not in seen:
                            trees[-1][eid, side] = tree
                            seen.add(id(tree))
            return trees

        filled = other_trees()
        for tree in (tree for trees in filled for tree in trees.values()):
            tree.edge_ids  # the first read of a field fills the tree
        for round_ in range(4):
            trees = other_trees()
            entries = [(s, key) for s, by_key in enumerate(trees) for key in by_key]
            rng.shuffle(entries)
            if round_ % 2 == 0:  # mostly the same edge and side of two sets
                entries.sort(key=lambda entry: entry[1])
            for (s, key), (t, other_key) in zip(entries[::2], entries[1::2]):
                a, b = trees[s][key], trees[t][other_key]
                assert lazy(a) and lazy(b)
                equal = a == b
                assert equal == (filled[s][key] == filled[t][other_key])
                unfilled_equal += equal and lazy(a) and lazy(b)
                filled_equal += equal and not lazy(a)
                if equal:
                    assert hash(a) == hash(b)
                compared += 1
    assert compared > 2000 and unfilled_equal > 400 and filled_equal > 400


def test_quarter_weight_what_ifs_match_a_fresh_kruskal():
    # Multiples of 0.25 are exact in binary, so every total is exact and a
    # what-if must equal a fresh search at the values in force bit for bit.
    rng = random.Random(2525)

    def draw():
        return rng.randint(-12, 12) / 4

    checks = 0
    for _ in range(1500):
        n = rng.randint(2, 7)
        pairs = random_pairs(rng, n, rng.randint(0, n))
        pairs += rng.choices(pairs, k=rng.randint(1, 2))  # parallel edges
        unstable = rng.sample(range(len(pairs)), rng.randint(1, min(3, len(pairs))))
        g = build_graph(
            n,
            [
                (u, v, draw(), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        ps = precompute_all(g)
        for _ in range(3):
            eid = rng.choice(unstable)
            cv = ps.plans[eid].cv
            at = [cv, cv - 0.25, cv + 0.25] if math.isfinite(cv) else []
            xs = [draw(), rng.choice(at or [draw()])]
            for x in xs:
                view = g.copy()
                set_unstable_weight(view, eid, x)
                fresh = tree_total_weight(constrained_mst_kruskal(view), view)
                sel = select_tree(ps.plans[eid], x)
                assert sel.total_weight == fresh
                assert tree_total_weight(sel.tree, view) == fresh
                checks += 1
            _, ps = apply_change(ps, g, eid, xs[-1])
    assert checks == 9000


def test_plan_files_match_the_constrained_kruskal_build():
    rng = random.Random(77)
    for n, wmax, floats in ((300, 20, False), (400, 10**6, False), (250, 0, True)):
        extra = 3 * n
        weights = [rng.uniform(0.0, 100.0) for _ in range(n - 1 + extra)] if floats else None
        unstable = set(rng.sample(range(n - 1 + extra), 6))
        g = random_graph(rng, n, extra, unstable=unstable, wmax=wmax, weights=weights)
        ps = precompute_all(g)
        for _ in range(4):
            assert plans_to_json(ps, g) == plans_to_json(reference_plans(g), g)
            eid = rng.choice(sorted(unstable))
            _, ps = apply_change(ps, g, eid, ps.plans[eid].cv + rng.choice((-1.5, 0.0, 2.0)))


def test_stale_frozen_values_are_detectable(multi3):
    ps = precompute_all(multi3)
    set_unstable_weight(multi3, 5, 100.0)  # moved behind the set's back
    moved = unstable_values(multi3)
    with pytest.raises(StalePlanSetError):
        apply_change(ps, multi3, 4, 0.0)
    assert unstable_values(multi3) == moved
    with pytest.raises(PlanFormatError, match="other unstable values"):
        plans_to_json(ps, multi3)


def test_best_total_matches_min_form_and_is_monotone(threshold8, triangle, bridge4):
    rng = random.Random(99)
    plans = [
        precompute_plan(threshold8, 5, {}),
        precompute_plan(triangle, 2, {}),
        precompute_plan(bridge4, 3, {}),  # a bridge: cv is +inf, no plateau
    ]
    for _ in range(40):
        n = rng.randint(4, 7)
        extra = rng.randint(1, 4)
        eid = n - 1 + rng.randrange(extra)
        g = random_graph(rng, n, extra, unstable={eid})
        plans.append(precompute_all(g).plans[eid])
    for plan in plans:
        def total(x):
            return select_tree(plan, x).total_weight

        at = plan.cv if math.isfinite(plan.cv) else 0.0
        xs = sorted(at + d for d in (-3, -1.5, -0.5, 0, 0.5, 1.5, 3))
        values = [total(x) for x in xs]
        for x, value in zip(xs, values):
            assert value == min(plan.d_s, plan.s_v + x)
        assert values == sorted(values)
        # slope one left of the threshold, flat at and beyond it
        assert total(at - 2) - total(at - 3) == 1.0
        if math.isfinite(plan.cv):
            assert total(plan.cv + 3) == total(plan.cv) == plan.d_s


def test_tie_at_breakpoint_has_two_optimal_trees(triangle):
    plan = precompute_plan(triangle, 2, {})
    set_unstable_weight(triangle, 2, plan.cv)
    catalog = enumerate_spanning_trees(triangle)
    totals = {tree: catalog_total(catalog, tree) for tree in catalog.trees}
    best = min(totals.values())
    optimal = [tree for tree, total in totals.items() if total == best]
    assert plan.mst_s.edge_ids in optimal
    assert plan.mst_v.edge_ids in optimal
    assert select_tree(plan, plan.cv).total_weight == best


def test_nonnegative_weights_give_nonnegative_threshold():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 7)
        extra = rng.randint(0, 4)
        m = n - 1 + extra
        eid = rng.randrange(m)
        g = random_graph(rng, n, extra, unstable={eid})
        assert precompute_all(g).plans[eid].cv >= 0
    for _ in range(20):
        g = bridge_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        eid = g.num_edges - 1
        assert precompute_all(g).plans[eid].cv >= 0


def test_threshold_agrees_with_enumeration_small():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(3, 7)
        extra = rng.randint(0, 4)
        m = n - 1 + extra
        eid = rng.randrange(m)
        g = random_graph(rng, n, extra, unstable={eid})
        plan = precompute_all(g).plans[eid]
        assert plan.cv == brute_critical_value(g, eid)


def test_every_answer_beside_the_threshold_is_a_minimum_tree():
    # Decimal and thirds weights, with 1e16 in half the graphs, where two
    # rounded totals' difference misses the exact crossover x* = D_s - S_v.
    # cv is x* itself, the weight of the plan's swap, so each answer at cv,
    # one ulp either side of it and at float(x*) is a minimum spanning tree
    # by exact Fraction totals over the catalog.
    rng = random.Random(1982)
    pool = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1.1, 2.2, 3.3)
    answers = 0
    for trial in range(400):
        n = rng.randint(3, 7)
        pairs = random_pairs(rng, n, rng.randint(1, 4))
        weights = [rng.choice(pool) for _ in pairs]
        if trial % 2:
            weights[rng.randrange(len(weights))] = 1e16
        unstable = rng.sample(range(len(pairs)), rng.randint(1, 3))
        g = build_graph(
            n,
            [
                (u, v, w, "unstable" if i in unstable else "stable")
                for i, ((u, v), w) in enumerate(zip(pairs, weights))
            ],
        )
        trees = enumerate_spanning_trees(g).trees
        ps = precompute_all(g)
        for eid, plan in ps.plans.items():
            if plan.mst_s is None:
                continue  # a bridge: one tree, nothing to decide

            def exact(ids, x):
                return sum(Fraction(x if f == eid else g.weight(f)) for f in ids)

            d_s = min(exact(t, 0) for t in trees if eid not in t)
            x_star = d_s - min(exact(t, 0) for t in trees if eid in t)
            assert plan.cv == x_star
            for x in (plan.cv, math.nextafter(plan.cv, -math.inf),
                      math.nextafter(plan.cv, math.inf), float(x_star)):
                chosen = select_tree(plan, x).tree.edge_ids
                assert exact(chosen, x) == min(exact(t, x) for t in trees)
                answers += 1
    assert answers > 1500


def test_swapped_trees_match_independent_searches():
    # Plans derive both trees from one MST by a single swap; on tie-heavy
    # graphs that must still give exactly the trees of an avoiding Kruskal
    # and a seeded Prim run on the plan's frozen view.
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 8)
        pairs = random_pairs(rng, n, rng.randint(0, 5))
        pairs += rng.choices(pairs, k=rng.randint(1, 2))  # parallel edges
        pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
        unstable = set(rng.sample(range(len(pairs)), rng.randint(2, 5)))
        g = build_graph(
            n + 1,
            [
                (u, v, rng.randint(1, 3), "unstable" if i in unstable else "stable")
                for i, (u, v) in enumerate(pairs)
            ],
        )
        ps = precompute_all(g)
        plans = [(plan, ps.snapshot) for plan in ps.plans.values()]
        for eid in sorted(unstable):
            frozen = {k: float(rng.randint(1, 3)) for k in unstable if k != eid}
            plans.append((precompute_plan(g, eid, frozen), frozen))
        for plan, values in plans:
            e = plan.edge_id
            view = g.copy()
            for k, value in values.items():
                set_unstable_weight(view, k, value)
            avoiding = constrained_mst_kruskal(view, Constraints(forbidden={e}))
            if isinstance(avoiding, Infeasible):
                assert plan.mst_s is None and plan.d_s == math.inf
            else:
                assert plan.mst_s.edge_ids == avoiding.edge_ids
                assert plan.d_s == tree_total_weight(avoiding, view)
            containing = constrained_mst_prim(view, e)
            assert plan.mst_v.edge_ids == containing.edge_ids
            assert plan.s_v == float(_exact_total(view, containing, e))


@pytest.mark.parametrize("changes", [0, 20])
def test_pickled_and_deep_copied_plan_sets_answer_as_the_original(changes):
    # A copy of a (graph, plan set) pair, fresh or after a change chain with
    # some changes to the threshold, holds equal trees, writes the same
    # bytes and answers every change as the original does.
    rng = random.Random(2727)
    unstable = rng.sample(range(39 + 120), 6)
    g = random_graph(rng, 40, 120, unstable=unstable)
    ps = precompute_all(g)
    for step in range(changes):
        eid = rng.choice(unstable)
        cv = ps.plans[eid].cv
        x = cv if cv < math.inf and step % 3 == 0 else float(rng.randint(1, 20))
        _, ps = apply_change(ps, g, eid, x)
    copies = [pickle.loads(pickle.dumps((g, ps))), copy.deepcopy((g, ps))]

    def answer(g, ps, eid, x):
        h = g.copy()
        selection, rebuilt = apply_change(ps, h, eid, x)
        return selection, plans_to_json(rebuilt, h)

    probes = [(eid, x) for eid in unstable for x in (ps.plans[eid].cv, 0.5, 30.0) if x < math.inf]
    answers = [answer(g, ps, eid, x) for eid, x in probes]
    text = plans_to_json(ps, g)
    for g2, ps2 in copies:
        assert ps2.plans.keys() == ps.plans.keys()
        for eid, plan in ps.plans.items():
            copied = ps2.plans[eid]
            for tree, tree2 in ((plan.mst_s, copied.mst_s), (plan.mst_v, copied.mst_v)):
                assert tree2 == tree and hash(tree2) == hash(tree)
        assert plans_to_json(ps2, g2) == text
        assert [answer(g2, ps2, eid, x) for eid, x in probes] == answers
    # A tree with no field set and no swap has no attribute, as any object.
    assert getattr(object.__new__(SpanningTree), "x", None) is None


def unfilled(ps) -> list:
    """The other trees of ``ps`` that nothing has filled yet, in plan order."""
    trees = (t for p in ps.plans.values() for t in (p.mst_s, p.mst_v))
    return [t for t in trees if t is not None and t._swap is not None]


def test_pickles_and_deep_copies_of_unfilled_trees_fill_neither_tree():
    # A copy writes an unfilled other tree as its swap: the original keeps
    # it unfilled, and the copy holds it unfilled over the copied graph and
    # shared tree, until a read fills it to the original's tree.
    rng = random.Random(128)
    unstable = rng.sample(range(199, 199 + 600), 32)
    g = random_graph(rng, 200, 600, unstable=unstable)
    ps = precompute_all(g)
    lazy = unfilled(ps)
    assert len(lazy) == 32
    # deepcopy first asks the tree for __deepcopy__; the probe fills nothing.
    assert getattr(lazy[0], "__deepcopy__", None) is None and lazy[0]._swap is not None
    assert copy.copy(lazy[0])._swap == lazy[0]._swap
    copies = [pickle.loads(pickle.dumps((g, ps))), copy.deepcopy((g, ps))]
    assert unfilled(ps) == lazy and all(t._swap is not None for t in lazy)
    for g2, ps2 in copies:
        copied = unfilled(ps2)
        (shared,) = _shared_trees(ps2)
        assert len(copied) == 32
        assert all(t._swap[0] is g2 and t._swap[1] is shared for t in copied)
        assert copied == lazy  # fills both
        assert plans_to_json(ps2, g2) == plans_to_json(ps, g)


def test_threads_reading_unfilled_trees_at_once_see_them_whole():
    # Two threads compare and read the same unfilled other trees, each
    # filling them whenever the other has not yet. The fill clears _swap
    # last, so a reader finds each tree unfilled or whole, never between.
    rng = random.Random(1500)
    n, extra = 1500, 4500
    weights = [rng.randint(1, 100_000) for _ in range(n - 1 + extra)]
    unstable = rng.sample(range(n - 1, n - 1 + extra), 512)
    g = random_graph(rng, n, extra, unstable=unstable, weights=weights)
    errors = []

    def read(trees, twins):
        for tree, twin in zip(trees, twins):
            try:
                assert tree == twin
                assert tree.stable_sum == twin.stable_sum and tree.edge_ids == twin.edge_ids
            except Exception as error:
                errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            trees, twins = unfilled(precompute_all(g)), unfilled(precompute_all(g))
            threads = [threading.Thread(target=read, args=(trees, twins)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, f"{len(errors)} failed reads, the first {errors[0]!r}"
