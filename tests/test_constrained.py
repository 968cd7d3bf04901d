"""Constrained spanning tree search: both algorithms against each other and
against exhaustive enumeration on small random instances."""

import random

import pytest
from helpers import assert_valid_tree, random_constraints, random_graph, reference_tree

from mstplan import (
    FORBIDDEN_DISCONNECTS,
    MANDATORY_CYCLE,
    Constraints,
    Infeasible,
    InvalidConstraintsError,
    UnknownEdgeError,
    build_graph,
    constrained_mst_kruskal,
    constrained_mst_prim,
    enumerate_spanning_trees,
    brute_constrained_min,
    set_unstable_weight,
    tree_total_weight,
)


def tri123():
    return build_graph(
        3, [(0, 1, 1, "stable"), (1, 2, 2, "stable"), (0, 2, 3, "stable")]
    )


def k4_unit():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return build_graph(4, [(u, v, 1, "stable") for u, v in pairs])


def test_unconstrained_minimum():
    g = tri123()
    t = constrained_mst_kruskal(g)
    assert t.edge_ids == {0, 1}
    assert tree_total_weight(t, g) == 3.0


def test_mandatory_heaviest_edge():
    g = tri123()
    t = constrained_mst_kruskal(g, Constraints(mandatory={2}))
    assert 2 in t.edge_ids
    assert tree_total_weight(t, g) == 4.0


def test_forbidden_cheapest_edge():
    g = tri123()
    t = constrained_mst_kruskal(g, Constraints(forbidden={0}))
    assert t.edge_ids == {1, 2}
    assert tree_total_weight(t, g) == 5.0


def test_mandatory_cycle_infeasible():
    g = k4_unit()
    # edges 0,1,3 form the triangle 0-1-2
    got = constrained_mst_kruskal(g, Constraints(mandatory={0, 1, 3}))
    assert got == Infeasible(MANDATORY_CYCLE)


def test_forbidden_disconnects_infeasible():
    path = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 1, "stable")])
    got = constrained_mst_kruskal(path, Constraints(forbidden={1}))
    assert got == Infeasible(FORBIDDEN_DISCONNECTS)


def test_prim_seed_heaviest_edge():
    g = tri123()
    t = constrained_mst_prim(g, 2)
    assert 2 in t.edge_ids
    assert tree_total_weight(t, g) == 4.0


def test_prim_two_vertex_graph():
    g = build_graph(2, [(0, 1, 9, "stable")])
    t = constrained_mst_prim(g, 0)
    assert t.edge_ids == {0}


def test_prim_forbidden_disconnects():
    path = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 1, "stable")])
    assert constrained_mst_prim(path, 0, {1}) == Infeasible(FORBIDDEN_DISCONNECTS)


def test_prim_rejects_forbidden_seed():
    g = tri123()
    with pytest.raises(InvalidConstraintsError):
        constrained_mst_prim(g, 0, {0})
    with pytest.raises(UnknownEdgeError):
        constrained_mst_prim(g, 7)
    with pytest.raises(UnknownEdgeError):
        constrained_mst_prim(g, 0, {7})


def test_overlapping_constraints_rejected():
    g = tri123()
    with pytest.raises(InvalidConstraintsError):
        constrained_mst_kruskal(g, Constraints(mandatory={0}, forbidden={0}))
    with pytest.raises(UnknownEdgeError):
        constrained_mst_kruskal(g, Constraints(mandatory={5}))


def test_constraints_coerce_to_frozensets():
    c = Constraints(mandatory=[1, 1, 2], forbidden=(0,))
    assert c.mandatory == frozenset({1, 2})
    assert c.forbidden == frozenset({0})


def test_unstable_edges_count_at_current_value(triangle):
    t = constrained_mst_kruskal(triangle)
    assert t.edge_ids == {0, 1}
    set_unstable_weight(triangle, 2, 0.5)
    t = constrained_mst_kruskal(triangle)
    assert 2 in t.edge_ids
    assert tree_total_weight(t, triangle) == 1.5


def test_tree_total_weight_tracks_current_values(threshold8):
    variable = reference_tree(threshold8, {0, 1, 3, 4, 5})
    stable = reference_tree(threshold8, {0, 1, 2, 3, 4})
    set_unstable_weight(threshold8, 5, 7.0)
    assert tree_total_weight(variable, threshold8) == 39.0
    assert tree_total_weight(stable, threshold8) == 40.0
    set_unstable_weight(threshold8, 5, 8.0)
    assert tree_total_weight(variable, threshold8) == 40.0
    single = build_graph(2, [(0, 1, 5, "unstable")])
    assert tree_total_weight(reference_tree(single, {0}), single) == 5.0


def test_deterministic_under_ties():
    g = k4_unit()
    first = constrained_mst_kruskal(g)
    second = constrained_mst_kruskal(g)
    assert first.edge_ids == second.edge_ids
    assert constrained_mst_prim(g, 5).edge_ids == constrained_mst_prim(g, 5).edge_ids


def test_agrees_with_enumeration():
    rng = random.Random(101)
    feasible = infeasible = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(0, 4))
        cons = random_constraints(rng, g)
        catalog = enumerate_spanning_trees(g)
        got = constrained_mst_kruskal(g, cons)
        want = brute_constrained_min(catalog, cons)
        if isinstance(want, Infeasible):
            assert got == want
            infeasible += 1
        else:
            assert_valid_tree(got, g, cons)
            assert tree_total_weight(got, g) == tree_total_weight(want, g)
            feasible += 1
    assert feasible and infeasible  # the corpus exercised both outcomes


def test_prim_matches_kruskal_single_mandatory():
    rng = random.Random(202)
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(0, 4))
        seed = rng.randrange(g.num_edges)
        rest = [i for i in range(g.num_edges) if i != seed]
        rng.shuffle(rest)
        forbidden = frozenset(rest[: rng.randint(0, min(3, len(rest)))])
        got_p = constrained_mst_prim(g, seed, forbidden)
        got_k = constrained_mst_kruskal(
            g, Constraints(mandatory={seed}, forbidden=forbidden)
        )
        if isinstance(got_k, Infeasible):
            assert got_p == got_k
        else:
            assert_valid_tree(got_p, g)
            assert seed in got_p.edge_ids
            assert not (forbidden & got_p.edge_ids)
            assert tree_total_weight(got_p, g) == tree_total_weight(got_k, g)


def test_adding_constraints_never_cheapens():
    rng = random.Random(404)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(1, 4))
        base = random_constraints(rng, g)
        before = constrained_mst_kruskal(g, base)
        if isinstance(before, Infeasible):
            continue
        free = [i for i in range(g.num_edges) if i not in base.mandatory | base.forbidden]
        if not free:
            continue
        extra = rng.choice(free)
        for tightened in (
            Constraints(base.mandatory | {extra}, base.forbidden),
            Constraints(base.mandatory, base.forbidden | {extra}),
        ):
            after = constrained_mst_kruskal(g, tightened)
            if isinstance(after, Infeasible):
                continue
            assert tree_total_weight(after, g) >= tree_total_weight(before, g)
