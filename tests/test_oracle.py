"""The exhaustive oracle must be right before anything else can be tested
against it, so it gets its own checks: enumeration versus the determinant
count, and the threshold versus its defining grid property."""

import math
import random

import pytest
from helpers import random_graph, reference_tree

from mstplan import (
    FORBIDDEN_DISCONNECTS,
    MANDATORY_CYCLE,
    Constraints,
    Error,
    Infeasible,
    NotUnstableError,
    TooLargeError,
    brute_constrained_min,
    brute_critical_value,
    build_graph,
    catalog_total,
    count_spanning_trees,
    enumerate_spanning_trees,
    max_weight_on_tree_path,
    set_unstable_weight,
)
from mstplan.constrained import _whole_tree


def test_triangle_has_three_trees(triangle):
    catalog = enumerate_spanning_trees(triangle)
    assert set(catalog.trees) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    assert len(catalog.trees) == 3
    assert count_spanning_trees(triangle) == 3


def test_complete_graph_tree_count():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k4 = build_graph(4, [(u, v, 1, "stable") for u, v in pairs])
    catalog = enumerate_spanning_trees(k4)
    assert len(catalog.trees) == 16
    assert count_spanning_trees(k4) == 16


def test_tree_shaped_graph_has_one_tree():
    path = build_graph(4, [(0, 1, 1, "stable"), (1, 2, 2, "stable"), (2, 3, 3, "stable")])
    catalog = enumerate_spanning_trees(path)
    assert catalog.trees == (frozenset({0, 1, 2}),)
    assert count_spanning_trees(path) == 1


def test_parallel_edges_count_separately():
    g = build_graph(2, [(0, 1, 1, "stable"), (0, 1, 2, "stable")])
    assert len(enumerate_spanning_trees(g).trees) == 2
    assert count_spanning_trees(g) == 2


def test_size_cap():
    g = build_graph(2, [(0, 1, i + 1, "stable") for i in range(25)])
    with pytest.raises(TooLargeError):
        enumerate_spanning_trees(g)


def test_catalog_total_uses_current_values(triangle):
    catalog = enumerate_spanning_trees(triangle)
    assert catalog_total(catalog, frozenset({0, 1})) == 3.0
    set_unstable_weight(triangle, 2, 0.5)
    assert catalog_total(catalog, frozenset({0, 2})) == 1.5


def test_enumeration_matches_determinant():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(0, 5))
        assert len(enumerate_spanning_trees(g).trees) == count_spanning_trees(g)


def test_brute_constrained_min_examples():
    g = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 2, "stable"), (0, 2, 3, "stable")])
    catalog = enumerate_spanning_trees(g)
    best = brute_constrained_min(catalog)
    assert best.edge_ids == {0, 1}
    t = brute_constrained_min(catalog, Constraints(mandatory={2}))
    assert catalog_total(catalog, t.edge_ids) == 4.0
    got = brute_constrained_min(catalog, Constraints(forbidden={0, 1}))
    assert got == Infeasible(FORBIDDEN_DISCONNECTS)


def test_brute_constrained_min_mandatory_cycle():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k4 = build_graph(4, [(u, v, 1, "stable") for u, v in pairs])
    catalog = enumerate_spanning_trees(k4)
    got = brute_constrained_min(catalog, Constraints(mandatory={0, 1, 3}))
    assert got == Infeasible(MANDATORY_CYCLE)


def test_brute_ties_break_lexicographically():
    g = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 1, "stable"), (0, 2, 1, "stable")])
    best = brute_constrained_min(enumerate_spanning_trees(g))
    assert best.edge_ids == {0, 1}


def test_brute_critical_value_examples(triangle, threshold8):
    assert brute_critical_value(triangle, 2) == 2.0
    assert brute_critical_value(threshold8, 5) == 8.0
    single = build_graph(2, [(0, 1, 5, "unstable")])
    assert brute_critical_value(single, 0) == math.inf
    with pytest.raises(NotUnstableError):
        brute_critical_value(triangle, 0)


def test_critical_value_grid_property():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(3, 7)
        extra = rng.randint(1, 4)
        eid = n - 1 + rng.randrange(extra)
        g = random_graph(rng, n, extra, unstable={eid})
        cv = brute_critical_value(g, eid)
        catalog = enumerate_spanning_trees(g)
        for x in (cv - 1.5, cv - 0.5, cv + 0.5, cv + 1.5):
            set_unstable_weight(g, eid, x)
            totals = {t: catalog_total(catalog, t) for t in catalog.trees}
            best = min(totals.values())
            optima = [t for t, total in totals.items() if total == best]
            if x < cv:
                assert all(eid in t for t in optima)
            else:
                assert any(eid not in t for t in optima)


def test_max_weight_on_tree_path():
    path = build_graph(3, [(0, 1, 4, "stable"), (1, 2, 9, "stable")])
    t = reference_tree(path, {0, 1})
    assert max_weight_on_tree_path(t, path, 0, 2) == 9.0
    assert max_weight_on_tree_path(t, path, 0, 1) == 4.0

    star = build_graph(4, [(0, 1, 1, "stable"), (0, 2, 2, "stable"), (0, 3, 3, "stable")])
    t = reference_tree(star, {0, 1, 2})
    assert max_weight_on_tree_path(t, star, 1, 3) == 3.0


def test_max_weight_skips_unstable_members(triangle):
    # tree {1, 2}: the 0-1 path crosses the unstable edge and one stable edge
    t = reference_tree(triangle, {1, 2})
    assert max_weight_on_tree_path(t, triangle, 0, 1) == 2.0


def test_max_weight_on_avoiding_tree_equals_threshold(triangle):
    t = reference_tree(triangle, {0, 1})
    e = triangle.edge(2)
    assert max_weight_on_tree_path(t, triangle, e.u, e.v) == 2.0


def test_max_weight_error_cases(triangle):
    t = reference_tree(triangle, {0, 1})
    with pytest.raises(Error):
        max_weight_on_tree_path(t, triangle, 1, 1)
    partial = _whole_tree(triangle, frozenset({0}), triangle._weight)  # not a spanning tree
    with pytest.raises(Error):
        max_weight_on_tree_path(partial, triangle, 0, 2)
    single = build_graph(2, [(0, 1, 5, "unstable")])
    only = reference_tree(single, {0})
    with pytest.raises(Error):
        max_weight_on_tree_path(only, single, 0, 1)


def test_brute_critical_value_respects_other_current_values():
    g = build_graph(
        3, [(0, 1, 5, "unstable"), (1, 2, 6, "unstable"), (0, 2, 4, "stable")]
    )
    assert brute_critical_value(g, 0) == 6.0
    set_unstable_weight(g, 1, 1.0)
    assert brute_critical_value(g, 0) == 4.0
