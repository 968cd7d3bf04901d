"""Graph construction, connectivity checks and weight replacement."""

import dataclasses
import math
import random

import pytest

from mstplan import (
    DisconnectedGraphError,
    DisjointSetUnion,
    Edge,
    EdgeKind,
    Error,
    NonFiniteWeightError,
    NotUnstableError,
    SelfLoopError,
    UnknownEdgeError,
    VertexOutOfRangeError,
    build_graph,
    is_connected,
    parse_graph,
    set_unstable_weight,
    unstable_values,
)


def test_single_stable_edge():
    g = build_graph(2, [(0, 1, 5.0, EdgeKind.STABLE)])
    assert g.n == 2
    assert g.num_edges == 1
    assert g.edge(0) == Edge(0, 0, 1, 5.0, EdgeKind.STABLE)
    assert g.unstable_ids == ()


def test_ids_follow_input_order(triangle):
    assert [e.id for e in triangle.edges] == [0, 1, 2]
    assert triangle.edge(2).kind is EdgeKind.UNSTABLE
    assert triangle.unstable_ids == (2,)
    assert triangle.weight(2) == 10.0


def test_kind_accepts_strings():
    g = build_graph(2, [(0, 1, 5, "unstable")])
    assert g.unstable_ids == (0,)
    with pytest.raises(Error):
        build_graph(2, [(0, 1, 5, "wobbly")])


def test_parallel_edges_are_distinct():
    g = build_graph(2, [(0, 1, 1, "stable"), (0, 1, 2, "stable")])
    assert g.num_edges == 2
    assert g.edge(0).weight == 1.0
    assert g.edge(1).weight == 2.0


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0, 1, "stable"), (0, 1, 1, "stable")])


def test_endpoint_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(0, 2, 1, "stable")])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(-1, 1, 1, "stable")])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(0.0, 1, 1, "stable")])


def test_nonfinite_weight_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteWeightError):
            build_graph(2, [(0, 1, bad, "stable")])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(3, [(0, 1, 1, "stable")])
    with pytest.raises(Error):
        build_graph(0, [])


def test_unknown_edge_lookup(triangle):
    with pytest.raises(UnknownEdgeError):
        triangle.edge(3)
    with pytest.raises(UnknownEdgeError):
        triangle.edge(-1)


def test_is_connected_with_exclusions(triangle):
    assert is_connected(triangle, frozenset())
    assert is_connected(triangle, {2})
    assert not is_connected(triangle, {0, 1})
    path = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 1, "stable")])
    assert not is_connected(path, {0})
    with pytest.raises(UnknownEdgeError):
        is_connected(triangle, {9})


def test_set_unstable_weight(triangle):
    before = list(triangle.edges)
    got = set_unstable_weight(triangle, 2, 7.5)
    assert got is triangle
    assert triangle.weight(2) == 7.5
    # only the one weight moved
    assert triangle.edges[:2] == before[:2]
    e = triangle.edge(2)
    assert (e.id, e.u, e.v, e.kind) == (2, 0, 2, EdgeKind.UNSTABLE)


def test_set_unstable_weight_zero_ok(triangle):
    set_unstable_weight(triangle, 2, 0.0)
    assert triangle.weight(2) == 0.0


def test_set_unstable_weight_rejections(triangle):
    with pytest.raises(NotUnstableError):
        set_unstable_weight(triangle, 0, 4.0)
    with pytest.raises(UnknownEdgeError):
        set_unstable_weight(triangle, 8, 4.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(NonFiniteWeightError):
            set_unstable_weight(triangle, 2, bad)
    assert triangle.weight(2) == 10.0


def test_unstable_values(triangle):
    assert unstable_values(triangle) == {2: 10.0}
    set_unstable_weight(triangle, 2, 3.25)
    assert unstable_values(triangle) == {2: 3.25}


def test_copy_isolates_weights(triangle):
    other = triangle.copy()
    set_unstable_weight(other, 2, 99.0)
    assert triangle.weight(2) == 10.0
    assert other.weight(2) == 99.0


def test_built_and_parsed_edges_are_frozen_edges():
    text = "p wdg 3 4\ne 0 1 2\ne 0 1 -0\nu 1 2 0.5\nu 0 2 7\n"
    specs = [(0, 1, 2, "stable"), (0, 1, -0.0, "stable"), (1, 2, 0.5, "unstable"), (0, 2, 7, "unstable")]
    parsed, built = parse_graph(text), build_graph(3, specs)
    assert dataclasses.is_dataclass(Edge) and Edge.__dataclass_params__.frozen
    for e in parsed.edges + built.edges:
        assert type(e) is Edge and not hasattr(e, "__dict__")
        same = Edge(e.id, e.u, e.v, e.weight, e.kind)
        assert e == same and hash(e) == hash(same) and repr(e) == repr(same)
        for name in ("id", "u", "v", "weight", "kind"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, 1)
    assert parsed.edges == built.edges
    # A weight change replaces the edge, so a copy keeps the old one.
    copy = parsed.copy()
    old = parsed.edge(2)
    set_unstable_weight(parsed, 2, 9.0)
    assert old.weight == 0.5 and copy.edge(2) is old
    assert parsed.edge(2) == Edge(2, 1, 2, 9.0, EdgeKind.UNSTABLE)


def test_dsu_tracks_components():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 30)
        dsu = DisjointSetUnion(n)
        merges = 0
        for _ in range(rng.randint(0, 60)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            before = dsu.find(a) == dsu.find(b)
            did = dsu.union(a, b)
            assert did == (not before)
            merges += did
            assert dsu.find(a) == dsu.find(b)
        assert dsu.components == n - merges
