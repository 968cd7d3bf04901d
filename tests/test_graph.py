"""Graph construction, connectivity checks and weight replacement."""

import contextlib
import dataclasses
import io
import math
import random
import tracemalloc

import pytest
from helpers import M3_TEXT, PARALLEL_TEXT, edges, reference_tree

import mstplan.graph as graph_module
from mstplan import (
    Constraints,
    DisconnectedGraphError,
    DisjointSetUnion,
    Edge,
    EdgeKind,
    Error,
    GraphSyntaxError,
    NonFiniteWeightError,
    NotUnstableError,
    SelfLoopError,
    UnknownEdgeError,
    VertexOutOfRangeError,
    WeaklyDynamicGraph,
    apply_change,
    build_graph,
    constrained_mst_kruskal,
    constrained_mst_prim,
    format_graph,
    generate_graph,
    graph_fingerprint,
    is_connected,
    parse_graph,
    plans_from_json,
    plans_to_json,
    precompute_all,
    select_tree,
    set_unstable_weight,
    unstable_values,
)
from mstplan.cli import main


def test_single_stable_edge():
    g = build_graph(2, [(0, 1, 5.0, EdgeKind.STABLE)])
    assert g.n == 2
    assert g.num_edges == 1
    assert g.edge(0) == Edge(0, 0, 1, 5.0, EdgeKind.STABLE)
    assert g.unstable_ids == ()


def test_ids_follow_input_order(triangle):
    assert [e.id for e in edges(triangle)] == [0, 1, 2]
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


def test_a_graph_is_not_made_directly():
    # build_graph, parse_graph and copy() are the only ways to make a graph,
    # so every graph is checked and holds its kernel from birth.
    good = Edge(1, 1, 0, 1.0, EdgeKind.STABLE)
    for args in ((2, [good, good], (1,)), (-3, [], ()), ()):
        with pytest.raises(TypeError, match="build_graph or parse_graph"):
            WeaklyDynamicGraph(*args)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(3, [(0, 1, 1, "stable")])
    with pytest.raises(Error):
        build_graph(0, [])

    # A vertex count that is not an int is refused before any edge is read.
    def unread():
        raise AssertionError("an edge was read")
        yield

    path = [(0, 1, 1.0, "stable"), (1, 2, 1.0, "stable")]
    for n in (3.0, 2.5, "3", None):
        for specs in (path, unread()):
            with pytest.raises(Error) as info:
                build_graph(n, specs)
            assert type(info.value) is Error and "vertex count" in str(info.value)


def test_too_few_edges_to_connect_are_refused_before_the_kernel(monkeypatch):
    # Two edges on four vertices, or four that leave vertex 3 out: one message.
    e01, e12 = (0, 1, 1, "stable"), (1, 2, 1, "stable")
    for specs in ([e01] * 2, [e01, e01, e12, e12]):
        with pytest.raises(DisconnectedGraphError) as info:
            build_graph(4, specs)
        assert str(info.value) == "graph on 4 vertices is not connected by its full edge set"
    assert build_graph(1, []).kernel().supers == 1

    # A header of 10**9 vertices must not build lists of that size.
    def boom(g):
        raise AssertionError("a kernel build ran for too few edges")

    monkeypatch.setattr("mstplan.graph._build_kernel", boom)
    tracemalloc.start()
    try:
        for make in (
            lambda: parse_graph("p wdg 1000000000 0\n"),
            lambda: parse_graph("p wdg 1000000000 2\ne 0 1 1\ne 1 2 1\n"),
            lambda: build_graph(10**9, []),
        ):
            with pytest.raises(DisconnectedGraphError) as info:
                make()
            assert str(info.value) == (
                "graph on 1000000000 vertices is not connected by its full edge set"
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unknown_edge_lookup(triangle):
    # An id is an int in range: 2.0 and "1" name no edge, though 2 and 1 do.
    for bad in (3, -1, 1.5, 2.0, "1"):
        with pytest.raises(UnknownEdgeError):
            triangle.edge(bad)
        with pytest.raises(UnknownEdgeError):
            triangle.weight(bad)
        with pytest.raises(UnknownEdgeError):
            is_connected(triangle, {bad})


def test_reference_trees_are_spanning_trees_only(triangle):
    # The tests' reference builder takes n - 1 distinct int ids of edges
    # that close no cycle, whatever their order, and nothing else.
    assert reference_tree(triangle, [2, 0]) == constrained_mst_prim(triangle, 2)
    parallel = parse_graph(PARALLEL_TEXT)  # edges 0 and 1 join vertices 0 and 1
    bad = ([0], [0, 1, 2], [0, 0], [0, 3], [-1, 1], [0, 1.0], [0, "1"], [1, True], [True, 1])
    for g, ids in [(triangle, ids) for ids in bad] + [(parallel, [0, 1])]:
        with pytest.raises(ValueError):
            reference_tree(g, ids)


def test_a_bool_is_no_edge_id_endpoint_or_vertex_count():
    # bool subclasses int, but True and False name no edge, vertex or count:
    # each entry point refuses them as it refuses 1.0, before any change.
    g = build_graph(3, [(0, 1, 1.0, "unstable"), (1, 2, 2.0, "unstable"), (0, 2, 10.0, "stable")])
    ps = precompute_all(g)
    text = plans_to_json(ps, g)
    calls = (
        g.edge,
        g.weight,
        lambda eid: is_connected(g, {eid}),
        lambda eid: set_unstable_weight(g, eid, 9.0),
        lambda eid: apply_change(ps, g, eid, 9.0),
        lambda eid: constrained_mst_prim(g, eid),
        lambda eid: constrained_mst_kruskal(g, Constraints(mandatory={eid})),
    )
    for bad in (True, False, 1.0):
        for call in calls:
            with pytest.raises(UnknownEdgeError):
                call(bad)
    assert unstable_values(g) == {0: 1.0, 1: 2.0}
    assert plans_to_json(ps, g) == text
    for u, v in ((False, True), (0, True), (False, 1), (0.0, 1)):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(u, v, 1.0, "stable")])
    for n in (True, False, 1.0):
        with pytest.raises(Error) as info:
            build_graph(n, [])
        assert type(info.value) is Error and "vertex count" in str(info.value)


def test_is_connected_with_exclusions(triangle):
    assert is_connected(triangle, frozenset())
    assert is_connected(triangle, {2})
    assert not is_connected(triangle, {0, 1})
    path = build_graph(3, [(0, 1, 1, "stable"), (1, 2, 1, "stable")])
    assert not is_connected(path, {0})
    with pytest.raises(UnknownEdgeError):
        is_connected(triangle, {9})


def test_set_unstable_weight(triangle):
    before = edges(triangle)
    got = set_unstable_weight(triangle, 2, 7.5)
    assert got is triangle
    assert triangle.weight(2) == 7.5
    # only the one weight moved
    assert edges(triangle)[:2] == before[:2]
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


def test_a_parse_holds_and_keeps_little_memory():
    # Lines are split a chunk at a time, the token dict goes before the
    # kernel build, and the weights are one float64 array: a whole-text
    # splitlines() and a float object per weight peak near 5.8 MiB and
    # keep 3.0 MiB on this graph. Lines with other ends are cut into chunks
    # too; split whole, they peak near 5.9 MiB.
    plain = format_graph(generate_graph(10_000, 30_000, 8, 1))
    for end in ("\n", "\r", "\x0c", "\u2028"):
        text = plain.replace("\n", end)
        tracemalloc.start()
        try:
            g = parse_graph(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 2**20
        assert kept <= 2.3 * 2**20
    assert g._weight.typecode == "d"
    other = g.copy()
    eid = g.unstable_ids[0]
    before = g.weight(eid)
    set_unstable_weight(other, eid, before + 0.5)
    assert g.weight(eid) == before and other.weight(eid) == before + 0.5


def test_built_and_parsed_edges_are_frozen_edges():
    text = "p wdg 3 4\ne 0 1 2\ne 0 1 -0\nu 1 2 0.5\nu 0 2 7\n"
    specs = [(0, 1, 2, "stable"), (0, 1, -0.0, "stable"), (1, 2, 0.5, "unstable"), (0, 2, 7, "unstable")]
    parsed, built = parse_graph(text), build_graph(3, specs)
    assert dataclasses.is_dataclass(Edge) and Edge.__dataclass_params__.frozen
    for e in edges(parsed) + edges(built):
        assert type(e) is Edge and not hasattr(e, "__dict__")
        same = Edge(e.id, e.u, e.v, e.weight, e.kind)
        assert e == same and hash(e) == hash(same) and repr(e) == repr(same)
        for name in ("id", "u", "v", "weight", "kind"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, 1)
    assert edges(parsed) == edges(built)
    # A weight change reads back in a new edge; a copy keeps the old weight.
    copy = parsed.copy()
    old = parsed.edge(2)
    set_unstable_weight(parsed, 2, 9.0)
    assert old.weight == 0.5 and copy.edge(2) == old
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


def _dsu_kruskal(order, u, v, dsu, need):
    """What ``graph._kruskal`` returns, driven by ``DisjointSetUnion``."""
    tree = []
    for eid in order if need > 0 else ():
        if dsu.union(u[eid], v[eid]):
            tree.append(eid)
            if len(tree) == need:
                break
    return tree


def _partition(n, root):
    blocks = {}
    for x in range(n):
        blocks.setdefault(root(x), set()).add(x)
    return sorted(map(sorted, blocks.values()))


def _kruskal_cases(rng):
    """``(n, u, v, order)``: random multigraphs, then paths, stars and a caterpillar."""
    for _ in range(150):
        n = rng.randint(1, 25)
        ends = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 3 * n) if n > 1 else 0)]
        order = list(range(len(ends)))
        rng.shuffle(order)
        yield n, [a for a, _ in ends], [b for _, b in ends], order
    n = 60
    path = list(range(n - 1))
    yield n, path, [x + 1 for x in path], path  # ascending weight order
    yield n, path, [x + 1 for x in path], path[::-1]  # descending
    yield n, [n - 1] * (n - 1), path, path  # star on the highest index
    yield n, [0] * (n - 1), [x + 1 for x in path], path  # star on the lowest
    spine = n // 3  # a path with two legs on each of its vertices
    legs = [spine + x for x in range(n - spine)]
    u = list(range(spine - 1)) + [x % spine for x in range(n - spine)]
    v = list(range(1, spine)) + legs
    yield n, u, v, rng.sample(range(n - 1), n - 1)


def test_kruskal_takes_the_edges_and_makes_the_sets_of_a_union_find():
    # As _build_kernel does, a second call goes on with the first's parent list.
    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rng = random.Random(23)
    for n, u, v, order in _kruskal_cases(rng):
        parent, dsu = list(range(n)), DisjointSetUnion(n)
        cut = rng.randint(0, len(order))
        for part in (order[:cut], order[cut:]):
            need = rng.randint(-1, n)
            got = graph_module._kruskal(part, u, v, parent, need)
            assert got == _dsu_kruskal(part, u, v, dsu, need)
            assert _partition(n, root) == _partition(n, dsu.find)


def _columns(g):
    return list(zip(g._u, g._v, g._weight))


def _edge_fields(g):
    return [(e.u, e.v, e.weight) for e in edges(g)]


def _random_specs(rng):
    """A connected multigraph with float, ``-0.0`` and tied weights."""
    n = rng.randint(1, 8)
    pool = [0.0, -0.0, 1.0, 2.0, 0.1, 0.2, 0.3, -1.5, 1e-300, 2.5e15]
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 8) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
        if rng.random() < 0.3:
            pairs.append((v, u))  # a parallel edge
    rng.shuffle(pairs)
    specs = []
    for u, v in pairs:
        w = rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-5, 5)
        specs.append((u, v, w, rng.choice(["stable", "unstable"])))
    return n, specs


def _corrupt(rng, lines, n):
    """One edge line made bad, with the error the parse must raise."""
    lineno = rng.choice([i for i, line in enumerate(lines, 1) if line[:1] in ("e", "u")])
    tag, u, v, w = lines[lineno - 1].split()
    choice = rng.randrange(6)
    if choice == 0:
        bad = f"{tag} {u} x{v} {w}"
        error, message = GraphSyntaxError, f"bad endpoint 'x{v}'"
    elif choice == 1:
        bad = f"{tag} {u} {v} {w}?"
        error, message = GraphSyntaxError, f"bad weight '{w}?'"
    elif choice == 2:
        token = rng.choice(["inf", "-inf", "nan"])
        bad = f"{tag} {u} {v} {token}"
        error, message = GraphSyntaxError, f"weight must be finite, got '{token}'"
    elif choice == 3:
        bad = f"{tag} {u} {n} {w}"
        error = VertexOutOfRangeError
        message = f"edge ({u}, {n}) has an endpoint outside 0..{n - 1}"
    elif choice == 4:
        bad = f"{tag} {u} {u} {w}"
        error, message = SelfLoopError, f"self-loop at vertex {u}"
    else:
        bad = f"{tag} {u} {v}"
        error, message = GraphSyntaxError, f"edge line needs '{tag} <u> <v> <weight>'"
    lines[lineno - 1] = bad
    return lineno, error, f"line {lineno}: {message}"


def test_every_way_to_make_a_graph_stores_the_same_graph():
    rng = random.Random(20261018)
    for _ in range(320):
        n, specs = _random_specs(rng)
        built = build_graph(n, specs)
        text = format_graph(built)
        parsed = parse_graph(text)
        unstable = tuple(i for i, spec in enumerate(specs) if spec[3] == "unstable")
        kinds = {"stable": EdgeKind.STABLE, "unstable": EdgeKind.UNSTABLE}
        passed = [Edge(i, u, v, float(w), kinds[k]) for i, (u, v, w, k) in enumerate(specs)]
        rebuilt = build_graph(n, [(e.u, e.v, e.weight, e.kind) for e in edges(parsed)])
        copied = built.copy()
        assert copied.kernel() is built.kernel()  # only a copy shares the kernel
        for g in (built, parsed, rebuilt, copied):
            assert g.n == n and g.unstable_ids == unstable
            assert g._kernel is not None and g.kernel().forced == built.kernel().forced
            assert unstable_values(g) == unstable_values(built)
            assert graph_fingerprint(g) == graph_fingerprint(built)
            assert _columns(g) == [(u, v, w) for u, v, w, _ in specs]
            assert edges(g) == passed
            assert format_graph(g) == text

        # A weight change writes the column, and the edge reads it back.
        changed_graph = parse_graph(text)
        before = edges(changed_graph)
        copy = changed_graph.copy()
        changed = rng.sample(unstable, min(3, len(unstable)))
        for eid in changed:
            x = rng.choice([-0.0, 0.1, 7.0, rng.uniform(-9, 9)])
            set_unstable_weight(changed_graph, eid, x)
            assert changed_graph.weight(eid) == changed_graph.edge(eid).weight == x
        assert _edge_fields(changed_graph) == _columns(changed_graph)
        for old, new in zip(before, edges(changed_graph), strict=True):
            moved = old.id in changed
            assert new == (dataclasses.replace(old, weight=new.weight) if moved else old)
        # The copy kept the old weights.
        assert edges(copy) == before
        assert _columns(copy) == _edge_fields(copy)
        assert graph_fingerprint(copy) == graph_fingerprint(parse_graph(text))

        if n > 1:
            lines = text.splitlines()
            for i in sorted(rng.sample(range(1, len(lines) + 1), 2), reverse=True):
                lines.insert(i, rng.choice(["", "c a comment", "   "]))
            lineno, error, message = _corrupt(rng, lines, n)
            with pytest.raises(error) as info:
                parse_graph("\n".join(lines) + "\n")
            assert type(info.value) is error and str(info.value) == message
            if error is GraphSyntaxError:
                assert info.value.line == lineno


def test_no_edge_object_is_built_to_load_plan_or_answer(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an Edge object was built")

    monkeypatch.setattr(Edge, "__init__", refuse)
    text = format_graph(generate_graph(1200, 3600, 8, seed=7))
    g = parse_graph(text)
    fingerprint = graph_fingerprint(g)
    ps = precompute_all(g)
    plan_text = plans_to_json(ps, g)
    assert plans_from_json(plan_text, g).plans == ps.plans
    rng = random.Random(3)
    for _ in range(30):
        eid = rng.choice(g.unstable_ids)
        x = ps.plans[eid].cv + rng.randint(-50, 49)
        select_tree(ps.plans[eid], x)
        _, ps = apply_change(ps, g, eid, x)
    assert graph_fingerprint(g) != fingerprint

    graph, plan = tmp_path / "g.graph", tmp_path / "g.plan"
    graph.write_text(text, encoding="utf-8")
    plan.write_text(plan_text, encoding="utf-8")
    eid = g.unstable_ids[0]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["query", str(plan), str(graph), "--edge", str(eid), "--x", "5"]) == 0
    assert out.getvalue().startswith(("variable ", "stable "))

    # The oracle reads the columns too: one verify run enumerates the trees,
    # and finds critical values, catalog minima and tree totals.
    graph.write_text(M3_TEXT, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", str(graph)]) == 0
    assert out.getvalue().count(" OK\n") > 3 and "MISMATCH" not in out.getvalue()
