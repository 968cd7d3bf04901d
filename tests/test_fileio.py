"""Text formats: graph files, plan files, event streams, random instances."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import struct

import pytest
from helpers import (
    BRIDGE_TEXT,
    M3_TEXT,
    PARALLEL_TEXT,
    THRESHOLD8_TEXT,
    TRIANGLE_TEXT,
    _exact_total,
    edges,
    plan_sets_equal,
    random_graph,
    random_pairs,
    reference_fingerprint,
    tamper_one_weight,
)

from mstplan import (
    DisconnectedGraphError,
    EdgeKind,
    Error,
    EventSyntaxError,
    FingerprintMismatchError,
    GraphSyntaxError,
    NonFiniteWeightError,
    PlanFormatError,
    PlanSet,
    SelfLoopError,
    SpanningTree,
    VertexOutOfRangeError,
    format_events,
    format_graph,
    format_value,
    apply_change,
    build_graph,
    constrained_mst_kruskal,
    generate_graph,
    graph_fingerprint,
    parse_events,
    parse_graph,
    plans_from_json,
    plans_to_json,
    precompute_all,
    read_graph,
    read_plans,
    set_unstable_weight,
    select_tree,
    tree_total_weight,
    write_graph,
    write_plans,
)
from mstplan.cli import main
from mstplan.fileio import _CHUNK, _NEGATIVE_ZERO
from mstplan.graph import Kernel


def test_format_value():
    assert format_value(40.0) == "40"
    assert format_value(0.5) == "0.5"
    assert format_value(-3.0) == "-3"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(10.0**6) == "1000000"


# --------------------------------------------------------------------------
# graph files


def test_parse_fixture(triangle):
    assert triangle.n == 3
    assert triangle.num_edges == 3
    assert triangle.unstable_ids == (2,)
    assert triangle.edge(0).kind is EdgeKind.STABLE
    assert triangle.edge(2).weight == 10.0


def test_canonical_text_round_trips():
    for text in (TRIANGLE_TEXT, THRESHOLD8_TEXT, BRIDGE_TEXT, M3_TEXT, PARALLEL_TEXT):
        assert format_graph(parse_graph(text)) == text


def test_comments_and_blank_lines_ignored():
    text = (
        "c a remark\n"
        "\n"
        "p wdg 3 3\n"
        "c another remark\n"
        "e 0 1 1\n"
        "e 1 2 2\n"
        "\n"
        "u 0 2 10\n"
        "c trailing\n"
    )
    assert format_graph(parse_graph(text)) == TRIANGLE_TEXT


def test_single_vertex_graph():
    g = parse_graph("p wdg 1 0\n")
    assert g.n == 1 and g.num_edges == 0
    assert format_graph(g) == "p wdg 1 0\n"


def test_fractional_weights_survive():
    g = parse_graph("p wdg 2 1\ne 0 1 2.25\n")
    assert g.weight(0) == 2.25
    assert format_graph(g) == "p wdg 2 1\ne 0 1 2.25\n"


def graph_syntax_error(text):
    with pytest.raises(GraphSyntaxError) as info:
        parse_graph(text)
    return info.value


def test_parse_error_line_numbers():
    err = graph_syntax_error("p wdg 2 1\np wdg 2 1\ne 0 1 1\n")
    assert err.line == 2 and "duplicate" in str(err)
    err = graph_syntax_error("e 0 1 1\np wdg 2 1\n")
    assert err.line == 1
    err = graph_syntax_error("p wdg 2 1\nq 0 1 1\n")
    assert err.line == 2 and "unknown record" in str(err)
    err = graph_syntax_error("p wdg x 1\ne 0 1 1\n")
    assert err.line == 1
    err = graph_syntax_error("p wdg 2 1\ne 0 1\n")
    assert err.line == 2
    err = graph_syntax_error("p wdg 2 1\ne 0 1 inf\n")
    assert err.line == 2 and "finite" in str(err)
    err = graph_syntax_error("p wdg 2 1\ne 0 one 1\n")
    assert err.line == 2


def test_parse_errors_without_a_line():
    err = graph_syntax_error("c empty\n")
    assert err.line is None and "missing" in str(err)
    err = graph_syntax_error("p wdg 2 2\ne 0 1 1\n")
    assert err.line is None and "declares 2" in str(err)


def test_header_sanity():
    graph_syntax_error("p wdg 0 0\n")
    graph_syntax_error("p wdg 2 -1\ne 0 1 1\n")
    graph_syntax_error("p other 2 1\ne 0 1 1\n")
    graph_syntax_error("p wdg 2\ne 0 1 1\n")


def test_edge_validation_reports_line():
    with pytest.raises(SelfLoopError) as info:
        parse_graph("p wdg 2 2\ne 0 1 1\ne 1 1 4\n")
    assert str(info.value).startswith("line 3:")
    with pytest.raises(Error) as info:
        parse_graph("p wdg 2 1\ne 0 5 1\n")
    assert str(info.value).startswith("line 2:")


def test_bad_edge_line_reported_before_header_count():
    # Edges are checked as their lines are read, so a bad edge comes first
    # even when the file also has fewer edge lines than its header declares.
    with pytest.raises(SelfLoopError) as info:
        parse_graph("p wdg 3 5\ne 0 1 1\ne 2 2 1\n")
    assert str(info.value) == "line 3: self-loop at vertex 2"
    with pytest.raises(VertexOutOfRangeError) as info:
        parse_graph("p wdg 3 5\ne 0 3 1\n")
    assert str(info.value).startswith("line 2: edge (0, 3)")
    err = graph_syntax_error("p wdg 3 5\ne 0 1 nan\n")
    assert err.line == 2 and "finite" in str(err)
    err = graph_syntax_error("p wdg 3 5\ne 0 1 1\ne 1 2 2\n")
    assert err.line is None and "declares 5" in str(err)


def test_endpoint_spellings_name_one_vertex():
    path = "".join(f"e {i} {i + 1} 1\n" for i in range(2, 10))
    plain = parse_graph(f"p wdg 11 11\n{path}e 1 2 5\ne 2 0 3\nu 10 1 4\n")
    for edges in ("e 01 2 5\ne +2 0 3\nu 1_0 1 4\n", "e 1 002 5\ne 2 -0 3\nu 10 +1 4\n"):
        g = parse_graph(f"p wdg 11 11\n{path}{edges}")
        assert format_graph(g) == format_graph(plain)
        assert graph_fingerprint(g) == graph_fingerprint(plain)
        assert g.unstable_ids == plain.unstable_ids
    with pytest.raises(SelfLoopError) as info:
        parse_graph("p wdg 2 2\ne 0 1 1\ne 1 01 4\n")
    assert str(info.value) == "line 3: self-loop at vertex 1"


def test_parse_keeps_one_int_per_vertex():
    g = generate_graph(1500, 4500, 8, seed=3)
    lines = format_graph(g).splitlines(keepends=True)
    # "e 12 7 3" -> "e 012 07 3" on the first 500 edge lines, plain after them
    padded = [line.replace(" ", " 0", 2) for line in lines[1:501]]
    spelled = "".join([lines[0], *padded, *lines[501:]])
    for text in (format_graph(g), spelled):
        parsed = parse_graph(text)
        assert graph_fingerprint(parsed) == graph_fingerprint(g)
        assert len({id(x) for x in parsed._u + parsed._v}) <= parsed.n


def mixed_line_ends(lines):
    """``lines`` joined so that ``\r`` and ``\x0c`` ends come just before and
    just after each cut ``parse_graph`` makes, and ``\r\n`` on it; also the
    indices of the lines that end a chunk."""
    pieces, size, start, last = [], 0, 0, []
    after = 0  # lines still to end without a \n after a cut
    for i, line in enumerate(lines):
        size += len(line)
        if after:
            end, after = "\r\x0c"[after % 2], after - 1
        elif size + 2 <= start + _CHUNK - 60:
            end = "\n"
        elif size + 1 < start + _CHUNK:
            end = "\x0c\r"[i % 2]  # a break here comes before the cut
        else:
            end, after = "\r\n", 2  # the first break to end past start + _CHUNK
            last.append(i)
            start = size + 2
        pieces.append(line + end)
        size += len(end)
    return "".join(pieces), last


def test_chunk_cuts_keep_lines_and_line_numbers():
    plain = format_graph(generate_graph(4000, 8000, 8, seed=11))
    lines = plain.splitlines()
    want = parse_graph(plain)
    _, mixed_last = mixed_line_ends(lines)
    joins = {"mixed": lambda lines: mixed_line_ends(lines)[0]}
    for end in ("\n", "\r", "\r\n", "\x0c", "\u2028"):
        joins[repr(end)] = lambda lines, end=end: end.join(lines) + end
    for name, join in joins.items():
        text = join(lines)
        assert len(text) > 3 * _CHUNK and text.splitlines() == lines, name
        # Each chunk runs to the first line end past _CHUNK characters into it.
        ends = itertools.accumulate(map(len, text.splitlines(keepends=True)))
        last, start = [], 0
        for i, end in enumerate(ends):
            if end > start + _CHUNK:
                last.append(i)
                start = end
        assert len(last) >= 3 and (name != "mixed" or last == mixed_last), name
        g = parse_graph(text)
        assert (g.n, g._u, g._v, g._weight, g.unstable_ids) == (
            want.n, want._u, want._v, want._weight, want.unstable_ids,
        ), name
        assert graph_fingerprint(g) == graph_fingerprint(want), name
        # A bad line of the same length, last or first in a chunk, keeps
        # every cut where it was.
        for i in last + [i + 1 for i in last]:
            bad = join(lines[:i] + ["q" + lines[i][1:]] + lines[i + 1:])
            assert graph_syntax_error(bad).line == i + 1, name


@pytest.mark.parametrize(
    "u, v, w, error",
    [
        (1, 1, 1.0, SelfLoopError),
        (0, 3, 1.0, VertexOutOfRangeError),
        (-1, 1, 1.0, VertexOutOfRangeError),
        (0, 1, math.inf, NonFiniteWeightError),
        (0, 1, math.nan, NonFiniteWeightError),
    ],
)
def test_build_graph_refuses_what_the_parse_refuses(u, v, w, error):
    with pytest.raises(error):
        build_graph(3, [(0, 1, 1.0, "stable"), (1, 2, 1.0, "stable"), (u, v, w, "stable")])
    with pytest.raises(Error) as info:
        parse_graph(f"p wdg 3 3\ne 0 1 1\ne 1 2 1\ne {u} {v} {w}\n")
    assert str(info.value).startswith("line 4:")


def test_graph_file_round_trip_on_disk(tmp_path, threshold8):
    path = tmp_path / "g.graph"
    write_graph(threshold8, path)
    again = read_graph(path)
    assert edges(again) == edges(threshold8)
    assert again.unstable_ids == threshold8.unstable_ids


def test_fingerprint_tracks_content(triangle):
    fp = graph_fingerprint(triangle)
    assert fp["n"] == 3 and fp["edges"] == 3
    assert fp == graph_fingerprint(parse_graph(TRIANGLE_TEXT))
    other = parse_graph(tamper_one_weight(TRIANGLE_TEXT))
    assert graph_fingerprint(other)["sha256"] != fp["sha256"]


def _edited(g, replaced):
    """``g`` with the edges at the given ids replaced; None if they disconnect it."""
    specs = [(e.u, e.v, e.weight, e.kind) for e in edges(g)]
    for i, e in replaced.items():
        specs[i] = (e.u, e.v, e.weight, e.kind)
    try:
        return build_graph(g.n, specs)
    except DisconnectedGraphError:
        return None


def test_fingerprint_agrees_across_paths_and_tracks_every_field(tmp_path):
    rng = random.Random(4242)
    moved = 0  # graphs with one endpoint moved that stay connected
    draws = (
        lambda: rng.choice((0.0, -0.0, 1.0, -1.0, 2.0)),
        lambda: rng.uniform(-5.0, 5.0),
    )
    for trial in range(120):
        draw = draws[trial % 2]
        n = rng.randint(2, 10)
        pairs = random_pairs(rng, n, rng.randint(1, 2 * n))
        unstable = set(rng.sample(range(len(pairs)), rng.randint(1, min(4, len(pairs)))))
        specs = [
            (u, v, draw(), "unstable" if i in unstable else "stable")
            for i, (u, v) in enumerate(pairs)
        ]
        g = build_graph(n, specs)
        fp = graph_fingerprint(g)
        text = f"p wdg {n} {len(specs)}\n" + "".join(
            f"{'u' if kind == 'unstable' else 'e'} {u} {v} {w!r}\n" for u, v, w, kind in specs
        )
        write_graph(g, tmp_path / "g.graph")
        for same in (
            parse_graph(text),
            parse_graph(format_graph(g)),
            read_graph(tmp_path / "g.graph"),
            g.copy(),
        ):
            assert graph_fingerprint(same) == fp
        eid = rng.choice(sorted(unstable))
        x = g.weight(eid)
        set_unstable_weight(g, eid, x + 1.0)
        assert graph_fingerprint(g) != fp
        set_unstable_weight(g, eid, x)
        assert graph_fingerprint(g) == fp

        # One field of one edge, or the order of two edges, changes. A moved
        # endpoint can disconnect the graph, and no such graph can be made.
        i = rng.randrange(g.num_edges)
        e = g.edge(i)
        flipped = EdgeKind.STABLE if e.kind is EdgeKind.UNSTABLE else EdgeKind.UNSTABLE
        changed = [
            _edited(g, {i: dataclasses.replace(e, u=e.v, v=e.u)}),
            _edited(g, {i: dataclasses.replace(e, weight=math.nextafter(e.weight, 9.0))}),
            _edited(g, {i: dataclasses.replace(e, kind=flipped)}),
        ]
        for end in range(n):
            if end not in (e.u, e.v):
                for end_moved in (dataclasses.replace(e, u=end), dataclasses.replace(e, v=end)):
                    changed.append(_edited(g, {i: end_moved}))
                    moved += changed[-1] is not None
        for f in edges(g):
            if (f.u, f.v, f.weight + 0.0, f.kind) != (e.u, e.v, e.weight + 0.0, e.kind):
                changed.append(_edited(g, {i: f, f.id: e}))
        for other in changed:
            if other is not None:
                assert graph_fingerprint(other) != fp
    assert moved > 500


def test_fingerprint_hashes_little_endian_fields(triangle):
    # TRIANGLE_TEXT: e 0 1 1, e 1 2 2, u 0 2 10.
    layout = (
        bytes.fromhex("00" * 8 + "01" + "00" * 7 + "00" * 8)  # u
        + bytes.fromhex("01" + "00" * 7 + "02" + "00" * 7 + "02" + "00" * 7)  # v
        + bytes.fromhex("000000000000f03f" "0000000000000040" "0000000000002440")  # weights
        + bytes([0, 0, 1])  # kinds
    )
    assert graph_fingerprint(triangle) == {
        "n": 3,
        "edges": 3,
        "sha256": hashlib.sha256(layout).hexdigest(),
    }


def test_negative_zero_fingerprints_as_zero(tmp_path):
    assert graph_fingerprint(parse_graph("p wdg 2 1\ne 0 1 -0\n")) == graph_fingerprint(
        parse_graph("p wdg 2 1\ne 0 1 0\n")
    )
    g = build_graph(3, [(0, 1, -0.0, "stable"), (1, 2, 1.0, "stable"), (0, 2, -0.0, "unstable")])
    ps = precompute_all(g)
    write_plans(ps, g, tmp_path / "g.plan")
    write_graph(g, tmp_path / "g.graph")
    again = read_graph(tmp_path / "g.graph")
    assert math.copysign(1.0, again.weight(2)) == 1.0  # the text wrote "0"
    assert plan_sets_equal(read_plans(tmp_path / "g.plan", again), ps)


def test_fingerprint_takes_array_bytes_or_packs_each_weight():
    # Lowest byte 0x80: after 5e-324 the -0.0 bytes 00 * 7 + 80 span two weights.
    (high,) = struct.unpack("<d", b"\x80" + struct.pack("<d", 3.0)[1:])
    edges = {
        "negative zero": [(0, 1, 2.0, "stable"), (1, 2, -0.0, "unstable"), (0, 2, 5.0, "stable")],
        "across two weights": [(0, 1, 5e-324, "stable"), (1, 2, high, "unstable")],
        "array bytes": [(0, 1, 5e-324, "stable"), (1, 2, 3.0, "unstable"), (0, 2, -1.5, "stable")],
    }
    for name, specs in edges.items():
        g = build_graph(3, specs)
        assert (_NEGATIVE_ZERO in g._weight.tobytes()) == (name != "array bytes")
        assert graph_fingerprint(g) == reference_fingerprint(g), name
        assert graph_fingerprint(parse_graph(format_graph(g))) == reference_fingerprint(g), name


def test_fingerprint_matches_hashlib_on_random_graphs():
    # Up to 3 100 edges, 25 bytes each: past 64 KiB hashed. Half the graphs
    # hold a -0.0 weight, so both ways of taking weight bytes run.
    rng = random.Random(20)
    packed = set()
    draws = [
        lambda: float(rng.randint(1, 9)),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([1e-300, 1e300, -2.5, 0.1, 1 / 3]),
    ]
    for extra in (0, 1, 5, 60, 700, 3000):
        for negative_zero in (False, True):
            n = rng.randint(2, 100)
            m = n - 1 + extra
            weights = [rng.choice(draws)() for _ in range(m)]
            if negative_zero:
                weights[rng.randrange(m)] = -0.0
            g = random_graph(rng, n, extra, rng.sample(range(m), min(m, 4)), weights=weights)
            assert graph_fingerprint(g) == reference_fingerprint(g), (m, negative_zero)
            packed.add((extra, _NEGATIVE_ZERO in g._weight.tobytes()))
    assert {(3000, False), (3000, True)} <= packed


# --------------------------------------------------------------------------
# plan files


@pytest.mark.parametrize(
    "text", [TRIANGLE_TEXT, THRESHOLD8_TEXT, BRIDGE_TEXT, M3_TEXT, PARALLEL_TEXT]
)
def test_plan_round_trip(tmp_path, text):
    g = parse_graph(text)
    ps = precompute_all(g)
    path = tmp_path / "out.plan"
    write_plans(ps, g, path)
    assert plan_sets_equal(read_plans(path, g), ps)


def test_infinite_threshold_serialized_as_string(bridge4):
    ps = precompute_all(bridge4)
    text = plans_to_json(ps, bridge4)
    doc = json.loads(text)
    (record,) = doc["plans"]
    assert record["d_s"] == "inf"
    assert record["cv"] == "inf"
    assert record["swap"] is None
    loaded = plans_from_json(text, bridge4)
    assert loaded.plans[3].d_s == math.inf
    assert loaded.plans[3].mst_s is None


def test_plan_file_is_one_tree_plus_swaps(multi3):
    ps = precompute_all(multi3)
    doc = json.loads(plans_to_json(ps, multi3))
    assert doc["version"] == 3
    assert doc["tree"] == [0, 2, 4, 6]
    assert [(r["edge"], r["swap"]) for r in doc["plans"]] == [(4, 3), (5, 0), (6, 3)]
    assert all(set(r) == {"edge", "swap", "d_s", "s_v", "cv"} for r in doc["plans"])
    loaded = plans_from_json(json.dumps(doc), multi3)
    assert plan_sets_equal(loaded, ps)
    # Every plan holds the shared tree object, and no tree is built twice.
    base = loaded.plans[5].mst_s
    assert loaded.plans[4].mst_v is base and loaded.plans[6].mst_v is base
    trees = [t for p in loaded.plans.values() for t in (p.mst_v, p.mst_s)]
    assert len({id(t) for t in trees}) == len({t.edge_ids for t in trees}) == 4


# The threshold8 plan file as the previous format wrote it: full trees and
# frozen values per plan, no version.
UNVERSIONED_THRESHOLD8_PLAN = """\
{
  "fingerprint": {
    "edges": 6,
    "n": 6,
    "sha256": "4cb82ab3fdb060e33dcc936eef90849090d367b9bbb5eb3e64fa2e99bb79e957"
  },
  "plans": [
    {
      "cv": 8.0,
      "d_s": 40.0,
      "edge": 5,
      "frozen_others": {},
      "mst_s": [0, 1, 2, 3, 4],
      "mst_v": [0, 1, 3, 4, 5],
      "s_v": 32.0
    }
  ]
}
"""


# The threshold8 plan file as format version 2 wrote it, with the fingerprint
# hashed over the graph text.
VERSION2_THRESHOLD8_PLAN = """\
{
  "fingerprint": {
    "edges": 6,
    "n": 6,
    "sha256": "4cb82ab3fdb060e33dcc936eef90849090d367b9bbb5eb3e64fa2e99bb79e957"
  },
  "plans": [
    {
      "cv": 8.0,
      "d_s": 40.0,
      "edge": 5,
      "s_v": 32.0,
      "swap": 2
    }
  ],
  "tree": [
    0,
    1,
    3,
    4,
    5
  ],
  "version": 2
}
"""


def test_old_and_unversioned_plan_files_refused(threshold8):
    for text in (UNVERSIONED_THRESHOLD8_PLAN, VERSION2_THRESHOLD8_PLAN):
        with pytest.raises(PlanFormatError, match="re-run `mstplan precompute`"):
            plans_from_json(text, threshold8)
    for version in (1, 2, 4, "3", None):
        doc = json.loads(plans_to_json(precompute_all(threshold8), threshold8))
        doc["version"] = version
        with pytest.raises(PlanFormatError, match="re-run `mstplan precompute`"):
            plans_from_json(json.dumps(doc), threshold8)


# Files the writer never writes, each equal to a written one under Python's
# ``==`` (``3.0 == 3``) or with one key more.
@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda doc: doc.update(version=3.0), "format version 3.0"),
        (lambda doc: doc["fingerprint"].update(n=4.0), "fingerprint"),
        (lambda doc: doc.update(comment="hand edited"), "comment"),
        (lambda doc: doc["plans"][0].update(frozen_others={}), "frozen_others"),
    ],
    ids=["float version", "float fingerprint n", "top-level key", "record key"],
)
def test_what_the_writer_never_writes_is_refused(mutate, key):
    g = parse_graph("p wdg 4 5\ne 0 1 1\ne 1 2 2\ne 2 3 3\nu 0 2 4\nu 1 3 5\n")
    with pytest.raises(PlanFormatError, match=f"{key}.*re-run `mstplan precompute`$"):
        plans_from_json(mutated(g, mutate), g)


# Stable weights 0.1, 0.2 and 0.3 on a path, closed by an unstable edge. An
# earlier summation added each tree's weights one by one in ascending id
# order, so this file, written by it, states d_s and cv one ulp off the
# correctly rounded sums.
FOLDED_FLOAT_TEXT = """\
p wdg 4 4
e 0 1 0.1
e 1 2 0.2
e 2 3 0.3
u 0 3 1
"""
FOLDED_FLOAT_PLAN = """\
{
  "fingerprint": {
    "edges": 4,
    "n": 4,
    "sha256": "02bcc5671d82476ab346c905707fbb5f1be95d7172c77b362cd14024cb0aa101"
  },
  "plans": [
    {
      "cv": 0.30000000000000004,
      "d_s": 0.6000000000000001,
      "edge": 3,
      "s_v": 0.30000000000000004,
      "swap": 2
    }
  ],
  "tree": [
    0,
    1,
    2
  ],
  "version": 3
}
"""


def test_float_plan_file_summed_by_a_fold_is_refused():
    g = parse_graph(FOLDED_FLOAT_TEXT)
    assert 0.1 + 0.2 + 0.3 == 0.6000000000000001 != math.fsum([0.1, 0.2, 0.3]) == 0.6
    with pytest.raises(PlanFormatError, match=r"d_s.*; re-run `mstplan precompute`$"):
        plans_from_json(FOLDED_FLOAT_PLAN, g)
    rewritten = plans_from_json(plans_to_json(precompute_all(g), g), g)
    assert (rewritten.plans[3].d_s, rewritten.plans[3].s_v) == (0.6, 0.30000000000000004)


def test_plan_load_folds_no_tree_over_its_edges(monkeypatch):
    # A load builds its trees from the kernel, each stable sum the forced
    # edges' exact sum plus at most k weights, and folds none over its n - 1
    # edges; the sums are still those of the fold.
    rng = random.Random(18)
    weights = [rng.uniform(0.0, 100.0) for _ in range(39 + 120)]
    pairs = random_pairs(rng, 40, 120)
    unstable = set(rng.sample(range(len(pairs)), 6))
    g = build_graph(
        40,
        [
            (u, v, w, "unstable" if i in unstable else "stable")
            for i, ((u, v), w) in enumerate(zip(pairs, weights))
        ],
    )
    ps = precompute_all(g)
    text = plans_to_json(ps, g)
    built = []
    fold = SpanningTree.from_edge_ids.__func__

    def counted(cls, g, ids):
        built.append(ids)
        return fold(cls, g, ids)

    monkeypatch.setattr(SpanningTree, "from_edge_ids", classmethod(counted))
    loaded = plans_from_json(text, g)
    assert built == []
    assert plan_sets_equal(loaded, ps)
    for plan in loaded.plans.values():
        for tree in (plan.mst_v, plan.mst_s):
            assert tree == fold(SpanningTree, g, tree.edge_ids)


def test_plan_rejected_for_different_graph(tmp_path, threshold8):
    path = tmp_path / "out.plan"
    write_plans(precompute_all(threshold8), threshold8, path)
    other = parse_graph(tamper_one_weight(THRESHOLD8_TEXT))
    with pytest.raises(FingerprintMismatchError):
        read_plans(path, other)


def test_plan_rejected_after_unstable_value_moved(tmp_path, threshold8):
    # plans are tied to the snapshot values too, not just the topology
    path = tmp_path / "out.plan"
    write_plans(precompute_all(threshold8), threshold8, path)
    moved = parse_graph(THRESHOLD8_TEXT.replace("u 0 1 5", "u 0 1 6"))
    with pytest.raises(FingerprintMismatchError):
        read_plans(path, moved)


def mutated(g, mutate):
    doc = json.loads(plans_to_json(precompute_all(g), g))
    mutate(doc)
    return json.dumps(doc)


def test_tampered_plan_values_rejected(threshold8):
    def bump_sv(doc):
        doc["plans"][0]["s_v"] += 1

    with pytest.raises(PlanFormatError, match="edge 5: s_v is 33.0 in the file, but 32.0"):
        plans_from_json(mutated(threshold8, bump_sv), threshold8)

    def bump_consistently(doc):
        doc["plans"][0]["s_v"] += 1
        doc["plans"][0]["cv"] -= 1

    # the arithmetic still holds, but the totals no longer match the trees
    with pytest.raises(PlanFormatError, match="edge 5: s_v"):
        plans_from_json(mutated(threshold8, bump_consistently), threshold8)


def test_tampered_plan_trees_rejected(threshold8):
    def other_tree(doc):
        # Another spanning tree whose swap crosses the cut, with other totals.
        doc["tree"] = [0, 1, 2, 3, 4]
        doc["plans"][0]["swap"] = 1

    with pytest.raises(PlanFormatError, match="^tree is not the graph's minimum"):
        plans_from_json(mutated(threshold8, other_tree), threshold8)

    def cyclic_tree(doc):
        doc["tree"] = [0, 1, 2, 3, 5]

    with pytest.raises(PlanFormatError, match="^tree is not"):
        plans_from_json(mutated(threshold8, cyclic_tree), threshold8)

    def wrong_count(doc):
        doc["tree"] = [0, 1, 2, 3, 3]

    with pytest.raises(PlanFormatError, match="^tree is not"):
        plans_from_json(mutated(threshold8, wrong_count), threshold8)

    def unknown_edge(doc):
        doc["tree"] = [0, 1, 2, 3, 99]

    with pytest.raises(PlanFormatError, match="^tree is not"):
        plans_from_json(mutated(threshold8, unknown_edge), threshold8)

    def not_a_list(doc):
        doc["tree"] = {"0": 1}

    with pytest.raises(PlanFormatError, match="^tree is not"):
        plans_from_json(mutated(threshold8, not_a_list), threshold8)

    def missing_swap(doc):
        del doc["plans"][0]["swap"]

    with pytest.raises(PlanFormatError, match="edge 5: swap is missing"):
        plans_from_json(mutated(threshold8, missing_swap), threshold8)

    def null_swap_with_finite_d_s(doc):
        doc["plans"][0]["swap"] = None

    with pytest.raises(PlanFormatError, match="edge 5: swap is None"):
        plans_from_json(mutated(threshold8, null_swap_with_finite_d_s), threshold8)


def test_tampered_swaps_rejected(multi3):
    # The tree is [0, 2, 4, 6]: edge 6 hangs vertex 4 on vertex 0, and the
    # tree path of edge 5 (1-3) runs over edges 0, 4 and 2.
    def swap(edge, value):
        def mutate(doc):
            (record,) = [r for r in doc["plans"] if r["edge"] == edge]
            record["swap"] = value

        return mutated(multi3, mutate)

    with pytest.raises(PlanFormatError, match="edge 6: swap is 1 in the file, but 3"):
        plans_from_json(swap(6, 1), multi3)  # edge 1 (1-2) would close a cycle
    with pytest.raises(PlanFormatError, match="edge 5: swap is 6 in the file, but 0"):
        plans_from_json(swap(5, 6), multi3)  # edge 6 is off edge 5's path
    with pytest.raises(PlanFormatError, match="edge 4: swap is 4 "):
        plans_from_json(swap(4, 4), multi3)  # the edge itself, in the tree
    with pytest.raises(PlanFormatError, match="edge 5: swap is 5 "):
        plans_from_json(swap(5, 5), multi3)  # the edge itself, outside the tree
    for bad in (7, -1, True, "3", 3.0, [3]):
        with pytest.raises(PlanFormatError, match="edge 4: swap"):
            plans_from_json(swap(4, bad), multi3)


def test_spurious_stable_tree_on_bridge_rejected(bridge4):
    def add_swap(doc):
        doc["plans"][0]["swap"] = 2

    with pytest.raises(PlanFormatError, match="swap"):
        plans_from_json(mutated(bridge4, add_swap), bridge4)

    def bridge_off_the_tree(doc):
        doc["tree"] = [0, 1, 2]

    with pytest.raises(PlanFormatError):
        plans_from_json(mutated(bridge4, bridge_off_the_tree), bridge4)


def at_weights(plan, g):
    """``plan`` with its trees' totals restated at ``g``'s weights."""
    mst_s, mst_v = (
        None if t is None else SpanningTree.from_edge_ids(g, t.edge_ids)
        for t in (plan.mst_s, plan.mst_v)
    )
    d_s = math.inf if mst_s is None else tree_total_weight(mst_s, g)
    s_v = float(_exact_total(g, mst_v, plan.edge_id))
    return dataclasses.replace(plan, mst_s=mst_s, d_s=d_s, mst_v=mst_v, s_v=s_v, cv=d_s - s_v)


# The forged plan set below as a writer that took the plans' shared tree
# wrote it: a spanning tree and a swap with consistent totals.
FORGED_THRESHOLD8_PLAN = """\
{
  "fingerprint": {
    "edges": 6,
    "n": 6,
    "sha256": "5ba3bda79d2787d2ae91007a39c62eaf4c51ec1f649cbc6403240d8c9f9ba3e1"
  },
  "plans": [
    {
      "cv": 5.0,
      "d_s": 40.0,
      "edge": 5,
      "s_v": 35.0,
      "swap": 0
    }
  ],
  "tree": [
    0,
    1,
    2,
    3,
    4
  ],
  "version": 3
}
"""


def test_plans_built_at_other_stable_weights_are_refused(tmp_path, threshold8):
    # Plans built with stable edge 0 raised by 100, totals restated at the
    # real weights: each tree spans and each total adds up, but the trees
    # are not minimum. The writer refuses them; the loader refuses the file.
    raised = parse_graph(THRESHOLD8_TEXT.replace("e 0 2 5", "e 0 2 105"))
    ps = precompute_all(raised)
    forged = PlanSet({eid: at_weights(p, threshold8) for eid, p in ps.plans.items()}, ps.snapshot)
    assert select_tree(forged.plans[5], 4.0).total_weight == 39
    assert select_tree(precompute_all(threshold8).plans[5], 4.0).total_weight == 36
    path = tmp_path / "forged.plan"
    with pytest.raises(PlanFormatError, match="^edge 5: plan is not the graph's minimum"):
        write_plans(forged, threshold8, path)
    assert not path.exists()
    with pytest.raises(PlanFormatError, match="^tree is not the graph's minimum spanning tree"):
        plans_from_json(FORGED_THRESHOLD8_PLAN, threshold8)


def test_spanning_tree_that_is_not_minimum_is_refused(threshold8):
    # Another spanning tree, a swap that crosses its cut and the totals of
    # both trees: consistent, but the tree with edge 5 is 1 heavier than
    # the minimum's 32 + x.
    tree = SpanningTree.from_edge_ids(threshold8, [0, 1, 2, 3, 4])
    with_edge = SpanningTree.from_edge_ids(threshold8, [0, 2, 3, 4, 5])
    d_s = tree_total_weight(tree, threshold8)
    s_v = float(_exact_total(threshold8, with_edge, 5))

    def other_tree(doc):
        doc["tree"] = [0, 1, 2, 3, 4]
        doc["plans"][0].update(swap=1, d_s=d_s, s_v=s_v, cv=d_s - s_v)

    assert (d_s, s_v) == (40.0, 33.0)
    with pytest.raises(PlanFormatError, match="^tree is not the graph's minimum spanning tree"):
        plans_from_json(mutated(threshold8, other_tree), threshold8)


def test_booleans_are_not_edge_ids():
    # Edge 0 enters the tree [1, 2] in place of edge 1, and ``False == 0``
    # and ``True == 1`` in Python: the JSON types must match too.
    g = parse_graph("p wdg 3 3\nu 0 2 3\ne 0 1 2\ne 1 2 1\n")
    text = plans_to_json(precompute_all(g), g)
    doc = json.loads(text)
    assert doc["tree"] == [1, 2]
    assert (doc["plans"][0]["edge"], doc["plans"][0]["swap"]) == (0, 1)
    for where, key, value in ((doc["plans"][0], "edge", False),
                              (doc["plans"][0], "swap", True),
                              (doc["tree"], 0, True)):
        was, where[key] = where[key], value
        with pytest.raises(PlanFormatError):
            plans_from_json(json.dumps(doc), g)
        where[key] = was
    assert plan_sets_equal(plans_from_json(json.dumps(doc), g), precompute_all(g))


def test_loaded_plans_are_kept_by_the_first_change(multi3):
    loaded = plans_from_json(plans_to_json(precompute_all(multi3), multi3), multi3)
    assert loaded._kernel is multi3.kernel()
    _, rebuilt = apply_change(loaded, multi3, 4, 0.5)
    # Plan 4 froze only edges 5 and 6, which did not move.
    assert rebuilt.plans[4] is loaded.plans[4]
    assert rebuilt.plans[5] is not loaded.plans[5]


def test_plan_coverage_checked(multi3):
    def drop_one(doc):
        doc["plans"].pop()

    with pytest.raises(PlanFormatError, match="cover"):
        plans_from_json(mutated(multi3, drop_one), multi3)

    def duplicate(doc):
        doc["plans"].append(doc["plans"][0])

    with pytest.raises(PlanFormatError, match="duplicate"):
        plans_from_json(mutated(multi3, duplicate), multi3)

    # The file stores no frozen values: they are the graph's own, which the
    # fingerprint pins, so a graph whose other unstable value moved is refused.
    text = plans_to_json(precompute_all(multi3), multi3)
    moved = parse_graph(M3_TEXT.replace("u 1 3 7", "u 1 3 8"))
    with pytest.raises(FingerprintMismatchError):
        plans_from_json(text, moved)


def test_malformed_plan_documents(threshold8):
    with pytest.raises(PlanFormatError):
        plans_from_json("not json", threshold8)
    with pytest.raises(PlanFormatError):
        plans_from_json("[]", threshold8)
    with pytest.raises(PlanFormatError):
        plans_from_json("{}", threshold8)
    with pytest.raises(PlanFormatError, match="^not valid JSON: maximum recursion depth"):
        plans_from_json("[" * 100_000, threshold8)

    def bad_value(doc):
        doc["plans"][0]["d_s"] = "big"

    with pytest.raises(PlanFormatError):
        plans_from_json(mutated(threshold8, bad_value), threshold8)

    def plan_for_stable_edge(doc):
        doc["plans"][0]["edge"] = 0

    with pytest.raises(PlanFormatError):
        plans_from_json(mutated(threshold8, plan_for_stable_edge), threshold8)


def test_plan_file_without_plans():
    g = parse_graph("p wdg 3 2\ne 0 1 1\ne 1 2 2\n")
    text = plans_to_json(precompute_all(g), g)
    assert json.loads(text)["tree"] == []
    assert plans_from_json(text, g).plans == {}
    doc = json.loads(text)
    doc["tree"] = [0, 1]
    with pytest.raises(PlanFormatError, match="^tree is not"):
        plans_from_json(json.dumps(doc), g)


def test_writer_refuses_what_is_not_one_tree_plus_swaps(tmp_path, multi3):
    ps = precompute_all(multi3)
    path = tmp_path / "out.plan"

    def refused(plans, match, snapshot=ps.snapshot):
        with pytest.raises(PlanFormatError, match=match):
            write_plans(PlanSet(plans=plans, snapshot=snapshot), multi3, path)
        assert not path.exists()

    path_tree = SpanningTree.from_edge_ids(multi3, [0, 1, 2, 3])
    # Plan 6 holds neither the minimum tree nor a swap of it.
    elsewhere = dataclasses.replace(ps.plans[6], mst_v=path_tree, mst_s=path_tree)
    refused({**ps.plans, 6: elsewhere}, "^edge 6: plan is not the graph's minimum spanning tree")
    # Plan 6 holds the minimum tree, but its other tree is two swaps away.
    two_swaps = dataclasses.replace(ps.plans[6], mst_s=path_tree)
    refused({**ps.plans, 6: two_swaps}, "one swap")
    # Plan 4 taken from the set built after edge 5 moved to 4.5: its trees
    # are still the minimum tree and a swap of it, but its other tree holds
    # edge 5, so its d_s is stated at 4.5, not at the graph's 7.
    _, moved = apply_change(ps, multi3.copy(), 5, 4.5)
    assert moved.plans[4].d_s != ps.plans[4].d_s
    totals = "^edge 4: plan is not .* one swap, with its trees' totals at the graph's values$"
    refused({**ps.plans, 4: moved.plans[4]}, totals)
    refused(dict(ps.plans), "other unstable values", snapshot={4: 2.0, 5: 7.0, 6: 0.0})
    # A set without a plan for every unstable edge.
    cover = r"^plans cover edges \[{}\], graph's unstable edges are \[4, 5, 6\]$"
    refused({4: ps.plans[4]}, cover.format("4"))
    refused({}, cover.format(""))


def test_writer_and_loader_each_run_precompute_alls_kruskals(monkeypatch):
    # Both build the set with precompute_all, one kernel Kruskal for the
    # minimum tree, and read the tree and each swap off the built plans.
    # Before they did, the writer ran 1 Kruskal and the loader k + 2.
    rng = random.Random(2178)
    unstable = rng.sample(range(29 + 60), 5)
    g = random_graph(rng, 30, 60, unstable=unstable)
    ps = precompute_all(g)
    calls = []
    spanning = Kernel.spanning

    def counted(kernel, order):
        calls.append(order)
        return spanning(kernel, order)

    monkeypatch.setattr(Kernel, "spanning", counted)
    text = plans_to_json(ps, g)
    assert len(calls) == 1
    calls.clear()
    plans_from_json(text, g)
    assert len(calls) == 1


def test_precompute_command_builds_its_plans_once(monkeypatch, tmp_path):
    # The command writes the set it has just built, with no check that
    # builds it again: one Kruskal, and the file the checked writer gives.
    rng = random.Random(2178)
    unstable = rng.sample(range(29 + 60), 5)
    g = random_graph(rng, 30, 60, unstable=unstable)
    graph, plan = tmp_path / "g.txt", tmp_path / "g.plan"
    write_graph(g, graph)
    calls = []
    spanning = Kernel.spanning

    def counted(kernel, order):
        calls.append(order)
        return spanning(kernel, order)

    monkeypatch.setattr(Kernel, "spanning", counted)
    assert main(["precompute", str(graph), "-o", str(plan)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    assert plan.read_text(encoding="utf-8") == plans_to_json(precompute_all(g), g)


def test_the_writer_fills_no_other_tree_of_the_set_it_writes():
    # A plan's other tree is made in O(1) and filled on its first read. The
    # writer compares each with the fresh build's without that read: on a
    # new set, and along a change chain whose kept plans hold older trees.
    rng = random.Random(2626)
    unstable = rng.sample(range(39 + 120), 6)
    g = random_graph(rng, 40, 120, unstable=unstable)
    ps = precompute_all(g)

    def unfilled():
        return [
            tree for plan in ps.plans.values() for tree in (plan.mst_s, plan.mst_v)
            if tree is not None and tree._swap is not None
        ]

    for step in range(21):
        lazy = unfilled()
        assert lazy
        plans_to_json(ps, g)
        assert unfilled() == lazy, f"after {step} changes"
        if step < 20:
            eid = rng.choice(unstable)
            cv = ps.plans[eid].cv
            x = float(rng.randint(1, 20))
            if cv < math.inf:
                x = rng.choice([cv, cv - 1, cv + 1, x])
            _, ps = apply_change(ps, g, eid, x)


def test_plan_files_keep_their_bytes():
    # Integer weights: every total and threshold is exact, so a change to
    # how plans are built, checked or written must leave these files as
    # they are, byte for byte, as built and after a seeded change chain.
    g = generate_graph(400, 800, 6, 3)
    ps = precompute_all(g)

    def digest():
        return hashlib.sha256(plans_to_json(ps, g).encode()).hexdigest()

    assert digest() == "e55148fc7903aaa79fdec69e7c376b7c5505bee2e493afaee19131fbdb286ac7"
    rng = random.Random(3)
    for _ in range(20):
        _, ps = apply_change(ps, g, rng.choice(g.unstable_ids), float(rng.randint(1, 10**6)))
    assert digest() == "fa50958c52f7707e9d590c77eeb0ef865b036b95be9bbb47da86dc61d2bfb812"


def test_a_change_chain_at_k_32_keeps_its_plan_file_bytes():
    # 32 unstable edges and 50 changes, a quarter of them to the changed
    # edge's threshold, where the (weight, id) tie rule picks the tree: one
    # digest over the plan file of every set along the chain.
    g = generate_graph(500, 1500, 32, 24)
    ps = precompute_all(g)
    rng = random.Random(32)
    digest = hashlib.sha256(plans_to_json(ps, g).encode())
    for _ in range(50):
        eid = rng.choice(g.unstable_ids)
        cv, far = ps.plans[eid].cv, float(rng.randint(1, 10**6))
        x = far if cv == math.inf else rng.choice([cv, cv - 1, cv + 1, far])
        _, ps = apply_change(ps, g, eid, x)
        digest.update(plans_to_json(ps, g).encode())
    assert digest.hexdigest() == "75a4f39bac3309684cdea42f82e031de8ec0758f838100c6f849db49cf918fd8"


def test_random_plan_files_round_trip_and_survive_swap_tampering():
    # Tie-heavy graphs with parallel edges and a bridge, along apply_change
    # chains. Every other edge id put in one plan's swap must be refused.
    rng = random.Random(5150)
    draws = (
        lambda: float(rng.randint(1, 3)),
        lambda: float(rng.choice((-1, 1)) * rng.randint(1, 3)),
        lambda: rng.uniform(-5.0, 5.0),
    )
    for trial in range(150):
        draw = draws[trial % 3]
        n = rng.randint(2, 9)
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
        for _ in range(3):
            text = plans_to_json(ps, g)
            assert plan_sets_equal(plans_from_json(text, g), ps)
            assert json.loads(text)["tree"] == sorted(constrained_mst_kruskal(g).edge_ids)
            x = g.weight(rng.randrange(g.num_edges)) if rng.random() < 0.5 else draw()
            _, ps = apply_change(ps, g, rng.choice(unstable), x)

        doc = json.loads(plans_to_json(ps, g))
        record = rng.choice(doc["plans"])
        record_swap = record["swap"]
        for swap in range(g.num_edges):
            if swap == record_swap:
                continue
            record["swap"] = swap
            with pytest.raises(PlanFormatError, match=f"edge {record['edge']}: swap"):
                plans_from_json(json.dumps(doc), g)


def test_plan_files_along_a_change_chain_match_fresh_builds():
    # A rebuild keeps plans and trees of the previous set; what it writes
    # must be, byte for byte, what a build from scratch on a freshly parsed
    # copy of the graph writes. Non-integer weights with ties, parallel
    # edges and a bridge.
    rng = random.Random(6060)
    pool = (0.1, 0.2, 0.3, 0.7, 2.5)

    def draw():
        return rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-1.0, 3.0)

    n = 30
    pairs = random_pairs(rng, n, 60)
    pairs += rng.choices(pairs, k=5)  # parallel edges
    pairs.append((rng.randrange(n), n))  # a bridge to one more vertex
    unstable = rng.sample(range(len(pairs) - 1), 5) + [len(pairs) - 1]
    g = build_graph(
        n + 1,
        [
            (u, v, draw(), "unstable" if i in unstable else "stable")
            for i, (u, v) in enumerate(pairs)
        ],
    )
    ps = precompute_all(g)
    for _ in range(50):
        eid = rng.choice(unstable)
        cv = ps.plans[eid].cv
        xs = [draw(), g.weight(rng.randrange(g.num_edges))] + [cv] * math.isfinite(cv)
        _, ps = apply_change(ps, g, eid, rng.choice(xs))
        fresh = parse_graph(format_graph(g))
        assert plans_to_json(ps, g) == plans_to_json(precompute_all(fresh), fresh)


# --------------------------------------------------------------------------
# event streams


def test_parse_events():
    events = parse_events("c warm winter\n1 5 5\n\n2 5 9\n")
    assert [(e.seq, e.edge_id, e.new_x) for e in events] == [(1, 5, 5.0), (2, 5, 9.0)]
    assert [e.line for e in events] == [2, 4]
    assert parse_events("") == []
    assert parse_events("c only remarks\n") == []


def test_event_values_may_be_negative_or_fractional():
    events = parse_events("1 0 -2.5\n7 1 0\n")
    assert events[0].new_x == -2.5
    assert events[1].new_x == 0.0


def event_error(text):
    with pytest.raises(EventSyntaxError) as info:
        parse_events(text)
    return info.value


def test_event_errors_carry_line_numbers():
    assert event_error("1 5\n").line == 1
    assert event_error("1 5 5 5\n").line == 1
    assert event_error("one 5 5\n").line == 1
    assert event_error("1 5 abc\n").line == 1
    assert event_error("1 5 inf\n").line == 1
    assert event_error("1 5 nan\n").line == 1
    err = event_error("1 5 5\n1 5 9\n")
    assert err.line == 2 and "sequence" in str(err)
    assert event_error("2 5 5\n1 5 9\n").line == 2


def test_format_events_round_trip():
    triples = [(1, 5, 5.0), (2, 5, 9.5), (10, 0, -3.0)]
    text = format_events(triples)
    assert text == "1 5 5\n2 5 9.5\n10 0 -3\n"
    assert [(e.seq, e.edge_id, e.new_x) for e in parse_events(text)] == triples


# --------------------------------------------------------------------------
# random instances


def test_generate_is_deterministic():
    a = generate_graph(30, 10, 2, seed=9)
    b = generate_graph(30, 10, 2, seed=9)
    assert format_graph(a) == format_graph(b)
    c = generate_graph(30, 10, 2, seed=10)
    assert format_graph(c) != format_graph(a)


def test_generate_minimal_instance():
    g = generate_graph(2, 0, 0, seed=1)
    assert g.n == 2 and g.num_edges == 1
    e = g.edge(0)
    assert (e.u, e.v, e.kind) == (0, 1, EdgeKind.STABLE)
    assert 1 <= e.weight <= 10**6


def test_generate_counts():
    g = generate_graph(100, 0, 3, seed=7)
    assert g.num_edges == 99
    assert len(g.unstable_ids) == 3
    text = format_graph(g)
    assert sum(line.startswith("u ") for line in text.splitlines()) == 3


def test_generated_output_always_parses():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(2, 40)
        g = generate_graph(n, rng.randint(0, 30), rng.randint(0, 2), rng.randrange(10**6))
        again = parse_graph(format_graph(g))
        assert edges(again) == edges(g)
        assert again.unstable_ids == g.unstable_ids


def test_generate_argument_validation():
    with pytest.raises(Error):
        generate_graph(1, 0, 0, seed=0)
    with pytest.raises(Error):
        generate_graph(3, -1, 0, seed=0)
    with pytest.raises(Error):
        generate_graph(3, 0, 3, seed=0)
    with pytest.raises(Error):
        generate_graph(3, 0, -1, seed=0)
