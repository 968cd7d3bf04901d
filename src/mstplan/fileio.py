"""Text formats: graph files, plan files, event streams, plus the generator.

Graph files are DIMACS-flavored lines. One header ``p wdg <n> <num_edges>``
comes before any edge line; ``e <u> <v> <w>`` declares a stable edge and
``u <u> <v> <x0>`` an unstable one, with ids assigned by line order among
edge lines. Lines whose first token is ``c`` are comments; blank lines and
trailing whitespace are tolerated.

Plan files are JSON (format ``"version": 3``). Every plan shares one
spanning tree, the graph's minimum spanning tree at the snapshot, so the file
stores its sorted edge ids once as ``"tree"``, and per unstable edge a record
``{"edge", "swap", "d_s", "s_v", "cv"}``: ``swap`` is the one edge the plan's
other tree trades, null for a bridge. An edge in the tree leaves it for its
swap to give ``mst_s``; an edge outside enters it in place of its swap to
give ``mst_v``. Infinities are serialized as the string "inf". Every plan
file carries a fingerprint of the graph it was computed from, including its
unstable values, and loading against a graph with a different fingerprint
is refused; the values the plans froze are that snapshot, which a plan set
stores once, so the file stores none. The fingerprint is ``{"n", "edges",
"sha256"}``, the hash taken over the edge fields in id order: every ``u``,
then every ``v``, as int64, then every weight as float64, all little-endian
whatever the machine, then one kind byte per edge (1 unstable, 0 stable). A
weight of ``-0.0`` is hashed as ``0.0``, as the graph text writes both as
``0``. The hash is the interpreter's built-in SHA-256, whose digest is
OpenSSL's, so no process of the package maps OpenSSL. The stored ``d_s``
and ``s_v`` are correctly rounded sums of their trees' weights
(``math.fsum``), and ``cv`` is the swap's weight. A plan set is a function
of its graph, so the writer and the loader both build it with
:func:`precompute_all` and compare: the writer refuses a set whose trees or
totals differ, and the loader a file that differs in any field from what the
writer gives for the built set, minimality included. Files of earlier
formats, version 2 with its text-hash fingerprint or without a version, are
refused: re-run ``precompute``. So is a file with non-integer weights whose
``cv`` an earlier version wrote as the rounded ``d_s - s_v``.

Event streams are lines ``<seq> <edge_id> <new_x>`` with strictly
increasing sequence numbers, one weight change per line.
"""

from __future__ import annotations

import functools
import json
import marshal
import math
import operator
import random
import re
import struct
import sys
from array import array
from pathlib import Path
from typing import NamedTuple

from .errors import (
    Error,
    EventSyntaxError,
    FingerprintMismatchError,
    GraphSyntaxError,
    PlanFormatError,
)
from .graph import (
    EdgeKind,
    WeaklyDynamicGraph,
    _graph,
    _validate_edge,
    build_graph,
    unstable_values,
)
from .plans import PlanSet, _minimum_tree, precompute_all


def format_value(value: float) -> str:
    """Render a number for the text formats: integral values bare, inf as 'inf'."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


# --------------------------------------------------------------------------
# graph files


# ``parse_graph`` splits this many characters of text into lines at a time.
_CHUNK = 1 << 16
# A line break of ``str.splitlines()``, ``\r\n`` whole.
_LINE_BREAK = re.compile(r"\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029]")


def parse_graph(text: str) -> WeaklyDynamicGraph:
    """Parse graph-file text. Raises with a 1-based line number on bad input.

    Each edge is checked once, as its line is read, so a bad edge line is
    reported before a header count that the file does not meet. The text is
    split into lines a piece of about 64 KiB at a time, each piece cut just
    after a line break, so no line is split, ``\r\n`` included, and the
    lines and their numbers are those of ``text.splitlines()``. The endpoint
    columns hold one int object per vertex: an endpoint token is converted
    the first time it appears, and looked up after that. A piece's weights
    go into the graph's ``array('d')`` when its lines are read, so the parse
    never holds a float object per edge.
    """
    n = 0
    m: int | None = None  # the declared edge count, once the header is read
    ids: dict[str, int] = {}  # endpoint token -> its vertex, once checked
    us: list[int] = []
    vs: list[int] = []
    weights = array("d")
    unstable: list[int] = []
    lineno = start = 0
    while start < len(text):
        cut = _LINE_BREAK.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        chunk_weights = []  # list.append is about 3x as fast as array.append
        for lineno, raw in enumerate(text[start:end].splitlines(), lineno + 1):
            fields = raw.split()
            if not fields or fields[0] == "c":
                continue
            tag = fields[0]
            if tag == "e" or tag == "u":
                if m is None:
                    raise GraphSyntaxError("edge line before header", line=lineno)
                if len(fields) != 4:
                    raise GraphSyntaxError(
                        f"edge line needs '{tag} <u> <v> <weight>'", line=lineno
                    )
                if (u := ids.get(fields[1])) is None:
                    u = _vertex(fields[1], n, ids)
                if (v := ids.get(fields[2])) is None:
                    v = _vertex(fields[2], n, ids)
                try:
                    w = float(fields[3])
                except ValueError:
                    w = math.inf  # fails the check below, which names the bad field
                # w - w is 0.0 only for finite w.
                if u is None or v is None or u == v or w - w != 0.0:
                    u, v, w = _edge_fields(fields, lineno, n)
                if tag == "u":
                    unstable.append(len(us))
                us.append(u)
                vs.append(v)
                chunk_weights.append(w)
            elif tag == "p":
                if m is not None:
                    raise GraphSyntaxError("duplicate header", line=lineno)
                if len(fields) != 4 or fields[1] != "wdg":
                    raise GraphSyntaxError(
                        "header must be 'p wdg <n> <num_edges>'", line=lineno
                    )
                n = _parse_int(fields[2], lineno, "vertex count")
                m = _parse_int(fields[3], lineno, "edge count")
                if n < 1 or m < 0:
                    raise GraphSyntaxError(
                        f"implausible header counts n={n} m={m}", line=lineno
                    )
            else:
                raise GraphSyntaxError(f"unknown record type {tag!r}", line=lineno)
        weights.fromlist(chunk_weights)
        start = end

    if m is None:
        raise GraphSyntaxError("missing 'p wdg <n> <num_edges>' header")
    if len(weights) != m:
        raise GraphSyntaxError(
            f"header declares {m} edge lines, file has {len(weights)}"
        )
    del ids  # free the token dict before the kernel build
    return _graph(n, us, vs, weights, unstable)


def _vertex(token: str, n: int, ids: dict[str, int]) -> int | None:
    """The vertex ``token`` names, one int for all its spellings, kept in ``ids``; else None."""
    try:
        u = int(token)
    except ValueError:
        return None
    if not 0 <= u < n:
        return None
    ids[token] = u = ids.setdefault(str(u), u)
    return u


def _edge_fields(fields: list[str], lineno: int, n: int) -> tuple[int, int, float]:
    """An edge line's endpoints and weight, each checked in turn.

    Raises the error of the first bad field with the line number.
    """
    u = _parse_int(fields[1], lineno, "endpoint")
    v = _parse_int(fields[2], lineno, "endpoint")
    w = _parse_real(fields[3], lineno)
    try:
        _validate_edge(n, u, v, w)
    except Error as err:
        raise type(err)(f"line {lineno}: {err}") from None
    return u, v, w


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphSyntaxError(f"bad {what} {token!r}", line=lineno) from None


def _parse_real(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise GraphSyntaxError(f"bad weight {token!r}", line=lineno) from None
    if not math.isfinite(value):
        raise GraphSyntaxError(f"weight must be finite, got {token!r}", line=lineno)
    return value


def format_graph(g: WeaklyDynamicGraph) -> str:
    """Canonical graph-file text: header then edge lines in id order."""
    lines = [f"p wdg {g.n} {g.num_edges}"]
    unstable = set(g.unstable_ids)
    for eid, (u, v, w) in enumerate(zip(g._u, g._v, g._weight)):
        lines.append(f"{'u' if eid in unstable else 'e'} {u} {v} {format_value(w)}")
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path) -> WeaklyDynamicGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def write_graph(g: WeaklyDynamicGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


# The float64 -0.0 as the fingerprint lays it out, little-endian.
_NEGATIVE_ZERO = struct.pack("<d", -0.0)


@functools.cache
def _sha256():
    """The interpreter's built-in ``sha256``, or ``hashlib``'s in a build without one."""
    try:  # by version: a failed import searches the whole path
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def graph_fingerprint(g: WeaklyDynamicGraph) -> dict:
    """Identity of a graph's content: size counts plus a hash of its edge fields.

    The module docstring gives the byte layout; its fixed byte order lets a
    plan file move between machines. The weights are the bytes of the
    graph's ``array('d')``, byte-swapped on a big-endian machine; where the
    bytes of ``-0.0`` occur in them, each weight is packed as ``w + 0.0``
    instead. The hash is CPython's built-in SHA-256 (module ``_sha2``, or
    ``_sha256`` before 3.12), loaded on the first call, whose digest is
    OpenSSL's. ``hashlib`` would map OpenSSL, about 3.7 MB of resident
    memory, and take about 3 ms to import; the built-in hashes about three
    times slower, so a 4 800-edge graph (120 KB hashed) fingerprints in
    0.65-0.85 ms, against 0.23-0.29 ms with ``hashlib``.
    """
    m = g.num_edges
    kinds = bytearray(m)
    for eid in g.unstable_ids:
        kinds[eid] = 1
    weights = g._weight
    if sys.byteorder == "big":
        weights = weights[:]
        weights.byteswap()
    weight_bytes = weights.tobytes()
    if _NEGATIVE_ZERO in weight_bytes:
        weight_bytes = struct.pack(f"<{m}d", *[w + 0.0 for w in g._weight])  # -0.0 + 0.0 is 0.0
    digest = _sha256()(struct.pack(f"<{2 * m}q", *g._u, *g._v))
    digest.update(weight_bytes)
    digest.update(kinds)
    return {"n": g.n, "edges": m, "sha256": digest.hexdigest()}


# --------------------------------------------------------------------------
# plan files


_PLAN_FORMAT = 3


def plans_to_json(ps: PlanSet, g: WeaklyDynamicGraph) -> str:
    """Serialize a plan set computed from ``g`` (at ``g``'s current values).

    The file holds the graph's minimum spanning tree plus each plan's swap,
    so a plan set not built at ``g``'s values, or whose trees or totals are
    not those :func:`precompute_all` builds from ``g``, is refused with
    :class:`PlanFormatError` before anything is written. Each ``cv`` is
    written as its plan holds it; the loader checks it.
    """
    if dict(ps.snapshot) != unstable_values(g):
        raise PlanFormatError("plan set was built at other unstable values than the graph holds")
    _refuse_cover(ps.plans, g.unstable_ids)
    built = precompute_all(g).plans
    trees_and_totals = operator.attrgetter("mst_s", "mst_v", "d_s", "s_v", "swap")
    for eid, plan in sorted(ps.plans.items()):
        if trees_and_totals(plan) != trees_and_totals(built[eid]):
            raise PlanFormatError(
                f"edge {eid}: plan is not the graph's minimum spanning tree plus one swap, "
                "with its trees' totals at the graph's values"
            )
    doc = _document(ps, g, graph_fingerprint(g))
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _refuse_cover(covered, unstable) -> None:
    """Refuse plans for edges ``covered`` unless they are the ``unstable`` ones."""
    if sorted(covered) != sorted(unstable):
        raise PlanFormatError(
            f"plans cover edges {sorted(covered)}, graph's unstable edges are {sorted(unstable)}"
        )


def _document(ps: PlanSet, g: WeaklyDynamicGraph, fingerprint: dict) -> dict:
    """The plan file of ``ps``, a set built from ``g``, as a JSON object.

    Every plan holds the minimum tree, as ``mst_v`` when its edge ranks
    before its swap in ``(weight, id)`` order at ``g``'s values, which are
    the set's, and as ``mst_s`` otherwise; a graph without unstable edges
    has no plans, and its file no tree.
    """
    weight, tree, records = g._weight, None, []
    for eid, plan in sorted(ps.plans.items()):
        tree = _minimum_tree(plan, weight[eid], weight)
        records.append({
            "edge": eid,
            "swap": plan.swap,
            "d_s": "inf" if math.isinf(plan.d_s) else plan.d_s,
            "s_v": plan.s_v,
            "cv": "inf" if math.isinf(plan.cv) else plan.cv,
        })
    return {
        "version": _PLAN_FORMAT,
        "fingerprint": fingerprint,
        "tree": [] if tree is None else sorted(tree._base | tree._part),
        "plans": records,
    }


_RERUN = "re-run `mstplan precompute`"


def _canon(value) -> bytes:
    """Equal bytes for equal JSON values of equal types (marshal 2 has no back-references)."""
    return marshal.dumps(sorted(value.items()) if type(value) is dict else value, 2)


def plans_from_json(text: str, g: WeaklyDynamicGraph) -> PlanSet:
    """Load a plan set, refusing files computed from a different graph.

    Beyond the format version and the fingerprint guard, the plans are built
    with :func:`precompute_all` and the file is checked against them: its
    keys, tree and each record must be what :func:`plans_to_json` writes
    for the built set, JSON types included. So a tampered file is refused,
    even when its fingerprint was patched up, and so is one whose trees are
    not minimum. The error names the key, the tree, or the first record
    field that differs. The built set is returned, sharing ``g``'s kernel.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # too deeply nested for json
        raise PlanFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise PlanFormatError("top level must be a JSON object")
    version = doc.get("version")
    if _canon(version) != _canon(_PLAN_FORMAT):
        found = "no format version" if version is None else f"format version {version!r}"
        raise PlanFormatError(f"plan file has {found}, not {_PLAN_FORMAT}; {_RERUN}")
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, dict):
        raise PlanFormatError("missing fingerprint object")
    expected = graph_fingerprint(g)
    if fingerprint != expected:
        raise FingerprintMismatchError(
            f"plan file fingerprint {fingerprint} does not match graph {expected}"
        )
    for key in sorted(doc.keys() - {"plans", "tree", "version"}):
        if key != "fingerprint" or _canon(fingerprint) != _canon(expected):
            raise PlanFormatError(f"plan file key {key!r} is not what the writer writes; {_RERUN}")
    records = doc.get("plans")
    if not isinstance(records, list):
        raise PlanFormatError("missing plans array")

    ps = precompute_all(g)
    want = _document(ps, g, expected)
    if _canon(doc.get("tree")) != _canon(want["tree"]):
        raise PlanFormatError(f"tree is not the graph's minimum spanning tree; {_RERUN}")
    wanted = {record["edge"]: record for record in want["plans"]}
    seen = set()
    for record in records:
        if not isinstance(record, dict):
            raise PlanFormatError("plan record must be a JSON object")
        eid = record.get("edge")
        if type(eid) is not int or eid not in wanted:
            raise PlanFormatError(f"plan record edge {eid!r} is not an unstable edge of the graph")
        if eid in seen:
            raise PlanFormatError(f"duplicate plan for edge {eid}")
        seen.add(eid)
        want = wanted[eid]
        for key in {**want, **record}:
            if key not in record or key not in want or _canon(record[key]) != _canon(want[key]):
                found, value = (repr(d[key]) if key in d else "missing" for d in (record, want))
                raise PlanFormatError(
                    f"edge {eid}: {key} is {found} in the file, but {value} in the "
                    f"plans built from the graph; {_RERUN}"
                )
    _refuse_cover(seen, wanted)
    return ps


def write_plans(ps: PlanSet, g: WeaklyDynamicGraph, path: str | Path) -> None:
    Path(path).write_text(plans_to_json(ps, g), encoding="utf-8")


def read_plans(path: str | Path, g: WeaklyDynamicGraph) -> PlanSet:
    return plans_from_json(Path(path).read_text(encoding="utf-8"), g)


# --------------------------------------------------------------------------
# event streams


class Event(NamedTuple):
    seq: int
    edge_id: int
    new_x: float
    line: int


def parse_events(text: str) -> list[Event]:
    """Parse an event stream; sequence numbers must strictly increase."""
    events: list[Event] = []
    last_seq: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if len(fields) != 3:
            raise EventSyntaxError(
                "event line needs '<seq> <edge_id> <new_x>'", line=lineno
            )
        try:
            seq = int(fields[0])
            edge_id = int(fields[1])
        except ValueError:
            raise EventSyntaxError(
                f"bad integer field in {raw.strip()!r}", line=lineno
            ) from None
        try:
            new_x = float(fields[2])
        except ValueError:
            raise EventSyntaxError(f"bad value {fields[2]!r}", line=lineno) from None
        if not math.isfinite(new_x):
            raise EventSyntaxError(
                f"value must be finite, got {fields[2]!r}", line=lineno
            )
        if last_seq is not None and seq <= last_seq:
            raise EventSyntaxError(
                f"sequence {seq} does not increase past {last_seq}", line=lineno
            )
        last_seq = seq
        events.append(Event(seq, edge_id, new_x, lineno))
    return events


def format_events(events: list[tuple[int, int, float]]) -> str:
    """Render ``(seq, edge_id, new_x)`` triples as event-stream text."""
    return "".join(
        f"{seq} {edge_id} {format_value(new_x)}\n" for seq, edge_id, new_x in events
    )


# --------------------------------------------------------------------------
# random instances


def generate_graph(
    n: int, extra_edges: int, num_unstable: int, seed: int
) -> WeaklyDynamicGraph:
    """Random connected graph: a spanning backbone plus extra edges.

    Deterministic for a fixed seed. Integer weights in [1, 10^6]. Parallel
    edges may occur among the extras; self-loops never.
    """
    if n < 2:
        raise Error(f"need at least 2 vertices, got {n}")
    if extra_edges < 0:
        raise Error(f"extra edge count must be >= 0, got {extra_edges}")
    total = n - 1 + extra_edges
    if not 0 <= num_unstable <= total:
        raise Error(
            f"unstable count must be in [0, {total}], got {num_unstable}"
        )
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v))
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        pairs.append((u, v))
    weights = [rng.randint(1, 10**6) for _ in range(total)]
    unstable = set(rng.sample(range(total), num_unstable))
    kinds = [
        EdgeKind.UNSTABLE if i in unstable else EdgeKind.STABLE for i in range(total)
    ]
    return build_graph(
        n, [(u, v, w, k) for (u, v), w, k in zip(pairs, weights, kinds)]
    )
