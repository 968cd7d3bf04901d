"""Text formats: graph files, plan files, event streams, plus the generator.

Graph files are DIMACS-flavored lines. One header ``p wdg <n> <num_edges>``
comes before any edge line; ``e <u> <v> <w>`` declares a stable edge and
``u <u> <v> <x0>`` an unstable one, with ids assigned by line order among
edge lines. Lines whose first token is ``c`` are comments; blank lines and
trailing whitespace are tolerated.

Plan files are JSON. Infinities are serialized as the string "inf". Every
plan file carries a fingerprint of the graph it was computed from, and
loading against a graph with a different fingerprint is refused.

Event streams are lines ``<seq> <edge_id> <new_x>`` with strictly
increasing sequence numbers, one weight change per line.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
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
    DisjointSetUnion,
    EdgeKind,
    WeaklyDynamicGraph,
    _validate_edge,
    build_graph,
    unstable_values,
)
from .plans import EdgePlan, PlanSet
from .constrained import SpanningTree, tree_total_weight


def format_value(value: float) -> str:
    """Render a number for the text formats: integral values bare, inf as 'inf'."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


# --------------------------------------------------------------------------
# graph files


def parse_graph(text: str) -> WeaklyDynamicGraph:
    """Parse graph-file text. Raises with a 1-based line number on bad input."""
    header: tuple[int, int] | None = None
    specs: list[tuple[int, int, int, float, EdgeKind]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        tag = fields[0]
        if tag == "p":
            if header is not None:
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
            header = (n, m)
        elif tag in ("e", "u"):
            if header is None:
                raise GraphSyntaxError("edge line before header", line=lineno)
            if len(fields) != 4:
                raise GraphSyntaxError(
                    f"edge line needs '{tag} <u> <v> <weight>'", line=lineno
                )
            u = _parse_int(fields[1], lineno, "endpoint")
            v = _parse_int(fields[2], lineno, "endpoint")
            w = _parse_real(fields[3], lineno)
            kind = EdgeKind.UNSTABLE if tag == "u" else EdgeKind.STABLE
            specs.append((lineno, u, v, w, kind))
        else:
            raise GraphSyntaxError(f"unknown record type {tag!r}", line=lineno)

    if header is None:
        raise GraphSyntaxError("missing 'p wdg <n> <num_edges>' header")
    n, m = header
    if len(specs) != m:
        raise GraphSyntaxError(
            f"header declares {m} edge lines, file has {len(specs)}"
        )
    for lineno, u, v, w, _ in specs:
        try:
            _validate_edge(n, u, v, w)
        except Error as err:
            raise type(err)(f"line {lineno}: {err}") from None
    return build_graph(n, [(u, v, w, kind) for _, u, v, w, kind in specs])


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
    for e in g.edges:
        tag = "u" if e.kind is EdgeKind.UNSTABLE else "e"
        lines.append(f"{tag} {e.u} {e.v} {format_value(e.weight)}")
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path) -> WeaklyDynamicGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def write_graph(g: WeaklyDynamicGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


def graph_fingerprint(g: WeaklyDynamicGraph) -> dict:
    """Identity of a graph's content: size counts plus a canonical-text hash."""
    digest = hashlib.sha256(format_graph(g).encode("utf-8")).hexdigest()
    return {"n": g.n, "edges": g.num_edges, "sha256": digest}


# --------------------------------------------------------------------------
# plan files


def plans_to_json(ps: PlanSet, g: WeaklyDynamicGraph) -> str:
    """Serialize a plan set computed from ``g`` (at ``g``'s current values)."""
    doc = {
        "fingerprint": graph_fingerprint(g),
        "plans": [_encode_plan(ps.plans[eid]) for eid in sorted(ps.plans)],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _encode_plan(plan: EdgePlan) -> dict:
    record = {
        "edge": plan.edge_id,
        "d_s": "inf" if math.isinf(plan.d_s) else plan.d_s,
        "s_v": plan.s_v,
        "cv": "inf" if math.isinf(plan.cv) else plan.cv,
        "mst_v": sorted(plan.mst_v.edge_ids),
        "frozen_others": {str(k): plan.frozen_others[k] for k in sorted(plan.frozen_others)},
    }
    if plan.mst_s is not None:
        record["mst_s"] = sorted(plan.mst_s.edge_ids)
    return record


def plans_from_json(text: str, g: WeaklyDynamicGraph) -> PlanSet:
    """Load a plan set, refusing files computed from a different graph.

    Beyond the fingerprint guard, each record is checked for internal
    consistency (threshold arithmetic, tree shape, totals at the graph's
    current values), so a tampered file is rejected even when its
    fingerprint was patched up. No spanning-tree computation is performed.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise PlanFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise PlanFormatError("top level must be a JSON object")
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, dict):
        raise PlanFormatError("missing fingerprint object")
    expected = graph_fingerprint(g)
    if fingerprint != expected:
        raise FingerprintMismatchError(
            f"plan file fingerprint {fingerprint} does not match graph {expected}"
        )
    records = doc.get("plans")
    if not isinstance(records, list):
        raise PlanFormatError("missing plans array")

    snapshot = unstable_values(g)
    plans: dict[int, EdgePlan] = {}
    for record in records:
        plan = _decode_plan(record, g, snapshot)
        if plan.edge_id in plans:
            raise PlanFormatError(f"duplicate plan for edge {plan.edge_id}")
        plans[plan.edge_id] = plan
    if set(plans) != set(g.unstable_ids):
        raise PlanFormatError(
            f"plans cover edges {sorted(plans)}, "
            f"graph's unstable edges are {sorted(g.unstable_ids)}"
        )
    return PlanSet(plans=plans, snapshot=snapshot)


def _decode_plan(record, g: WeaklyDynamicGraph, snapshot: dict) -> EdgePlan:
    if not isinstance(record, dict):
        raise PlanFormatError("plan record must be a JSON object")
    edge_id = record.get("edge")
    if isinstance(edge_id, bool) or not isinstance(edge_id, int):
        raise PlanFormatError(f"bad edge id {edge_id!r}")
    if edge_id not in snapshot:
        raise PlanFormatError(f"edge {edge_id} is not an unstable edge of the graph")

    d_s = _decode_value(record, "d_s", edge_id)
    s_v = _decode_value(record, "s_v", edge_id)
    cv = _decode_value(record, "cv", edge_id)
    if math.isinf(s_v):
        raise PlanFormatError(f"edge {edge_id}: s_v must be finite")
    if cv != d_s - s_v:
        raise PlanFormatError(
            f"edge {edge_id}: cv={cv!r} disagrees with d_s - s_v = {d_s - s_v!r}"
        )

    mst_v = _decode_tree(record.get("mst_v"), g, edge_id, "mst_v")
    if edge_id not in mst_v.edge_ids:
        raise PlanFormatError(f"edge {edge_id}: mst_v must contain the edge itself")

    if math.isinf(d_s):
        if "mst_s" in record:
            raise PlanFormatError(
                f"edge {edge_id}: mst_s present although d_s is infinite"
            )
        mst_s = None
    else:
        if "mst_s" not in record:
            raise PlanFormatError(f"edge {edge_id}: mst_s missing")
        mst_s = _decode_tree(record["mst_s"], g, edge_id, "mst_s")
        if edge_id in mst_s.edge_ids:
            raise PlanFormatError(f"edge {edge_id}: mst_s must avoid the edge itself")
        if tree_total_weight(mst_s, g) != d_s:
            raise PlanFormatError(
                f"edge {edge_id}: d_s disagrees with mst_s at current weights"
            )
    if tree_total_weight(mst_v, g, exclude=edge_id) != s_v:
        raise PlanFormatError(
            f"edge {edge_id}: s_v disagrees with mst_v at current weights"
        )

    frozen = _decode_frozen(record.get("frozen_others"), edge_id, snapshot)
    return EdgePlan(
        edge_id=edge_id,
        mst_s=mst_s,
        d_s=d_s,
        mst_v=mst_v,
        s_v=s_v,
        cv=cv,
        frozen_others=frozen,
    )


def _decode_value(record: dict, key: str, edge_id: int) -> float:
    if key not in record:
        raise PlanFormatError(f"edge {edge_id}: missing {key}")
    value = record[key]
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanFormatError(f"edge {edge_id}: bad {key} {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise PlanFormatError(f"edge {edge_id}: {key} must be 'inf' or finite")
    return value


def _decode_tree(ids, g: WeaklyDynamicGraph, edge_id: int, key: str) -> SpanningTree:
    if not isinstance(ids, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in ids
    ):
        raise PlanFormatError(f"edge {edge_id}: {key} must be a list of edge ids")
    if len(set(ids)) != g.n - 1:
        raise PlanFormatError(
            f"edge {edge_id}: {key} must list {g.n - 1} distinct edge ids"
        )
    dsu = DisjointSetUnion(g.n)
    for i in ids:
        if not 0 <= i < g.num_edges:
            raise PlanFormatError(f"edge {edge_id}: {key} names unknown edge {i}")
        e = g.edges[i]
        if not dsu.union(e.u, e.v):
            raise PlanFormatError(f"edge {edge_id}: {key} contains a cycle")
    if dsu.components != 1:
        raise PlanFormatError(f"edge {edge_id}: {key} does not span the graph")
    return SpanningTree.from_edge_ids(g, ids)


def _decode_frozen(mapping, edge_id: int, snapshot: dict) -> dict[int, float]:
    if not isinstance(mapping, dict):
        raise PlanFormatError(f"edge {edge_id}: missing frozen_others map")
    frozen: dict[int, float] = {}
    for key, value in mapping.items():
        try:
            other = int(key)
        except ValueError:
            raise PlanFormatError(
                f"edge {edge_id}: bad frozen_others key {key!r}"
            ) from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PlanFormatError(f"edge {edge_id}: bad frozen value {value!r}")
        frozen[other] = float(value)
    expected = set(snapshot) - {edge_id}
    if set(frozen) != expected:
        raise PlanFormatError(
            f"edge {edge_id}: frozen_others must cover exactly edges {sorted(expected)}"
        )
    for other, value in frozen.items():
        if value != snapshot[other]:
            raise PlanFormatError(
                f"edge {edge_id}: frozen value for edge {other} "
                f"disagrees with the graph's current value"
            )
    return frozen


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
