"""Command-line surface.

Five subcommands: ``precompute`` builds and stores the per-edge plans,
``query`` answers a what-if value from a stored plan, which it loads by
building the plans afresh and checking the file against them, ``simulate``
replays a weight-change event stream and benchmarks answer latency against
from-scratch recomputation, ``generate`` emits random test graphs, and
``verify`` cross-checks the engine against the exhaustive oracle on small
instances.

Exit codes: 0 success, 1 usage or input errors, 2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

from .constrained import constrained_mst_kruskal, tree_total_weight
from .errors import Error
from .fileio import (
    _plan_text,
    format_graph,
    format_value,
    generate_graph,
    parse_events,
    parse_graph,
    plans_from_json,
)
from .graph import set_unstable_weight
from .oracle import _critical_value, brute_constrained_min, enumerate_spanning_trees
from .plans import apply_change, precompute_all, select_tree

_MAX_STEPS = 1000  # the most grid steps ``verify`` takes on each side of a threshold


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mstplan",
        description="Precomputed spanning-tree plans for graphs with unstable edge weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("precompute", help="build plans for a graph and store them")
    p.add_argument("graph", help="graph file")
    p.add_argument("-o", "--output", required=True, metavar="plan", help="plan file to write")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("query", help="answer a what-if value from a stored plan")
    p.add_argument("plan", help="plan file")
    p.add_argument("graph", help="graph file the plan was computed from")
    p.add_argument("--edge", type=int, required=True, help="unstable edge id")
    p.add_argument("--x", type=float, required=True, help="hypothetical weight")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("simulate", help="replay weight-change events and benchmark")
    p.add_argument("plan", help="plan file")
    p.add_argument("graph", help="graph file the plan was computed from")
    p.add_argument("events", help="event stream file")
    p.add_argument(
        "--compare-naive",
        action="store_true",
        help="also time a from-scratch minimum spanning tree per event",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="emit a random connected graph")
    p.add_argument("--n", type=int, required=True, help="vertex count (>= 2)")
    p.add_argument("--extra-edges", type=int, default=0, help="edges beyond the backbone")
    p.add_argument("--unstable", type=int, default=0, help="how many edges are unstable")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="cross-check plans against the exhaustive oracle")
    p.add_argument("graph", help="graph file (small enough to enumerate)")
    p.add_argument("--halfwidth", type=float, default=3.0, help="grid reach around the threshold")
    p.add_argument("--step", type=float, default=0.5, help="grid spacing")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except Error as err:
        print(f"mstplan: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise Error(f"cannot open {path}: {err.strerror or err}") from None


def cmd_precompute(args) -> int:
    g = parse_graph(_read_text(args.graph))
    ps = precompute_all(g)
    try:
        Path(args.output).write_text(_plan_text(ps, g), encoding="utf-8")
    except OSError as err:
        raise Error(f"cannot write {args.output}: {err.strerror or err}") from None
    for eid in sorted(ps.plans):
        plan = ps.plans[eid]
        print(
            f"edge {eid}: d_s={format_value(plan.d_s)} "
            f"s_v={format_value(plan.s_v)} cv={format_value(plan.cv)}"
        )
    return 0


def cmd_query(args) -> int:
    g = parse_graph(_read_text(args.graph))
    ps = plans_from_json(_read_text(args.plan), g)
    if args.edge not in ps.plans:
        g.weight(args.edge)  # raises for an unknown id
        raise Error(f"edge {args.edge} is stable; only unstable edges have plans")
    selection = select_tree(ps.plans[args.edge], args.x)
    print(f"{selection.chosen.value} {format_value(selection.total_weight)}")
    print("edges: " + " ".join(str(i) for i in sorted(selection.tree.edge_ids)))
    return 0


def cmd_simulate(args) -> int:
    g = parse_graph(_read_text(args.graph))
    ps = plans_from_json(_read_text(args.plan), g)
    events = parse_events(_read_text(args.events))

    # Warm-up pass, excluded from the stats: one selection per plan (this
    # also records the starting tree kind for switch counting) and, when
    # comparing, one throwaway full recompute.
    last_kind = {
        eid: select_tree(plan, ps.snapshot[eid]).chosen
        for eid, plan in ps.plans.items()
    }
    if args.compare_naive and events:
        constrained_mst_kruskal(g)

    clock = time.perf_counter_ns
    select_ns: list[int] = []
    rebuild_ns: list[int] = []
    naive_ns: list[int] = []
    switches = 0

    for ev in events:
        try:
            plan = ps.plans.get(ev.edge_id)
            if plan is not None:
                select_ns.append(_selection_latency_ns(plan, ev.new_x))
            t0 = clock()
            immediate, ps = apply_change(ps, g, ev.edge_id, ev.new_x)
            rebuild_ns.append(clock() - t0)
        except Error as err:
            raise Error(f"line {ev.line}: {err}") from None
        if immediate.chosen is not last_kind[ev.edge_id]:
            switches += 1
            last_kind[ev.edge_id] = immediate.chosen
        if args.compare_naive:
            t0 = clock()
            tree = constrained_mst_kruskal(g)
            tree_total_weight(tree, g)
            naive_ns.append(clock() - t0)

    print(f"events processed: {len(events)}")
    print(f"tree switches: {switches}")
    if select_ns:
        print("selection latency ns: " + _stats(select_ns))
        print("rebuild latency ns: " + _stats(rebuild_ns))
    if naive_ns:
        print("naive recompute ns: " + _stats(naive_ns))
        print(
            "speedup: "
            f"median={_ratio(statistics.median(naive_ns), statistics.median(select_ns))} "
            f"mean={_ratio(statistics.mean(naive_ns), statistics.mean(select_ns))}"
        )
    return 0


def _selection_latency_ns(plan, x: float) -> int:
    """One event's answer latency: median of a short burst, warm-up excluded.

    A single-shot reading mostly measures the cache state left behind by the
    surrounding rebuild and recompute phases, so each event gets a few
    untimed warm-up calls and the median of nine timed ones. The timed
    window holds nothing else: even releasing the previous call's result
    would drag unrelated deallocation work into the reading.
    """
    clock = time.perf_counter_ns
    for _ in range(3):
        select_tree(plan, x)
    samples = []
    keep = None
    for _ in range(9):
        t0 = clock()
        keep = select_tree(plan, x)
        samples.append(clock() - t0)
    samples.sort()
    return samples[4]


def _stats(samples: list[int]) -> str:
    return (
        f"mean={format_value(round(statistics.mean(samples), 1))} "
        f"median={format_value(round(statistics.median(samples), 1))} "
        f"max={format_value(float(max(samples)))}"
    )


def _ratio(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "inf"
    return format_value(round(numerator / denominator, 1))


def cmd_generate(args) -> int:
    g = generate_graph(args.n, args.extra_edges, args.unstable, args.seed)
    sys.stdout.write(format_graph(g))
    return 0


def cmd_verify(args) -> int:
    # Chained comparisons are False for NaN, so NaN is refused too. The
    # ratio is read only once the step is known to be positive.
    step, halfwidth = args.step, args.halfwidth
    if not (0 < step < math.inf and 0 <= halfwidth < math.inf and halfwidth / step <= _MAX_STEPS):
        raise Error(
            "grid step must be finite and > 0, halfwidth finite and >= 0, "
            f"and halfwidth / step at most {_MAX_STEPS}"
        )
    g = parse_graph(_read_text(args.graph))
    ps = precompute_all(g)
    if not ps.plans:
        print("no unstable edges; nothing to verify")
        return 0

    # One catalog for every edge; each sweep restores the value it moved.
    view = g.copy()
    catalog = enumerate_spanning_trees(view)
    failures = 0
    multiple = len(ps.plans) > 1
    for eid in sorted(ps.plans):
        plan = ps.plans[eid]
        if multiple:
            print(f"edge {eid}")
        oracle_cv = _critical_value(catalog, eid)
        ok = plan.cv == oracle_cv
        failures += 0 if ok else 1
        print(
            f"cv: engine={format_value(plan.cv)} "
            f"oracle={format_value(oracle_cv)} {'OK' if ok else 'MISMATCH'}"
        )
        for x in _grid(plan.cv, halfwidth, step):
            selected = select_tree(plan, x).total_weight
            set_unstable_weight(view, eid, x)
            best = brute_constrained_min(catalog)
            catalog_min = tree_total_weight(best, view)
            ok = selected == catalog_min
            failures += 0 if ok else 1
            print(
                f"x={format_value(x)} select={format_value(selected)} "
                f"catalog={format_value(catalog_min)} {'OK' if ok else 'MISMATCH'}"
            )
        set_unstable_weight(view, eid, g.weight(eid))
    return 2 if failures else 0


def _grid(cv: float, halfwidth: float, step: float) -> list[float]:
    # A bridge edge has an infinite threshold; probe two far-apart values.
    if cv == float("inf"):
        return [0.0, 10.0**6]
    xs = {cv}
    count = int(halfwidth / step + 1e-9)
    for i in range(1, count + 1):
        xs.add(cv - i * step)
        xs.add(cv + i * step)
    return sorted(xs)


# Built once per process, now that the ``cmd_*`` functions it names exist.
_PARSER = build_parser()
