"""Per-layer metrics for the traced run.

The traced blocks of the loop record, from the benchmark's own files, the
outcome of each call into ``mstplan``: what each change rebuilt and which
tree each answer chose. Nothing inside the package is instrumented. Where a
public call hides another (``apply_change`` runs ``precompute_all``, which
runs ``precompute_plan``, which runs the ``constrained`` searches on a
``graph.copy``; ``cli.main`` runs the ``fileio`` loaders), the inner call is
replayed on the same inputs and timed on its own.

Every workload reports every layer metric, measured on its own graph. A few
changes and ``mstplan query`` calls are made here on every workload, so that
the rebuild and command-line figures exist for those whose loop has none.
"""

from __future__ import annotations

import gc
import statistics
from pathlib import Path

from mstplan import (
    Constraints,
    constrained_mst_kruskal,
    constrained_mst_prim,
    graph_fingerprint,
    is_connected,
    parse_graph,
    plans_from_json,
    plans_to_json,
    precompute_all,
    precompute_plan,
    select_tree,
    set_unstable_weight,
)

from workloads import Run, Workload, change, cli_query, clock

# Replays per timed inner call; the median is reported.
REPS = 3
# Unstable edges whose plan is replayed call by call.
PLAN_REPLAYS = 4
# Changes made here, each paired with a replay of its rebuild.
PROBES = 3
# Command-line queries paired with a replay of their parts; the parts are
# subtracted from the query, so noise in either lands on the overhead.
CLI_PAIRS = 5


def _timed(fn, *args, reps: int = REPS):
    """Median wall time in ns of ``reps`` calls, and the last result."""
    samples = []
    for _ in range(reps):
        gc.collect()
        t0 = clock()
        out = fn(*args)
        samples.append(clock() - t0)
    return statistics.median(samples), out


def _with_values(g, values):
    view = g.copy()
    for eid, value in values.items():
        set_unstable_weight(view, eid, value)
    return view


def layer_metrics(wl: Workload, run: Run, workdir: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    ns, g = _timed(parse_graph, wl.text)
    m["fileio.parse_graph_ms"] = ns / 1e6
    m["fileio.graph_text_bytes"] = len(wl.text.encode("utf-8"))
    m["graph.is_connected_ms"] = _timed(is_connected, g, frozenset())[0] / 1e6
    m["graph.copy_us"] = _timed(g.copy, reps=21)[0] / 1e3

    scratch = g.copy()
    edge = wl.eids[0]
    w = scratch.weight(edge)
    samples = []
    for k in range(1001):
        t0 = clock()
        set_unstable_weight(scratch, edge, w + (k & 1))
        samples.append(clock() - t0)
    m["graph.set_unstable_weight_ns"] = statistics.median(samples)

    m["constrained.kruskal_full_ms"] = _timed(constrained_mst_kruskal, g)[0] / 1e6
    start = {e: g.weight(e) for e in wl.eids}
    kruskal, prim, plan = [], [], []
    for e in wl.eids[:PLAN_REPLAYS]:
        frozen = {k: v for k, v in start.items() if k != e}
        view = _with_values(g, frozen)
        forbid = Constraints(forbidden=frozenset({e}))
        kruskal.append(_timed(constrained_mst_kruskal, view, forbid, reps=1)[0])
        prim.append(_timed(constrained_mst_prim, view, e, reps=1)[0])
        plan.append(_timed(precompute_plan, g, e, frozen, reps=1)[0])
    m["constrained.kruskal_forbidden_ms_p50"] = statistics.median(kruskal) / 1e6
    m["constrained.prim_seeded_ms_p50"] = statistics.median(prim) / 1e6
    m["plans.precompute_plan_ms_p50"] = statistics.median(plan) / 1e6
    ns, ps = _timed(precompute_all, g, reps=1)
    m["plans.precompute_all_ms"] = ns / 1e6

    m["fileio.fingerprint_ms"] = _timed(graph_fingerprint, g)[0] / 1e6
    ns, plan_text = _timed(plans_to_json, ps, g)
    m["fileio.plans_to_json_ms"] = ns / 1e6
    m["fileio.plans_from_json_ms"] = _timed(plans_from_json, plan_text, g)[0] / 1e6
    m["fileio.plan_json_bytes"] = len(plan_text.encode("utf-8"))

    m.update(_change_metrics(wl, run, g, ps))
    m["cli.query_overhead_ms"] = _cli_overhead(wl, run, ps, plan_text, workdir)
    m["plans.variable_share"] = run.variable / run.selections
    return m


def _change_metrics(wl: Workload, run: Run, g, ps) -> dict[str, float]:
    """Rebuild figures over the traced changes and a few made here.

    Each change made here is followed at once by a replay of its rebuild,
    so that both meet the same heap and the same machine state.
    """
    live = g.copy()
    shares = []
    for k in range(PROBES):
        edge = wl.eids[wl.picks[k]]
        made = len(run.changes)
        ps = change(run, live, ps, edge, ps.plans[edge].cv + wl.offsets[k], True)
        if len(run.changes) > made:
            rebuild = _timed(precompute_all, live, reps=1)[0]
            shares.append(rebuild / run.changes[-1][0])
    rebuilt = sum(c[1] for c in run.changes)
    return {
        "plans.rebuild_share": statistics.median(shares),
        "plans.plans_rebuilt_per_change": rebuilt / len(run.changes),
        "plans.rebuild_useful_ratio": sum(c[2] for c in run.changes) / rebuilt,
    }


def _cli_overhead(wl: Workload, run: Run, ps, plan_text: str, workdir: Path) -> float:
    """``mstplan query`` time less its ``fileio`` and ``plans`` parts, in ms.

    Each query is followed at once by a replay of its parts on the same
    files, so that both meet the same heap and the same machine state.
    """
    graph_path, plan_path = workdir / "probe.graph", workdir / "probe.plan"
    graph_path.write_text(wl.text, encoding="utf-8")
    plan_path.write_text(plan_text, encoding="utf-8")
    values = dict(ps.snapshot)
    overheads = []
    for k in range(CLI_PAIRS):
        edge = wl.eids[wl.picks[k]]
        x = ps.plans[edge].cv + wl.offsets[k]
        took = cli_query(run, graph_path, plan_path, values, edge, x, True)
        graph_text = graph_path.read_text(encoding="utf-8")
        stored = plan_path.read_text(encoding="utf-8")
        gc.collect()
        t0 = clock()
        loaded = plans_from_json(stored, parse_graph(graph_text))
        select_tree(loaded.plans[edge], x)
        parts = clock() - t0
        if took is not None:
            overheads.append(took - parts)
    return statistics.median(overheads) / 1e6
