"""Set-up, timed closed loop and answer recording for each workload.

Every workload is a closed loop on one thread: ``apply_change`` and
``cli.main`` are synchronous, so each caller waits for its answer before it
sends the next request. Every round of every workload ends with a burst of
what-if queries, each ``select_tree`` call timed on its own and counted in
the run's latency histogram, and one back-to-back batch, timed in chunks of
``CHUNK`` calls whose rates give ``queries_per_s``.

Answers are recorded in the loop and checked against the reference after
it, outside the timed window. A full garbage collection precedes each
set-up, change and command-line query, outside its timed window: those calls
allocate enough to start collections of the whole heap, and without a
common starting point their cost would depend on the rounds before.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from mstplan import (
    Error,
    TreeKind,
    apply_change,
    parse_graph,
    precompute_all,
    read_graph,
    read_plans,
    select_tree,
)
from mstplan.cli import main as cli_main

from instances import make_instance, make_offsets, make_picks
from reference import Reference

clock = time.perf_counter_ns

# Length of each pre-drawn operation stream; longer runs cycle through it.
STREAM = 4096
# Calls per timed chunk of a batch: about 1 to 2 ms, short enough that most
# chunks run at one speed of the machine.
CHUNK = 2048


@dataclass
class Run:
    """What one run measured and recorded.

    An answer is ``(values, edge, x, tree_ids, total)``: the unstable values
    in force, the edge whose value the what-if replaced, that value, and the
    reported tree and total. A seeded reservoir of ``checks`` answers is kept
    for the reference check, so that memory does not grow with the rounds.
    """

    checks: int
    seed: int
    setup_s: list[float] = field(default_factory=list)
    call_ns: Counter = field(default_factory=Counter)
    batch_rates: list[float] = field(default_factory=list)
    request_ns: list[int] = field(default_factory=list)
    answers: list[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    problems: list[str] = field(default_factory=list)
    # Filled only while tracing.
    selections: int = 0
    variable: int = 0
    changes: list[tuple[int, int, int]] = field(default_factory=list)

    offered: int = 0

    def __post_init__(self):
        self.rng = random.Random(f"check:{self.seed}")

    def keep(self, answer: tuple) -> None:
        """Offer an answer to the reservoir that is checked after the loop."""
        self.offered += 1
        if len(self.answers) < self.checks:
            self.answers.append(answer)
        else:
            slot = self.rng.randrange(self.offered)
            if slot < self.checks:
                self.answers[slot] = answer

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def queries(run: Run, pairs, values: dict, traced: bool) -> None:
    """Answer each ``(plan, x)`` what-if, timing every call on its own.

    Each call's time is counted in ``run.call_ns``. The first answer of
    the burst is offered for the reference check.
    """
    lat = []
    first = True
    for plan, x in pairs:
        try:
            t0 = clock()
            sel = select_tree(plan, x)
            t1 = clock()
        except Error as err:
            run.fail(f"select_tree on edge {plan.edge_id} at x={x}: {err}")
            continue
        lat.append(t1 - t0)
        if traced:
            run.selections += 1
            run.variable += sel.chosen is TreeKind.VARIABLE
        if first:
            run.keep((values, plan.edge_id, x, sel.tree.edge_ids, sel.total_weight))
            first = False
    run.attempted += len(pairs)
    run.call_ns.update(lat)


def batch(run: Run, pairs) -> int | None:
    """Answer ``pairs`` back to back and return the time, None on error.

    Each chunk of ``CHUNK`` calls is timed on its own and its rate kept in
    ``run.batch_rates``; the batch's time is the sum of its chunks.
    """
    run.attempted += len(pairs)
    took = 0
    try:
        for start in range(0, len(pairs), CHUNK):
            chunk = pairs[start:start + CHUNK]
            t0 = clock()
            for plan, x in chunk:
                select_tree(plan, x)
            t1 = clock()
            run.batch_rates.append(len(chunk) * 1e9 / (t1 - t0))
            took += t1 - t0
    except Error as err:
        run.fail(f"select_tree batch: {err}")
        return None
    return took


def _tree_ids(tree):
    return None if tree is None else tree.edge_ids


def _same_plan(a, b) -> bool:
    return (
        a.d_s == b.d_s
        and a.s_v == b.s_v
        and a.cv == b.cv
        and a.mst_v.edge_ids == b.mst_v.edge_ids
        and _tree_ids(a.mst_s) == _tree_ids(b.mst_s)
    )


def change(run: Run, g, ps, edge: int, x: float, traced: bool):
    """One timed ``apply_change``; returns the new plan set (the old on error)."""
    run.attempted += 1
    gc.collect()
    try:
        t0 = clock()
        sel, new = apply_change(ps, g, edge, x)
        t1 = clock()
    except Error as err:
        run.fail(f"apply_change on edge {edge} to {x}: {err}")
        return ps
    run.request_ns.append(t1 - t0)
    values = dict(new.snapshot)
    run.keep((values, edge, x, sel.tree.edge_ids, sel.total_weight))
    if traced:
        run.selections += 1
        run.variable += sel.chosen is TreeKind.VARIABLE
        rebuilt = [e for e in new.plans if new.plans[e] is not ps.plans.get(e)]
        useful = sum(
            1 for e in rebuilt if e not in ps.plans or not _same_plan(ps.plans[e], new.plans[e])
        )
        run.changes.append((t1 - t0, len(rebuilt), useful))
    return new


def cli_query(run: Run, graph_path: Path, plan_path: Path, values: dict,
              edge: int, x: float, traced: bool) -> int | None:
    """One in-process ``mstplan query`` with its standard output captured.

    Returns its time in ns, or None when it failed.
    """
    run.attempted += 1
    argv = ["query", str(plan_path), str(graph_path), "--edge", str(edge), "--x", str(int(x))]
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out):
        t0 = clock()
        code = cli_main(argv)
        t1 = clock()
    lines = out.getvalue().split("\n")
    try:
        kind, total = lines[0].split()
        head, *ids = lines[1].split()
        if code != 0 or head != "edges:":
            raise ValueError(f"exit code {code}")
        answer = (values, edge, x, [int(i) for i in ids], float(total))
    except (ValueError, IndexError) as err:
        run.fail(f"mstplan query on edge {edge} at x={x}: {err}: {lines[:2]!r}")
        return None
    run.request_ns.append(t1 - t0)
    run.keep(answer)
    if traced:
        run.selections += 1
        run.variable += kind == TreeKind.VARIABLE.value
    return t1 - t0


class Workload:
    """Seeded inputs plus the state the loop works on."""

    def __init__(self, params: dict, seed: int):
        self.params = params
        self.seed = seed
        self.inst = make_instance(params["n"], params["edges"], params["unstable"], seed)
        self.text = self.inst.text()
        self.reference = Reference(self.inst)
        self.eids = list(self.inst.unstable)
        reach = params["reach"]
        self.picks = make_picks(STREAM, len(self.eids), seed, "query-edge")
        self.offsets = make_offsets(STREAM, reach, seed, "query-offset")
        self.g = None
        self.ps = None

    def pairs(self, start: int, count: int):
        """``count`` what-ifs from the query stream against the current plans."""
        plans, eids, picks, offsets = self.ps.plans, self.eids, self.picks, self.offsets
        out = []
        for k in range(start, start + count):
            plan = plans[eids[picks[k % STREAM]]]
            out.append((plan, plan.cv + offsets[k % STREAM]))
        return out

    def setup(self, run: Run) -> None:
        """Graph text to a ready plan set, which replaces the current one."""
        gc.collect()
        t0 = time.perf_counter()
        g = parse_graph(self.text)
        ps = precompute_all(g)
        run.setup_s.append(time.perf_counter() - t0)
        self.g, self.ps = g, ps

    def round_queries(self, run: Run, rnd: int, traced: bool) -> int | None:
        """The round's what-if burst and batch; returns the batch time."""
        burst, size = self.params["burst"], self.params["batch"]
        queries(run, self.pairs(rnd * burst, burst), self.ps.snapshot, traced)
        return batch(run, self.pairs(rnd * size, size))

    def warm_up(self, run: Run) -> None:
        self.round_queries(run, 0, False)

    def loop(self, run: Run, seconds: float, traced: bool, first: int = 0) -> int:
        """Run rounds for ``seconds``; returns how many rounds were run."""
        deadline = clock() + int(seconds * 1e9)
        rnd = first
        while clock() < deadline:
            rnd += 1
            self.one_round(run, rnd, traced)
        return rnd - first

    def one_round(self, run: Run, rnd: int, traced: bool) -> None:
        raise NotImplementedError


class WhatIfRead(Workload):
    """Plans built once; a long stream of what-if queries and no changes.

    Its request is the round's batch, a caller asking for a table of
    scenarios at once.
    """

    def one_round(self, run, rnd, traced):
        took = self.round_queries(run, rnd, traced)
        if took is not None:
            run.request_ns.append(took)


class ChangeMix(Workload):
    """Each round changes one unstable edge, then queries the new plans."""

    def __init__(self, params, seed):
        super().__init__(params, seed)
        self.change_picks = make_picks(STREAM, len(self.eids), seed, "change-edge")
        self.change_offsets = make_offsets(STREAM, params["reach"], seed, "change-offset")

    def change(self, run: Run, rnd: int, traced: bool) -> None:
        edge = self.eids[self.change_picks[rnd % STREAM]]
        x = self.ps.plans[edge].cv + self.change_offsets[rnd % STREAM]
        self.ps = change(run, self.g, self.ps, edge, x, traced)

    def warm_up(self, run):
        self.change(run, 0, False)
        super().warm_up(run)

    def one_round(self, run, rnd, traced):
        self.change(run, rnd, traced)
        self.round_queries(run, rnd, traced)


class ColdStart(Workload):
    """Plan and graph files written at set-up; each request is one ``mstplan query``."""

    def __init__(self, params, seed, workdir: Path):
        super().__init__(params, seed)
        self.graph_path = workdir / "graph.txt"
        self.plan_path = workdir / "graph.plan"

    def setup(self, run):
        """Graph text to graph and plan files; they are rewritten alike each time."""
        argv = ["precompute", str(self.graph_path), "-o", str(self.plan_path)]
        gc.collect()
        t0 = time.perf_counter()
        self.graph_path.write_text(self.text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        run.setup_s.append(time.perf_counter() - t0)
        if code != 0:
            raise Error(f"mstplan precompute exited with {code}")
        if self.ps is None:
            # The plan set a reader gets from the files: it serves the
            # what-if bursts and gives each query its threshold.
            self.g = read_graph(self.graph_path)
            self.ps = read_plans(self.plan_path, self.g)

    def query(self, run: Run, rnd: int, traced: bool) -> None:
        k = (rnd * 7919) % STREAM  # a stride through the stream, apart from the bursts
        edge = self.eids[self.picks[k]]
        x = self.ps.plans[edge].cv + self.offsets[k]
        cli_query(run, self.graph_path, self.plan_path, dict(self.ps.snapshot),
                  edge, x, traced)

    def warm_up(self, run):
        self.query(run, 0, False)
        super().warm_up(run)

    def one_round(self, run, rnd, traced):
        self.query(run, rnd, traced)
        self.round_queries(run, rnd, traced)


def check_answers(run: Run, wl: Workload) -> None:
    """Check the kept answers against the reference."""
    for values, edge, x, tree, total in run.answers:
        in_force = dict(values)
        in_force[edge] = x
        problem = wl.reference.check(in_force, tree, total)
        run.checked += 1
        if problem is not None:
            run.fail(f"edge {edge} at x={x}: {problem}")
