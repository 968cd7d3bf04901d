"""End-to-end acceptance checks.

Each check prints one ``criterion N: PASS/FAIL`` line directly to the
terminal (pytest capture is suspended for that line), so a test run shows
the verdict table even when everything passes.
"""

import contextlib
import math
import random
import subprocess
import sys
import time

import pytest
from helpers import (
    BRIDGE_TEXT,
    M3_TEXT,
    PARALLEL_TEXT,
    THRESHOLD8_TEXT,
    TRIANGLE_TEXT,
    bridge_graph,
    random_constraints,
    random_graph,
)

from mstplan import (
    Constraints,
    FingerprintMismatchError,
    Infeasible,
    TreeKind,
    apply_change,
    brute_constrained_min,
    brute_critical_value,
    constrained_mst_kruskal,
    constrained_mst_prim,
    enumerate_spanning_trees,
    format_events,
    generate_graph,
    max_weight_on_tree_path,
    parse_graph,
    precompute_all,
    read_plans,
    select_tree,
    set_unstable_weight,
    tree_total_weight,
    write_graph,
    write_plans,
)


@contextlib.contextmanager
def reported(capsys, num, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL  {title}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num}: PASS  {title}", flush=True)


def test_criterion_1(capsys):
    with reported(capsys, 1, "fixture thresholds and selections match the oracle"):
        t0 = time.perf_counter()
        g = parse_graph(THRESHOLD8_TEXT)
        plan = precompute_all(g).plans[5]
        assert (plan.d_s, plan.s_v, plan.cv) == (40.0, 32.0, 8.0)

        sel = select_tree(plan, 7.0)
        assert (sel.chosen, sel.total_weight) == (TreeKind.VARIABLE, 39.0)
        sel = select_tree(plan, 9.0)
        assert (sel.chosen, sel.total_weight) == (TreeKind.STABLE, 40.0)
        sel = select_tree(plan, 8.0)
        assert (sel.chosen, sel.total_weight) == (TreeKind.STABLE, 40.0)

        # independent ground truth on the same instance
        assert brute_critical_value(g, 5) == 8.0
        catalog = enumerate_spanning_trees(g)
        for x, expected in [(7.0, 39.0), (8.0, 40.0), (9.0, 40.0)]:
            set_unstable_weight(g, 5, x)
            best = brute_constrained_min(catalog)
            assert tree_total_weight(best, g) == expected
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2(capsys):
    with reported(capsys, 2, "constrained search equals exhaustive search, 1000 instances"):
        t0 = time.perf_counter()
        rng = random.Random(20260819)
        feasible = infeasible = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
            cons = random_constraints(rng, g)
            got = constrained_mst_kruskal(g, cons)
            want = brute_constrained_min(enumerate_spanning_trees(g), cons)
            if isinstance(want, Infeasible):
                assert isinstance(got, Infeasible)
                assert got.reason == want.reason
                infeasible += 1
            else:
                assert not isinstance(got, Infeasible)
                assert tree_total_weight(got, g) == tree_total_weight(want, g)
                feasible += 1
        assert feasible >= 100 and infeasible >= 100
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3(capsys):
    with reported(capsys, 3, "seeded growth equals sorted scan under one mandatory edge"):
        rng = random.Random(31415)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(3, 8), rng.randint(0, 4))
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
                assert tree_total_weight(got_p, g) == tree_total_weight(got_k, g)


def test_criterion_4(capsys):
    with reported(capsys, 4, "thresholds and grid selections verified, 200 instances"):
        rng = random.Random(2718281)
        for _ in range(200):
            n = rng.randint(4, 8)
            extra = rng.randint(1, 4)
            eid = n - 1 + rng.randrange(extra)  # extras are never bridges
            g = random_graph(rng, n, extra, unstable={eid})
            plan = precompute_all(g).plans[eid]
            cv = brute_critical_value(g, eid)
            assert plan.cv == cv

            view = g.copy()
            catalog = enumerate_spanning_trees(view)
            xs = {cv}
            for i in range(1, 7):
                xs.add(cv - i * 0.5)
                xs.add(cv + i * 0.5)
            for x in sorted(xs):
                set_unstable_weight(view, eid, x)
                best = brute_constrained_min(catalog)
                assert select_tree(plan, x).total_weight == tree_total_weight(best, view)


def test_criterion_5(capsys):
    with reported(capsys, 5, "threshold equals the heaviest path weight, avoiding tree"):
        rng = random.Random(5772156)
        for _ in range(120):
            n = rng.randint(4, 8)
            extra = rng.randint(1, 4)
            eid = n - 1 + rng.randrange(extra)
            m = n - 1 + extra
            weights = rng.sample(range(1, 500), m)  # all weights distinct
            g = random_graph(rng, n, extra, unstable={eid}, weights=weights)
            plan = precompute_all(g).plans[eid]
            assert plan.mst_s is not None
            e = g.edge(eid)
            assert plan.cv == max_weight_on_tree_path(plan.mst_s, g, e.u, e.v)


def test_criterion_6(capsys):
    with reported(capsys, 6, "bridges: infinite threshold, same tree at any value"):
        rng = random.Random(1414213)
        for _ in range(50):
            g = bridge_graph(rng, rng.randint(2, 7), rng.randint(0, 3))
            eid = g.num_edges - 1
            plan = precompute_all(g).plans[eid]
            assert plan.cv == math.inf
            assert plan.mst_s is None
            assert brute_critical_value(g, eid) == math.inf

            view = g.copy()
            catalog = enumerate_spanning_trees(view)
            for x in (0.0, 10.0**6):
                sel = select_tree(plan, x)
                assert sel.chosen is TreeKind.VARIABLE
                assert eid in sel.tree.edge_ids
                set_unstable_weight(view, eid, x)
                best = brute_constrained_min(catalog)
                assert sel.total_weight == tree_total_weight(best, view)


def test_criterion_7(capsys, tmp_path):
    with reported(capsys, 7, "100k vertices: sub-microsecond answers, 1000x speedup"):
        g = generate_graph(100_000, 400_001, 1, seed=42)
        t0 = time.perf_counter()
        ps = precompute_all(g)
        assert time.perf_counter() - t0 < 10.0

        eid = g.unstable_ids[0]
        cv = ps.plans[eid].cv
        assert math.isfinite(cv)
        graph_path = tmp_path / "big.graph"
        plan_path = tmp_path / "big.plan"
        events_path = tmp_path / "big.events"
        write_graph(g, graph_path)
        write_plans(ps, g, plan_path)
        xs = [cv - 1000.0, cv + 1000.0, 100.0, cv, cv - 500.0]
        events_path.write_text(
            format_events([(i + 1, eid, x) for i, x in enumerate(xs)]),
            encoding="utf-8",
        )
        del ps, g

        proc = subprocess.run(
            [sys.executable, "-m", "mstplan", "simulate", str(plan_path),
             str(graph_path), str(events_path), "--compare-naive"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        select_median = _median_of(proc.stdout, "selection latency ns")
        naive_median = _median_of(proc.stdout, "naive recompute ns")
        assert select_median < 1000.0
        assert naive_median >= 1000.0 * select_median


def _median_of(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.startswith(label):
            for field in line.split():
                if field.startswith("median="):
                    return float(field.split("=", 1)[1])
    raise AssertionError(f"no {label!r} line in:\n{out}")


def test_criterion_8(capsys):
    with reported(capsys, 8, "rebuilt plans track the oracle through chained changes"):
        rng = random.Random(6022140)
        for _ in range(20):
            n = rng.randint(5, 8)
            extra = rng.randint(3, 5)
            m = n - 1 + extra
            unstable = sorted(rng.sample(range(m), 3))
            g = random_graph(rng, n, extra, unstable=unstable)
            ps = precompute_all(g)
            for _ in range(4):
                eid = rng.choice(unstable)
                _, ps = apply_change(ps, g, eid, float(rng.randint(1, 20)))
                for other in unstable:
                    assert ps.plans[other].cv == brute_critical_value(g, other)


def test_criterion_9(capsys, tmp_path):
    with reported(capsys, 9, "plan files round-trip and refuse a modified graph"):
        fixtures = [TRIANGLE_TEXT, THRESHOLD8_TEXT, BRIDGE_TEXT, M3_TEXT, PARALLEL_TEXT]
        for idx, text in enumerate(fixtures):
            g = parse_graph(text)
            ps = precompute_all(g)
            path = tmp_path / f"fixture{idx}.plan"
            write_plans(ps, g, path)
            loaded = read_plans(path, g)

            assert set(loaded.plans) == set(ps.plans)
            assert dict(loaded.snapshot) == dict(ps.snapshot)
            for eid, a in ps.plans.items():
                b = loaded.plans[eid]
                assert (a.d_s, a.s_v, a.cv) == (b.d_s, b.s_v, b.cv)
                assert a.mst_v.edge_ids == b.mst_v.edge_ids
                if a.mst_s is None:
                    assert b.mst_s is None
                else:
                    assert a.mst_s.edge_ids == b.mst_s.edge_ids

            lines = text.strip().splitlines()
            for i, line in enumerate(lines):
                if line.split()[0] in ("e", "u"):
                    fields = line.split()
                    fields[3] = str(int(float(fields[3])) + 1)
                    lines[i] = " ".join(fields)
                    break
            tampered = parse_graph("\n".join(lines) + "\n")
            with pytest.raises(FingerprintMismatchError):
                read_plans(path, tampered)
