"""Command-line behaviour, exercised in process through main()."""

import subprocess
import sys

import pytest
from helpers import BRIDGE_TEXT, M3_TEXT, THRESHOLD8_TEXT, TRIANGLE_TEXT

import mstplan.graph
import mstplan.oracle
from mstplan import Selection, brute_critical_value, format_value, parse_graph
from mstplan.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def prepared(tmp_path, capsys, text):
    """Graph file plus a plan file produced by the precompute subcommand."""
    graph = write(tmp_path, "g.graph", text)
    plan = str(tmp_path / "g.plan")
    assert main(["precompute", graph, "-o", plan]) == 0
    capsys.readouterr()
    return graph, plan


def test_precompute_prints_summary_rows(tmp_path, capsys):
    graph = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    plan = str(tmp_path / "tri.plan")
    assert main(["precompute", graph, "-o", plan]) == 0
    assert "edge 2: d_s=3 s_v=1 cv=2" in capsys.readouterr().out

    graph = write(tmp_path, "six.graph", THRESHOLD8_TEXT)
    assert main(["precompute", graph, "-o", str(tmp_path / "six.plan")]) == 0
    assert "edge 5: d_s=40 s_v=32 cv=8" in capsys.readouterr().out


def test_precompute_reports_infinite_threshold(tmp_path, capsys):
    graph = write(tmp_path, "b.graph", BRIDGE_TEXT)
    assert main(["precompute", graph, "-o", str(tmp_path / "b.plan")]) == 0
    assert "edge 3: d_s=inf s_v=7 cv=inf" in capsys.readouterr().out


def test_precompute_rows_sorted_by_edge(tmp_path, capsys):
    graph = write(tmp_path, "m.graph", M3_TEXT)
    assert main(["precompute", graph, "-o", str(tmp_path / "m.plan")]) == 0
    out = capsys.readouterr().out
    assert out.index("edge 4:") < out.index("edge 5:") < out.index("edge 6:")


def test_precompute_missing_file(tmp_path, capsys):
    rc = main(["precompute", str(tmp_path / "absent.graph"), "-o", str(tmp_path / "p")])
    assert rc == 1
    assert "cannot open" in capsys.readouterr().err


def test_precompute_unwritable_output(tmp_path, capsys):
    graph = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    rc = main(["precompute", graph, "-o", str(tmp_path / "no" / "dir" / "p")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_precompute_refuses_tree_totals_past_the_float_range(tmp_path, capsys):
    graph = write(tmp_path, "big.graph", "p wdg 3 3\ne 0 1 1e308\ne 1 2 1e308\nu 0 2 1.5e308\n")
    plan = tmp_path / "big.plan"
    assert main(["precompute", graph, "-o", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mstplan: ") and "overflows" in err
    assert not plan.exists()


def test_query_both_sides_of_threshold(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    assert main(["query", plan, graph, "--edge", "5", "--x", "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "variable 39"
    assert "edges:" in out

    assert main(["query", plan, graph, "--edge", "5", "--x", "9"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "stable 40"

    # at the threshold exactly, the constant tree wins
    assert main(["query", plan, graph, "--edge", "5", "--x", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "stable 40"


def test_query_reads_plans_without_tree_search(tmp_path, capsys, monkeypatch):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)

    # The load rebuilds the plans to check the file, from the kernel the
    # parse builds: one kernel build per query, and no full tree search.
    def boom(*args, **kwargs):
        raise AssertionError("a full spanning tree search ran during query")

    builds = []
    build_kernel = mstplan.graph._build_kernel

    def counted(g):
        builds.append(g)
        return build_kernel(g)

    monkeypatch.setattr("mstplan.graph._build_kernel", counted)
    monkeypatch.setattr("mstplan.cli.constrained_mst_kruskal", boom)
    monkeypatch.setattr("mstplan.constrained.constrained_mst_kruskal", boom)
    for x in ("7", "9"):
        assert main(["query", plan, graph, "--edge", "5", "--x", x]) == 0
    assert capsys.readouterr().out.splitlines()[::2] == ["variable 39", "stable 40"]
    assert len(builds) == 2


def test_query_stable_edge_refused(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    assert main(["query", plan, graph, "--edge", "0", "--x", "7"]) == 1
    assert "stable" in capsys.readouterr().err


def test_query_unknown_edge(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    assert main(["query", plan, graph, "--edge", "99", "--x", "7"]) == 1
    assert "99" in capsys.readouterr().err


def test_query_rejects_nonfinite_value(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    assert main(["query", plan, graph, "--edge", "5", "--x", "inf"]) == 1
    assert "finite" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["query", "plan", "graph"]) == 1  # missing --edge/--x
    assert main(["query", "p", "g", "--edge", "5", "--x", "abc"]) == 1
    capsys.readouterr()


def test_simulate_counts_switches(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    events = write(tmp_path, "e.events", "1 5 5\n2 5 9\n")
    assert main(["simulate", plan, graph, events]) == 0
    out = capsys.readouterr().out
    assert "events processed: 2" in out
    assert "tree switches: 1" in out
    assert "selection latency ns:" in out
    assert "rebuild latency ns:" in out
    assert "naive" not in out


def test_simulate_empty_stream(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    events = write(tmp_path, "e.events", "c nothing happens\n")
    assert main(["simulate", plan, graph, events]) == 0
    out = capsys.readouterr().out
    assert "events processed: 0" in out
    assert "tree switches: 0" in out
    assert "selection latency" not in out


def test_simulate_compare_naive(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    events = write(tmp_path, "e.events", "1 5 5\n2 5 9\n3 5 7\n")
    assert main(["simulate", plan, graph, events, "--compare-naive"]) == 0
    out = capsys.readouterr().out
    assert "naive recompute ns:" in out
    assert "speedup: median=" in out
    for line in out.splitlines():
        if line.startswith("selection latency ns:"):
            median = [f for f in line.split() if f.startswith("median=")][0]
            assert float(median.split("=")[1]) > 0


def test_simulate_switch_counting_multi_edge(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, M3_TEXT)
    # per-edge switch states are tracked independently
    events = write(tmp_path, "e.events", "1 4 100\n2 5 100\n3 4 0\n")
    assert main(["simulate", plan, graph, events]) == 0
    out = capsys.readouterr().out
    assert "events processed: 3" in out


def test_simulate_bad_event_edge(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    events = write(tmp_path, "e.events", "1 99 4\n")
    assert main(["simulate", plan, graph, events]) == 1
    assert "line 1" in capsys.readouterr().err

    events = write(tmp_path, "e2.events", "1 0 4\n")
    assert main(["simulate", plan, graph, events]) == 1
    assert "line 1" in capsys.readouterr().err


def test_simulate_rejects_bad_stream(tmp_path, capsys):
    graph, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    events = write(tmp_path, "e.events", "1 5 5\n1 5 9\n")
    assert main(["simulate", plan, graph, events]) == 1
    assert "line 2" in capsys.readouterr().err


def test_simulate_refuses_foreign_plan(tmp_path, capsys):
    _, plan = prepared(tmp_path, capsys, THRESHOLD8_TEXT)
    other = write(tmp_path, "other.graph", TRIANGLE_TEXT)
    events = write(tmp_path, "e.events", "1 2 4\n")
    assert main(["simulate", plan, other, events]) == 1
    assert "fingerprint" in capsys.readouterr().err


def test_generate_deterministic_bytes(capsys):
    args = ["generate", "--n", "5", "--extra-edges", "3", "--unstable", "2", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert g.n == 5 and g.num_edges == 7 and len(g.unstable_ids) == 2


def test_generate_defaults(capsys):
    assert main(["generate", "--n", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "p wdg 2 1"
    assert lines[1].startswith("e 0 1 ")


def test_generate_unstable_lines(capsys):
    assert main(["generate", "--n", "100", "--unstable", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("u ") for line in out.splitlines()) == 3
    parse_graph(out)


def test_generate_rejects_bad_counts(capsys):
    assert main(["generate", "--n", "1", "--seed", "1"]) == 1
    capsys.readouterr()
    assert main(["generate", "--n", "3", "--unstable", "9", "--seed", "1"]) == 1
    capsys.readouterr()


def test_verify_triangle(tmp_path, capsys):
    graph = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    assert main(["verify", graph]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "cv: engine=2 oracle=2 OK"
    assert len(lines) == 14  # threshold row plus 13 grid rows
    assert all(line.endswith("OK") for line in lines)
    assert "x=2 select=3 catalog=3 OK" in lines


def test_verify_threshold8(tmp_path, capsys):
    graph = write(tmp_path, "six.graph", THRESHOLD8_TEXT)
    assert main(["verify", graph]) == 0
    assert "cv: engine=8 oracle=8 OK" in capsys.readouterr().out


def test_verify_bridge_probes_two_points(tmp_path, capsys):
    graph = write(tmp_path, "b.graph", BRIDGE_TEXT)
    assert main(["verify", graph]) == 0
    out = capsys.readouterr().out
    assert "cv: engine=inf oracle=inf OK" in out
    assert "x=0 " in out and "x=1000000 " in out


def test_verify_multiple_edges(tmp_path, capsys, monkeypatch):
    # One tree catalog serves every edge's critical value and grid.
    enumerated = []
    enumerate_trees = mstplan.oracle.enumerate_spanning_trees

    def counted(g):
        enumerated.append(g)
        return enumerate_trees(g)

    monkeypatch.setattr("mstplan.cli.enumerate_spanning_trees", counted)
    monkeypatch.setattr("mstplan.oracle.enumerate_spanning_trees", counted)
    graph = write(tmp_path, "m.graph", M3_TEXT)
    assert main(["verify", graph]) == 0
    assert len(enumerated) == 1
    out = capsys.readouterr().out
    g = parse_graph(M3_TEXT)
    for eid in (4, 5, 6):
        assert f"edge {eid}" in out
        assert f"oracle={format_value(brute_critical_value(g, eid))} OK" in out


def test_verify_equal_weights_compare_totals_only(tmp_path, capsys):
    text = "p wdg 3 3\ne 0 1 2\ne 1 2 2\nu 0 2 2\n"
    graph = write(tmp_path, "eq.graph", text)
    assert main(["verify", graph]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_verify_custom_grid(tmp_path, capsys):
    graph = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    assert main(["verify", graph, "--halfwidth", "1", "--step", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # cv row, then x in {1, 2, 3}


@pytest.mark.parametrize(
    "text, grid",
    [
        (BRIDGE_TEXT, ["--step", "0"]),  # a bridge's grid never reads the step
        (THRESHOLD8_TEXT, ["--step", "0"]),
        (THRESHOLD8_TEXT, ["--step", "-1"]),
        (THRESHOLD8_TEXT, ["--step", "nan"]),
        (THRESHOLD8_TEXT, ["--step", "inf"]),
        (THRESHOLD8_TEXT, ["--halfwidth", "-1"]),
        (THRESHOLD8_TEXT, ["--halfwidth", "nan"]),
        (THRESHOLD8_TEXT, ["--halfwidth", "inf"]),
        (THRESHOLD8_TEXT, ["--halfwidth", "1e300", "--step", "1e-300"]),  # ratio is inf
        (THRESHOLD8_TEXT, ["--halfwidth", "1e6", "--step", "1e-6"]),  # 10^12 steps a side
        (THRESHOLD8_TEXT, ["--halfwidth", "1001", "--step", "1"]),
    ],
    ids=["bridge-step-0", "step-0", "step-neg", "step-nan", "step-inf",
         "halfwidth-neg", "halfwidth-nan", "halfwidth-inf", "ratio-inf",
         "ratio-1e12", "ratio-1001"],
)
def test_verify_refuses_a_bad_grid_before_any_output(tmp_path, capsys, text, grid):
    graph = write(tmp_path, "g.graph", text)
    assert main(["verify", graph, *grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "mstplan: grid step must be finite and > 0, halfwidth finite and >= 0, "
        "and halfwidth / step at most 1000\n"
    )


def test_verify_nothing_to_check(tmp_path, capsys):
    graph = write(tmp_path, "s.graph", "p wdg 2 1\ne 0 1 4\n")
    assert main(["verify", graph]) == 0
    assert "nothing to verify" in capsys.readouterr().out


def test_verify_detects_engine_mismatch(tmp_path, capsys, monkeypatch):
    from mstplan.plans import select_tree as real_select

    def skewed(plan, x):
        sel = real_select(plan, x)
        return Selection(sel.chosen, sel.total_weight + 1.0, sel.tree)

    monkeypatch.setattr("mstplan.cli.select_tree", skewed)
    graph = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    assert main(["verify", graph]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_too_large_for_oracle(tmp_path, capsys):
    from mstplan import format_graph, generate_graph

    g = generate_graph(20, 10, 1, seed=3)
    graph = write(tmp_path, "big.graph", format_graph(g))
    assert main(["verify", graph]) == 1
    assert "cap" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mstplan", "generate", "--n", "4",
         "--extra-edges", "2", "--unstable", "1", "--seed", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    g = parse_graph(proc.stdout)
    assert g.n == 4 and g.num_edges == 5

    proc = subprocess.run(
        [sys.executable, "-m", "mstplan", "query"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
