"""Code outside the package that uses it: the demos run, the benchmark imports
and its self-test passes."""

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import TRIANGLE_TEXT, random_graph, reference_fingerprint

from mstplan import format_graph, parse_graph, read_plans
from mstplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_cold_start_query_in_fresh_processes(tmp_path, capsys):
    generated = run_python(
        "-m", "mstplan", "generate", "--n", "300", "--extra-edges", "900",
        "--unstable", "4", "--seed", "5",
    )
    assert generated.returncode == 0, generated.stderr
    graph = tmp_path / "g.graph"
    plan = tmp_path / "g.plan"
    graph.write_text(generated.stdout, encoding="utf-8")
    precomputed = run_python("-m", "mstplan", "precompute", str(graph), "-o", str(plan))
    assert precomputed.returncode == 0, precomputed.stderr

    ps = read_plans(plan, parse_graph(generated.stdout))
    for edge, p in sorted(ps.plans.items()):
        for x in (p.cv - 1, p.cv + 1):
            argv = ["query", str(plan), str(graph), "--edge", str(edge), "--x", str(x)]
            queried = run_python("-m", "mstplan", *argv)
            assert queried.returncode == 0, queried.stderr
            assert main(argv) == 0
            assert queried.stdout == capsys.readouterr().out


def test_benchmark_selftest_passes():
    # Among its checks, a stored plan with a shifted cv must be refused on load.
    proc = run_python(str(ROOT / "bench" / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"selftest": "pass"}'


def test_every_name_the_benchmark_imports_resolves():
    seen, missing = set(), []
    for script in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module is None or node.module.split(".")[0] != "mstplan":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                seen.add(f"{node.module}.{alias.name}")
                if not hasattr(module, alias.name):
                    missing.append(f"{script.name}: {node.module}.{alias.name}")
    assert "mstplan.precompute_all" in seen  # the scan found the imports
    assert not missing


def test_no_mstplan_process_loads_openssl(tmp_path):
    # hashlib maps OpenSSL, a few MB of resident memory; fingerprints use
    # the interpreter's built-in SHA-256 instead.
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256")
    graph, plan = tmp_path / "g.graph", tmp_path / "g.plan"
    graph.write_text(TRIANGLE_TEXT, encoding="utf-8")
    probe = (
        "import json, sys\n"
        "seen = []\n"
        "def loaded(): seen.append([name in sys.modules for name in ('hashlib', '_hashlib')])\n"
        "import mstplan\n"
        "from mstplan.cli import main\n"
        "loaded()\n"
        "mstplan.graph_fingerprint(mstplan.parse_graph('p wdg 2 1\\ne 0 1 1\\n'))\n"
        "loaded()\n"
        f"assert main(['precompute', {str(graph)!r}, '-o', {str(plan)!r}]) == 0\n"
        f"assert main(['query', {str(plan)!r}, {str(graph)!r}, '--edge', '2', '--x', '3']) == 0\n"
        "loaded()\n"
        "print(json.dumps(seen))\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[False, False]] * 3


def test_fingerprint_falls_back_to_hashlib_without_a_built_in_sha256():
    g = random_graph(random.Random(4), 40, 120, [3, 50], weights=[0.5, -0.0, 1 / 3] * 53)
    probe = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import mstplan\n"
        f"g = mstplan.parse_graph({format_graph(g)!r})\n"
        "print(json.dumps([mstplan.graph_fingerprint(g), 'hashlib' in sys.modules]))\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [reference_fingerprint(g), True]
