"""Code outside the package that uses it: the demos run, the benchmark imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
