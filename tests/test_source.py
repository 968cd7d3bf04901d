"""Static checks of the package source, made with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mstplan"
# ``__init__.py`` imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import inf, nan as n\n"
        "def f(x: inf) -> None:\n    return os.sep  # n and j only in a comment\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: n"]


@pytest.mark.parametrize("module", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_public_names_are_the_sorted_imports_of_the_package():
    import mstplan

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert mstplan.__all__ == sorted(set(mstplan.__all__))
    assert set(mstplan.__all__) == imported


# Public names that no module of the package, no benchmark script and no
# demo reads, each with the reason it is kept. A new dead name, or a pinned
# name that gains a reader, fails the test below, so this list stays true.
UNREAD_PUBLIC_NAMES = {
    "brute_critical_value": "the oracle's threshold, which tests hold plans' cv against",
    "count_spanning_trees": "Kirchhoff's count, which tests hold the oracle's catalog against",
    "format_events": "writes the event-stream text that parse_events reads",
    "max_weight_on_tree_path": "the oracle's cycle-property check, read by tests",
    "write_graph": "the file form of format_graph, the pair of read_graph",
    "write_plans": "the file form of plans_to_json, the pair of read_plans",
}


# Public names that only a benchmark script reads, each with the reason it is
# kept. The first two wait on the benchmark change that drops their per-layer
# metrics and then the names themselves (ROADMAP item 2). A name here that gains
# a reader in the package or a demo, or loses its benchmark reader, fails the
# test below, as does a new name only the benchmark reads.
BENCHMARK_ONLY_PUBLIC_NAMES = {
    "is_connected": "times graph.is_connected_ms in bench/layers.py; no production path runs it",
    "precompute_plan": "times plans.precompute_plan_ms_p50 in bench/layers.py; superseded "
    "by precompute_all",
    "read_graph": "the file form of parse_graph, the pair of write_graph; the CLI reads "
    "its files through parse_graph",
}


def names_read(paths) -> set[str]:
    """Every name and attribute the sources at ``paths`` read."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_unread_public_names_are_the_pinned_ones():
    import mstplan

    readers = MODULES + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    assert sorted(set(mstplan.__all__) - names_read(readers)) == sorted(UNREAD_PUBLIC_NAMES)


def test_public_names_only_the_benchmark_reads_are_the_pinned_ones():
    import mstplan

    package = names_read(MODULES + sorted(ROOT.glob("demos/*.py")))
    bench = names_read(sorted(ROOT.glob("bench/*.py")))
    only_bench = (set(mstplan.__all__) - package) & bench
    assert sorted(only_bench) == sorted(BENCHMARK_ONLY_PUBLIC_NAMES)
