"""The on-disk story: graph files, plan files, event streams, and the CLI.

Everything the library does is reachable from the ``mstplan`` command line:
precompute writes a plan file, query answers what-ifs from it, simulate
replays an event stream with latency stats, generate produces test graphs,
and verify cross-checks against exhaustive enumeration. Plan files carry a
fingerprint of the graph they came from and refuse to load against anything
else. They store one spanning tree plus, per unstable edge, the one edge it
swaps with.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from mstplan import FingerprintMismatchError, parse_graph, read_plans

GRAPH = """\
p wdg 6 6
e 0 2 5
e 2 3 7
e 3 1 8
e 3 4 9
e 4 5 11
u 0 1 5
"""

EVENTS = """\
c x drifts up through the threshold, then falls back
1 5 6
2 5 9
3 5 3
"""


def run(*args):
    cmd = [sys.executable, "-m", "mstplan", *args]
    print(f"$ mstplan {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in (proc.stdout + proc.stderr).splitlines():
        print(f"  {line}")
    print(f"  (exit {proc.returncode})")
    print()
    return proc


def main():
    workdir = Path(tempfile.mkdtemp(prefix="mstplan-demo-"))
    graph = workdir / "demo.graph"
    plan = workdir / "demo.plan"
    events = workdir / "demo.events"
    graph.write_text(GRAPH, encoding="utf-8")
    events.write_text(EVENTS, encoding="utf-8")

    run("precompute", str(graph), "-o", str(plan))
    run("query", str(plan), str(graph), "--edge", "5", "--x", "7")
    run("query", str(plan), str(graph), "--edge", "5", "--x", "9")
    run("simulate", str(plan), str(graph), str(events), "--compare-naive")
    run("verify", str(graph), "--halfwidth", "1", "--step", "0.5")

    doc = json.loads(plan.read_text(encoding="utf-8"))
    print("plan files are JSON; the stored fingerprint pins the source graph:")
    print(f"  {json.dumps(doc['fingerprint'], sort_keys=True)[:76]}...")
    print(f"  version {doc['version']}: one tree of {len(doc['tree'])} edges {doc['tree']},")
    print("  and per unstable edge the one edge it swaps with (none: a bridge):")
    for record in doc["plans"]:
        print(f"  edge {record['edge']}: swap {record['swap']}, cv={record['cv']}")
    print()

    tampered = parse_graph(GRAPH.replace("e 4 5 11", "e 4 5 12"))
    try:
        read_plans(plan, tampered)
    except FingerprintMismatchError:
        print("loading the same plan against a graph with one edited weight:")
        print("  refused (fingerprint mismatch), exactly as it should be")


if __name__ == "__main__":
    main()
