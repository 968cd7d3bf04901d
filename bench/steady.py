"""Steadiness check: run workloads repeatedly and summarise each metric.

    python3 bench/steady.py --seeds 1 2 3 4 5 --workload cold-start

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
prints for every end-to-end metric (per-layer with ``--trace 1``) the median,
the quartiles, and the spread: the distance between the quartiles as a share
of the median. A metric is marked steady when its spread is below a third
of its bound in BENCHMARK.json. Exits 1 when any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in listed}
        walls = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.monotonic() - t0)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(args.seeds)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for m in listed:
            got = values[m["name"]]
            if len(got) < 2:
                continue
            q1, med, q3 = statistics.quantiles(got, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = "" if bound is None else ("steady" if spread < bound / 3 else "WIDE")
            print(f"  {m['name']:38} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.2%}  {'' if bound is None else f'bound {bound:.0%}'} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
