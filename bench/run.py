"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload change-mix --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the loop alternates untraced and traced blocks, hidden
inner calls are replayed, and the per-layer metrics are printed instead,
with the tracing overhead. Workload sizes live in ``bench/spec.json``.

The last line of standard output is one JSON object. The exit code is 1
when an operation failed or a checked answer disagrees with the reference,
and 2 when the package or the benchmark definition is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def use_package() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    src = ROOT / "src"
    definition = ROOT / "BENCHMARK.json"
    if not (src / "mstplan" / "__init__.py").is_file() or not definition.is_file():
        print(f"bench: needs {src}/mstplan and {definition}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


@contextlib.contextmanager
def work_dir():
    """A private directory under ``.bench_work/`` in the checkout, removed after."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass


def percentile(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def counted_percentile(counts, p: float) -> int:
    """Nearest-rank percentile of a histogram ``{value: count}``."""
    rank = min(counts.total() - 1, int(counts.total() * p / 100))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen > rank:
            return value
    raise ValueError("empty histogram")


def end_to_end(run) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    Other tenants share the machine's cores, and this process runs at one
    of two speeds: alone, or up to twice as slow beside a busy neighbour.
    The two alternate from milliseconds to tens of seconds at a time, and
    the share of the slow one drifts over minutes, so a median lands in
    either speed from one run to the next. The slow speed is there in nearly
    every second, so the timings are read at the 90th percentile, and the
    rates at the 10th, which sit in it run after run: ``query_ns_p90`` is
    the 90th percentile ``select_tree`` call, ``queries_per_s`` the rate of
    the 10th percentile batch chunk, ``request_ms_p90`` the 90th percentile
    request. ``query_ns_p99`` is the tail of the calls.
    """
    requests = sorted(run.request_ns)
    rates = sorted(run.batch_rates)
    return {
        "setup_s": statistics.median(run.setup_s),
        "query_ns_p90": counted_percentile(run.call_ns, 90),
        "query_ns_p99": counted_percentile(run.call_ns, 99),
        "queries_per_s": percentile(rates, 10),
        "request_ms_p90": percentile(requests, 90) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(name: str, params: dict, seed: int, seconds: float, trace: bool, workdir: Path):
    import workloads
    from layers import layer_metrics

    kinds = {
        "whatif-read": workloads.WhatIfRead,
        "change-mix": workloads.ChangeMix,
        "cold-start": lambda p, s: workloads.ColdStart(p, s, workdir),
    }
    wl = kinds[name](params, seed)
    run = workloads.Run(params["checks"], seed)
    wl.setup(run)
    wl.warm_up(run)
    if not trace:
        # Set-ups are spread over the run, one before each equal segment of
        # the loop, so that their median sees the machine as the loop does.
        segments = params["setups"]
        done = 0
        for k in range(segments):
            if k:
                wl.setup(run)
            done += wl.loop(run, seconds / segments, False, first=done)
        metrics = end_to_end(run)
    else:
        # Alternate blocks so drift in the machine falls on both sides alike.
        wall = {False: 0, True: 0}
        rounds = {False: 0, True: 0}
        done = 0
        for traced in (False, True, False, True):
            t0 = workloads.clock()
            n = wl.loop(run, seconds / 4, traced, first=done)
            wall[traced] += workloads.clock() - t0
            rounds[traced] += n
            done += n
        per_round = {k: wall[k] / rounds[k] for k in wall}
        metrics = layer_metrics(wl, run, workdir)
        metrics["trace.overhead_pct"] = 100 * (per_round[True] / per_round[False] - 1)
    workloads.check_answers(run, wl)
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_package():
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}")
    params = spec["workloads"][args.workload]
    with work_dir() as workdir:
        metrics, run = measure(
            args.workload, params, args.seed, args.seconds, bool(args.trace), workdir
        )

    listed = bench["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for entry in listed:
        print(f"  {entry['name']:40} {metrics[entry['name']]:>16.6g} {entry['unit']}")
    print(
        f"  samples: {run.call_ns.total()} timed queries, {len(run.batch_rates)} batch chunks, "
        f"{len(run.request_ns)} requests, {len(run.setup_s)} set-ups"
    )
    print(
        f"  error_rate {run.failed / run.attempted:.6g} "
        f"({run.failed} failed of {run.attempted} operations; "
        f"{run.checked} answers checked against the reference)"
    )
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in listed
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
