"""Self-test of the benchmark's answer checker: corrupted answers are caught.

    python3 bench/selftest.py

On a small seeded instance it runs the what-if loop and the command-line
query path of the benchmark twice: once with the plans as built, where
every checked answer must pass, and once with one plan's threshold ``cv``
shifted, where the checks must fail. It also hands the checker a tree with
one edge swapped and a total off by one. Exits 0 when the clean answers
pass and every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import use_package, work_dir

PARAMS = {"n": 200, "edges": 800, "unstable": 4, "reach": 50,
          "setups": 1, "burst": 64, "batch": 256, "checks": 100_000}
SHIFT = 40


def shifted(ps, edge):
    from mstplan import PlanSet

    plans = dict(ps.plans)
    plans[edge] = dataclasses.replace(plans[edge], cv=plans[edge].cv + SHIFT)
    return PlanSet(plans=plans, snapshot=ps.snapshot)


def what_if_failures(corrupt: bool) -> tuple[int, int]:
    """Checked answers and failures of a short what-if loop."""
    import workloads

    wl = workloads.WhatIfRead(PARAMS, seed=1)
    run = workloads.Run(PARAMS["checks"], 1)
    wl.setup(run)
    if corrupt:
        wl.ps = shifted(wl.ps, wl.eids[0])
    wl.loop(run, 0.3, False)
    workloads.check_answers(run, wl)
    return run.checked, run.failed


def cli_failures(corrupt: bool, workdir) -> tuple[int, int]:
    """Checked answers and failures of a few ``mstplan query`` calls."""
    import workloads
    from mstplan import plans_to_json

    wl = workloads.ColdStart(PARAMS, 1, workdir)
    run = workloads.Run(PARAMS["checks"], 1)
    wl.setup(run)
    if corrupt:
        # A stored plan shifted the same way; the loader must refuse it.
        text = plans_to_json(shifted(wl.ps, wl.eids[0]), wl.g)
        wl.plan_path.write_text(text, encoding="utf-8")
    for rnd in range(8):
        wl.query(run, rnd, False)
    workloads.check_answers(run, wl)
    return run.checked, run.failed


def tree_problems() -> list[str | None]:
    """The checker's verdicts on a right answer, a swapped tree, a wrong total."""
    import workloads

    wl = workloads.WhatIfRead(PARAMS, seed=1)
    run = workloads.Run(PARAMS["checks"], 1)
    wl.setup(run)
    wl.round_queries(run, 0, False)
    values, edge, x, tree, total = run.answers[0]
    in_force = dict(values)
    in_force[edge] = x
    outside = next(i for i in range(len(wl.inst.edges)) if i not in tree)
    swapped = set(tree) - {min(tree)} | {outside}
    check = wl.reference.check
    return [check(in_force, tree, total), check(in_force, swapped, total),
            check(in_force, tree, total + 1)]


def main() -> int:
    if not use_package():
        return 2
    results = {}
    results["what-if, plans as built"] = what_if_failures(False)
    results["what-if, cv shifted"] = what_if_failures(True)
    with work_dir() as workdir:
        results["mstplan query, plans as built"] = cli_failures(False, workdir)
        results["mstplan query, cv shifted"] = cli_failures(True, workdir)
    ok = True
    for label, (checked, failed) in results.items():
        want_failures = "shifted" in label
        good = failed > 0 if want_failures else (failed == 0 and checked > 0)
        ok &= good
        print(f"{label}: {checked} checked, {failed} failed: "
              f"{'ok' if good else 'WRONG'}")
    right, swapped, off_by_one = tree_problems()
    for label, problem, want in (("right answer", right, None),
                                 ("swapped tree edge", swapped, "caught"),
                                 ("total off by one", off_by_one, "caught")):
        good = (problem is None) == (want is None)
        ok &= good
        print(f"{label}: {problem or 'passes'}: {'ok' if good else 'WRONG'}")
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
