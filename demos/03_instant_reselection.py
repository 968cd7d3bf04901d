"""Replaying weight changes: answer first, rebuild afterwards.

With several unstable edges there is one plan per edge, each computed with
the other unstable edges pinned at their last-known values. When a change
arrives, the stored plan answers it immediately (the change invalidates
nothing, because only one value moved); that plan is kept and the others,
which pinned the old value, are rebuilt in the background time budget so
the next change is answered just as fast.

The second half times the answer path against recomputing a minimum
spanning tree from scratch on a mid-sized graph.
"""

import statistics
import time

from mstplan import (
    apply_change,
    build_graph,
    constrained_mst_kruskal,
    generate_graph,
    precompute_all,
    select_tree,
    tree_total_weight,
)


def walkthrough():
    g = build_graph(4, [
        (0, 1, 8, "unstable"),  # 0
        (1, 2, 5, "stable"),    # 1
        (2, 3, 6, "unstable"),  # 2
        (3, 0, 4, "stable"),    # 3
        (0, 2, 7, "stable"),    # 4
    ])
    ps = precompute_all(g)
    print("two unstable edges, one plan each:")
    for eid, plan in sorted(ps.plans.items()):
        others = {k: v for k, v in ps.snapshot.items() if k != eid}
        print(f"  edge {eid}: threshold {plan.cv}, others pinned at {others}")
    print()

    for eid, x in [(0, 2.0), (2, 9.0), (0, 20.0)]:
        sel, ps = apply_change(ps, g, eid, x)
        print(f"  edge {eid} -> {x}: answer {sel.chosen.value} tree, total {sel.total_weight}")
    print()
    print("each answer above was produced before any rebuilding started.")
    print()


def timing():
    n, extra = 20_000, 60_000
    g = generate_graph(n, extra, 1, seed=5)
    eid = g.unstable_ids[0]
    t0 = time.perf_counter()
    ps = precompute_all(g)
    built = time.perf_counter() - t0
    plan = ps.plans[eid]
    print(f"graph with {n} vertices, {g.num_edges} edges: precompute took {built:.2f}s")

    xs = [plan.cv + d for d in (-5.0, 5.0, -50.0, 50.0, 0.0)]
    answer_ns = []
    for x in xs:
        for _ in range(3):
            select_tree(plan, x)
        t0 = time.perf_counter_ns()
        keep = select_tree(plan, x)
        answer_ns.append(time.perf_counter_ns() - t0)

    t0 = time.perf_counter_ns()
    tree = constrained_mst_kruskal(g)
    tree_total_weight(tree, g)
    scratch_ns = time.perf_counter_ns() - t0

    med = statistics.median(answer_ns)
    print(f"answer from the plan:      median {med:.0f} ns over {len(xs)} queries")
    print(f"recompute from scratch:    {scratch_ns / 1e6:.1f} ms")
    print(f"ratio:                     about {scratch_ns / med:,.0f}x")


if __name__ == "__main__":
    walkthrough()
    timing()
