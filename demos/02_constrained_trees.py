"""Spanning trees under edge constraints: must-use and must-avoid sets.

Both search strategies solve the same problem. The sorted-scan variant
(Kruskal-style) takes arbitrary mandatory/forbidden sets; the seeded-growth
variant (Prim-style) covers the common single-mandatory-edge case. Results
are checked here against exhaustive enumeration, which is small-instance
ground truth for everything in this package.
"""

from mstplan import (
    Constraints,
    Infeasible,
    brute_constrained_min,
    build_graph,
    constrained_mst_kruskal,
    constrained_mst_prim,
    enumerate_spanning_trees,
    tree_total_weight,
)


def show(label, result, g):
    if isinstance(result, Infeasible):
        print(f"  {label}: infeasible ({result.reason})")
    else:
        ids = sorted(result.edge_ids)
        print(f"  {label}: edges {ids}, total {tree_total_weight(result, g)}")


def main():
    # a house-shaped graph: square 0-1-2-3 with a roof vertex 4
    g = build_graph(5, [
        (0, 1, 4, "stable"),   # 0
        (1, 2, 7, "stable"),   # 1
        (2, 3, 2, "stable"),   # 2
        (3, 0, 5, "stable"),   # 3
        (0, 2, 9, "stable"),   # 4 diagonal
        (3, 4, 3, "stable"),   # 5
        (2, 4, 6, "stable"),   # 6
    ])

    print("unconstrained minimum:")
    show("min", constrained_mst_kruskal(g), g)
    print()

    print("forcing the expensive diagonal in, keeping a cheap edge out:")
    cons = Constraints(mandatory={4}, forbidden={2})
    show("constrained min", constrained_mst_kruskal(g, cons), g)
    show("same, by enumeration", brute_constrained_min(enumerate_spanning_trees(g), cons), g)
    print()

    print("single mandatory edge, grown outward from its endpoints:")
    show("seeded at edge 6", constrained_mst_prim(g, 6), g)
    show("equivalent scan", constrained_mst_kruskal(g, Constraints(mandatory={6})), g)
    print()

    print("two ways to make the problem impossible:")
    show("mandatory cycle", constrained_mst_kruskal(g, Constraints(mandatory={0, 1, 2, 3})), g)
    show("cut vertex 4 off", constrained_mst_kruskal(g, Constraints(forbidden={5, 6})), g)


if __name__ == "__main__":
    main()
