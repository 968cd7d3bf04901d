"""One unstable edge, two trees, one threshold.

A six-vertex graph has five fixed edges and one edge (0, 1) whose weight x
changes over time. Only two spanning trees can ever be optimal: the best tree
avoiding the edge (constant total) and the best tree containing it (total
moves with x). Precompute both once, then answer any x with a comparison.
"""

from mstplan import (
    TreeKind,
    parse_graph,
    precompute_all,
    select_tree,
)

GRAPH = """\
p wdg 6 6
e 0 2 5
e 2 3 7
e 3 1 8
e 3 4 9
e 4 5 11
u 0 1 5
"""


def main():
    g = parse_graph(GRAPH)
    plan = precompute_all(g).plans[5]

    print("plan for unstable edge 5 (vertices 0-1):")
    print(f"  tree avoiding it:   edges {sorted(plan.mst_s.edge_ids)}  total {plan.d_s}")
    print(f"  tree containing it: edges {sorted(plan.mst_v.edge_ids)}  total {plan.s_v} + x")
    print(f"  threshold:          x = {plan.cv}")
    print()

    print("what happens as x moves across the threshold:")
    for x in (5.0, 7.0, 7.9, 8.0, 8.1, 12.0):
        sel = select_tree(plan, x)
        marker = "moves with x" if sel.chosen is TreeKind.VARIABLE else "constant"
        print(f"  x = {x:5}: {sel.chosen.value:8} tree, total {sel.total_weight}  ({marker})")
    print()

    print("the best-possible total as a closed form:")
    print(f"  min({plan.d_s}, {plan.s_v} + x), breakpoint at {plan.cv}")
    samples = ", ".join(
        f"f({x}) = {select_tree(plan, x).total_weight}" for x in (0, 4, 8, 16)
    )
    print(f"  {samples}")
    print()
    print("no spanning-tree computation happened after the precompute;")
    print("every answer above came from two stored trees and one comparison.")


if __name__ == "__main__":
    main()
