"""Exhaustive ground truth for desk-size instances.

Everything here is deliberately naive so it can be audited at a glance:
spanning trees are found by trying every (n-1)-subset of the edge ids, the
constrained minimum is a filter over that catalog, and the critical value of
an unstable edge is the exact (``Fraction``) difference of two catalog minima,
rounded once. None of it shares code with the production algorithms beyond
the graph types, and it reads the graph's edge columns as they are.

The catalog has its own independent completeness check:
:func:`count_spanning_trees` evaluates the Kirchhoff (matrix-tree) determinant
with exact integer arithmetic, so ``len(catalog.trees)`` can be verified
without trusting the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import fsum, inf

from .constrained import (
    FORBIDDEN_DISCONNECTS,
    MANDATORY_CYCLE,
    Constraints,
    Infeasible,
    MstResult,
    SpanningTree,
    _whole_tree,
)
from .errors import Error, NotUnstableError, TooLargeError
from .graph import DisjointSetUnion, EdgeKind, WeaklyDynamicGraph

# Worst case C(24, 12) subsets: one enumeration of a 13-vertex, 24-edge graph
# (70 264 spanning trees) took 6.7 s on a shared 2-vCPU VM.
MAX_ORACLE_EDGES = 24


@dataclass(frozen=True)
class TreeCatalog:
    """Every spanning tree of a graph, as edge-id sets.

    Weights are looked up from ``graph`` at query time, so the catalog stays
    valid across unstable-value changes; only the edge-id sets are stored.
    """

    graph: WeaklyDynamicGraph
    trees: tuple[frozenset[int], ...]


def enumerate_spanning_trees(g: WeaklyDynamicGraph) -> TreeCatalog:
    """All spanning trees by subset enumeration. Capped at 24 edges."""
    m = g.num_edges
    if m > MAX_ORACLE_EDGES:
        raise TooLargeError(f"{m} edges exceeds the oracle cap of {MAX_ORACLE_EDGES}")
    k = g.n - 1
    u, v = g._u, g._v
    found = []
    for subset in combinations(range(m), k):
        dsu = DisjointSetUnion(g.n)
        for eid in subset:
            if not dsu.union(u[eid], v[eid]):
                break
        else:  # n - 1 edges that join two sets each span the graph
            found.append(frozenset(subset))
    return TreeCatalog(graph=g, trees=tuple(found))


def catalog_total(catalog: TreeCatalog, tree: frozenset[int]) -> float:
    """Total weight of one catalog tree at the graph's current values, by ``fsum``."""
    weight = catalog.graph._weight
    return fsum(weight[eid] for eid in tree)


def brute_constrained_min(
    catalog: TreeCatalog,
    constraints: Constraints = Constraints(),
) -> MstResult:
    """Filter the catalog by the constraints and pick the minimum-weight tree.

    Ties go to the lexicographically smallest edge-id set. Infeasibility is
    diagnosed independently of the production code: a cycle inside the
    mandatory set, otherwise a disconnection caused by the forbidden set.
    """
    g = catalog.graph
    constraints.validate(g)
    mandatory, forbidden = constraints.mandatory, constraints.forbidden
    best: tuple[float, tuple[int, ...]] | None = None
    for tree in catalog.trees:
        if not mandatory <= tree or tree & forbidden:
            continue
        key = (catalog_total(catalog, tree), tuple(sorted(tree)))
        if best is None or key < best:
            best = key
    if best is None:
        return Infeasible(_infeasible_reason(g, mandatory))
    return _whole_tree(g, frozenset(best[1]), g._weight)


def _infeasible_reason(g: WeaklyDynamicGraph, mandatory: frozenset[int]) -> str:
    dsu = DisjointSetUnion(g.n)
    for eid in sorted(mandatory):
        if not dsu.union(g._u[eid], g._v[eid]):
            return MANDATORY_CYCLE
    return FORBIDDEN_DISCONNECTS


def brute_critical_value(g: WeaklyDynamicGraph, edge_id: int) -> float:
    """Threshold for one unstable edge, from two catalog minima.

    ``A`` is the cheapest total over trees avoiding the edge (current values
    for everything else); ``B`` is the cheapest total over trees containing it
    with the edge's own value left out. The threshold is the float nearest
    the exact ``A - B``, or +inf when every spanning tree needs the edge.
    """
    if not g._is_unstable(edge_id):
        raise NotUnstableError(f"edge {edge_id} is stable")
    return _critical_value(enumerate_spanning_trees(g), edge_id)


def _critical_value(catalog: TreeCatalog, edge_id: int) -> float:
    """:func:`brute_critical_value` of an unstable edge, from its graph's catalog."""
    weight = catalog.graph._weight
    avoid, contain = [], []
    for tree in catalog.trees:
        total = sum(Fraction(weight[i]) for i in tree if i != edge_id)
        (contain if edge_id in tree else avoid).append(total)
    if not contain:
        raise Error(f"no spanning tree contains edge {edge_id}; graph corrupt")
    return float(min(avoid) - min(contain)) if avoid else inf


def max_weight_on_tree_path(
    t: SpanningTree, g: WeaklyDynamicGraph, u: int, v: int
) -> float:
    """Maximum stable edge weight on the unique u-v path of a spanning tree."""
    if u == v:
        raise Error("path endpoints must differ")
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in t.edge_ids:
        e = g.edge(eid)
        adj.setdefault(e.u, []).append((eid, e.v))
        adj.setdefault(e.v, []).append((eid, e.u))

    # Iterative DFS from u, remembering the arriving edge of each vertex.
    via: dict[int, int] = {u: -1}
    stack = [u]
    while stack:
        node = stack.pop()
        if node == v:
            break
        for eid, other in adj.get(node, ()):
            if other not in via:
                via[other] = eid
                stack.append(other)
    if v not in via:
        raise Error(f"vertices {u} and {v} are not connected by the tree")

    best = None
    node = v
    while node != u:
        e = g.edge(via[node])
        if e.kind is EdgeKind.STABLE and (best is None or e.weight > best):
            best = e.weight
        node = e.u if node == e.v else e.v
    if best is None:
        raise Error(f"no stable edge on the {u}-{v} tree path")
    return best


def count_spanning_trees(g: WeaklyDynamicGraph) -> int:
    """Spanning-tree count via the Kirchhoff determinant, exactly.

    Builds the integer Laplacian (parallel edges each count), drops row and
    column 0, and evaluates the determinant with Bareiss fraction-free
    elimination so the result is an exact integer, independent of the subset
    enumeration above.
    """
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for a, b in zip(g._u, g._v):
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_determinant(minor)


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    a = [row[:] for row in matrix]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[k - 1][k - 1]
