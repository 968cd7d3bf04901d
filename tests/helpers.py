"""Shared fixture texts and small builders for the test suite."""

from __future__ import annotations

import hashlib
import math
import random
import struct
from fractions import Fraction

from mstplan import (
    Constraints,
    DisjointSetUnion,
    EdgeKind,
    EdgePlan,
    Infeasible,
    PlanSet,
    build_graph,
    constrained_mst_kruskal,
    tree_total_weight,
    unstable_values,
)

TRIANGLE_TEXT = """\
p wdg 3 3
e 0 1 1
e 1 2 2
u 0 2 10
"""

# Six vertices, one unstable edge (id 5). The tree avoiding it costs 40, the
# tree containing it costs 32 + x, so the answer flips at 8.
THRESHOLD8_TEXT = """\
p wdg 6 6
e 0 2 5
e 2 3 7
e 3 1 8
e 3 4 9
e 4 5 11
u 0 1 5
"""

# Edge 3 is the only way to reach vertex 3.
BRIDGE_TEXT = """\
p wdg 4 4
e 0 1 3
e 1 2 4
e 0 2 6
u 2 3 5
"""

M3_TEXT = """\
p wdg 5 7
e 0 1 4
e 1 2 6
e 2 3 3
e 3 4 5
u 0 2 2
u 1 3 7
u 0 4 1
"""

PARALLEL_TEXT = """\
p wdg 3 4
e 0 1 2
e 0 1 3
e 1 2 1
u 0 2 4
"""


def edges(g) -> list:
    """Every edge of ``g`` as an ``Edge``, in id order."""
    return [g.edge(i) for i in range(g.num_edges)]


def random_pairs(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Endpoint pairs of a connected multigraph: backbone plus random extras."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        pairs.append((u, v))
    return pairs


def random_graph(rng, n, extra, unstable=(), wmin=1, wmax=20, weights=None):
    pairs = random_pairs(rng, n, extra)
    if weights is None:
        weights = [rng.randint(wmin, wmax) for _ in pairs]
    marked = set(unstable)
    return build_graph(
        n,
        [
            (u, v, float(w), EdgeKind.UNSTABLE if i in marked else EdgeKind.STABLE)
            for i, ((u, v), w) in enumerate(zip(pairs, weights))
        ],
    )


def bridge_graph(rng, n, extra):
    """Random graph on n vertices plus one hanging vertex on an unstable edge."""
    pairs = random_pairs(rng, n, extra)
    specs = [(u, v, float(rng.randint(1, 20)), EdgeKind.STABLE) for u, v in pairs]
    specs.append((rng.randrange(n), n, float(rng.randint(1, 20)), EdgeKind.UNSTABLE))
    return build_graph(n + 1, specs)


def random_constraints(rng, g) -> Constraints:
    ids = list(range(g.num_edges))
    rng.shuffle(ids)
    k_plus = rng.randint(0, min(3, len(ids)))
    k_minus = rng.randint(0, min(3, len(ids) - k_plus))
    return Constraints(
        mandatory=frozenset(ids[:k_plus]),
        forbidden=frozenset(ids[k_plus : k_plus + k_minus]),
    )


def assert_valid_tree(t, g, constraints=None):
    """Structural invariants of a spanning tree returned by any search."""
    assert len(t.edge_ids) == g.n - 1
    dsu = DisjointSetUnion(g.n)
    for eid in t.edge_ids:
        e = g.edge(eid)
        assert dsu.union(e.u, e.v), "tree contains a cycle"
    assert dsu.components == 1, "tree does not span"
    stable = []
    unstable = set()
    for eid in sorted(t.edge_ids):
        e = g.edge(eid)
        if e.kind is EdgeKind.UNSTABLE:
            unstable.add(eid)
        else:
            stable.append(e.weight)
    assert t.stable_sum == math.fsum(stable)
    assert t.unstable_members == unstable
    if constraints is not None:
        assert constraints.mandatory <= t.edge_ids
        assert not (constraints.forbidden & t.edge_ids)


def plan_sets_equal(a, b) -> bool:
    """Value equality of two plan sets, tolerating inf thresholds."""
    if dict(a.snapshot) != dict(b.snapshot) or set(a.plans) != set(b.plans):
        return False
    for eid, pa in a.plans.items():
        pb = b.plans[eid]
        sa = None if pa.mst_s is None else pa.mst_s.edge_ids
        sb = None if pb.mst_s is None else pb.mst_s.edge_ids
        if sa != sb or pa.mst_v.edge_ids != pb.mst_v.edge_ids:
            return False
        if (pa.d_s, pa.s_v, pa.cv) != (pb.d_s, pb.s_v, pb.cv):
            return False
    return True


def reference_plans(g) -> PlanSet:
    """Plans by searching: one Kruskal, then one constrained Kruskal per edge.

    The package derives each swap from the tree directly; this is the search
    it replaced, kept as the independent build to compare against.
    """
    mst = constrained_mst_kruskal(g)
    plans = {}
    for eid in g.unstable_ids:
        if eid in mst.edge_ids:
            mst_v = mst
            avoiding = constrained_mst_kruskal(
                g, Constraints(mandatory=mst.edge_ids - {eid}, forbidden={eid})
            )
            mst_s = None if isinstance(avoiding, Infeasible) else avoiding
        else:
            mst_s = mst
            outside = set(range(g.num_edges)) - mst.edge_ids - {eid}
            mst_v = constrained_mst_kruskal(
                g, Constraints(mandatory={eid}, forbidden=outside)
            )
        s_v = float(_exact_total(g, mst_v, eid))
        if mst_s is None:
            d_s = cv = math.inf
            swap = None
        else:  # cv: the exact difference of the two trees' totals, rounded once
            d_s = tree_total_weight(mst_s, g)
            cv = float(_exact_total(g, mst_s) - _exact_total(g, mst_v, eid))
            (swap,) = mst_s.edge_ids - mst_v.edge_ids
        plans[eid] = EdgePlan(eid, mst_s, d_s, mst_v, s_v, cv, swap)
    return PlanSet(plans=plans, snapshot=unstable_values(g))


def _exact_total(g, tree, exclude=None) -> Fraction:
    return sum(Fraction(g.weight(f)) for f in tree.edge_ids if f != exclude)


def reference_fingerprint(g) -> dict:
    """``graph_fingerprint`` by the layout it documents, hashed by ``hashlib``."""
    m = g.num_edges
    kinds = bytes(int(eid in g.unstable_ids) for eid in range(m))
    weights = [w + 0.0 for w in g._weight]
    fields = struct.pack(f"<{2 * m}q{m}d", *g._u, *g._v, *weights)
    return {"n": g.n, "edges": m, "sha256": hashlib.sha256(fields + kinds).hexdigest()}


def tamper_one_weight(text: str) -> str:
    """Copy of a graph file with the first edge weight bumped by one."""
    lines = text.strip().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields and fields[0] in ("e", "u"):
            fields[3] = str(int(float(fields[3])) + 1)
            lines[i] = " ".join(fields)
            break
    return "\n".join(lines) + "\n"
