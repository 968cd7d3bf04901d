"""Seeded inputs for the benchmark, generated apart from ``mstplan``.

The package has its own random generator (``mstplan.generate_graph``); the
benchmark does not use it, so that a change to the package cannot change
what the benchmark measures. The same seed always gives the same instance
and the same operation stream.
"""

from __future__ import annotations

import random
from typing import NamedTuple

MAX_WEIGHT = 100_000


class Instance(NamedTuple):
    """A connected multigraph: a random spanning backbone plus extra edges.

    ``edges[i]`` is ``(u, v, w)`` for edge id ``i`` with an integer weight.
    ``unstable`` holds the ids of the unstable edges, all drawn from the
    extra edges, so none is a bridge and every plan has a finite threshold.
    """

    n: int
    edges: list[tuple[int, int, int]]
    unstable: tuple[int, ...]

    def text(self) -> str:
        """The instance in the graph-file format the package reads."""
        unstable = set(self.unstable)
        lines = [f"p wdg {self.n} {len(self.edges)}"]
        for i, (u, v, w) in enumerate(self.edges):
            lines.append(f"{'u' if i in unstable else 'e'} {u} {v} {w}")
        return "\n".join(lines) + "\n"

    def values(self) -> dict[int, int]:
        """Starting value of every unstable edge."""
        return {e: self.edges[e][2] for e in self.unstable}


def make_instance(n: int, m: int, num_unstable: int, seed: int) -> Instance:
    rng = random.Random(f"instance:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (order[rng.randrange(i)], order[i], rng.randint(1, MAX_WEIGHT))
        for i in range(1, n)
    ]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, MAX_WEIGHT)))
    unstable = tuple(sorted(rng.sample(range(n - 1, m), num_unstable)))
    return Instance(n, edges, unstable)


def make_offsets(count: int, reach: int, seed: int, stream: str) -> list[int]:
    """Integer offsets from a plan's threshold, drawn on both sides of it.

    A what-if value is ``cv + offset``; negative offsets select the variable
    tree and the others the stable tree, so both answers are exercised and
    every total is an exact integer.
    """
    rng = random.Random(f"{stream}:{seed}")
    return [rng.randint(-reach, reach - 1) for _ in range(count)]


def make_picks(count: int, choices: int, seed: int, stream: str) -> list[int]:
    """Indices into a list of ``choices`` unstable edges."""
    rng = random.Random(f"{stream}:{seed}")
    return [rng.randrange(choices) for _ in range(count)]
