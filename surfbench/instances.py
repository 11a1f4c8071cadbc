"""Seeded instances and pairs files for the surfcut benchmark.

Each rung of a workload has a fixed structure and fixed base weights (from a
constant generator seed), and the run seed adds a small jitter to every
weight.  Different seeds therefore give different weights, perturbations and
answers, while the combinatorial work of a build (tight cycles, member count,
tree shapes) stays the same, so the spread between runs measures the program
and not the luck of the draw.  Fully random weights make torus member counts
flip between 11 and 13 and genus-2 cross-check times between 0.4 s and 1.5 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 3          # the seed adds 0..JITTER to every base weight


@dataclass(frozen=True)
class Rung:
    """One instance of a workload: ``kind`` in torus / handle / planar."""

    kind: str
    size: int
    variant: int = 0

    @property
    def label(self) -> str:
        suffix = f"v{self.variant}" if self.variant else ""
        return f"{self.kind}{self.size}{suffix}"


def _base_rng(rung: Rung) -> random.Random:
    return random.Random(
        f"surfbench-base-{rung.kind}-{rung.size}-{rung.variant}")


def make_graph(rung: Rung, seed: int):
    """The rung's embedded graph with seed-jittered weights."""
    from surfcut import gen

    base = _base_rng(rung)
    jitter = random.Random(f"surfbench-jitter-{seed}-{rung.label}")
    if rung.kind in ("torus", "handle"):
        k = rung.size
        ws = [base.randint(10, 100) + jitter.randint(0, JITTER)
              for _ in range(2 * k * k + 1)]
        g = gen.torus_grid(k, weights=ws[:-1])
        if rung.kind == "handle":
            g = gen.add_edge_between_faces(g, 0, k * k // 2, ws[-1])
        return g
    if rung.kind == "planar":
        g = gen.planar_triangulation(rung.size, base.randrange(1 << 30))
        return g.with_weights([w + jitter.randint(0, JITTER)
                               for _, _, w in g.edges])
    raise ValueError(f"unknown rung kind {rung.kind!r}")


def make_pairs(face_count: int, count: int, seed: int, label: str):
    """``count`` seeded face pairs ``(x, y)`` with ``x != y``."""
    rng = random.Random(f"surfbench-pairs-{seed}-{label}")
    pairs = []
    while len(pairs) < count:
        x, y = rng.randrange(face_count), rng.randrange(face_count)
        if x != y:
            pairs.append((x, y))
    return pairs
