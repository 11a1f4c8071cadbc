"""Deterministic weight perturbation that breaks ties between cuts.

Each weight ``w`` of an ``m``-edge graph becomes ``w * scale(m) + r`` where
the residues ``r`` are distinct and small enough that any edge multiset with
up to ``4 * (m + 1)`` members has a residue sum below ``scale(m)``.  Integer
division by ``scale(m)`` then recovers exact original cut weights, while ties
between cuts of equal original weight are broken consistently by the
residues.

The scale grows with m, so no instance is too large: it is ``SCALE`` up to
511 edges, and a power of two between about 4m² and 16m² beyond.  The
residues are distinct, not collision-free: at m = 200 edges they are 200
distinct draws from ``range(1024)``, so two edge sets can share a residue sum
and a tie can survive.
"""

from __future__ import annotations

import random

# The least scale; every graph with at most 511 edges uses exactly this one.
SCALE = 1 << 20


def _margin(m: int) -> int:
    # cuts in surgered graphs may count an edge's residue several times
    # (duplicated copies plus annotations), so leave a 4x safety factor
    return 1 << (4 * (m + 1) - 1).bit_length()


def scale(m: int) -> int:
    """Perturbation scale for ``m`` edges: room for ``m`` distinct residues
    times the margin, and never below ``SCALE``."""
    return max(SCALE, _margin(m) << max(m - 1, 0).bit_length())


def residues(m: int, seed: int):
    """Distinct residues for ``m`` edges, reproducible for a given seed."""
    rng = random.Random(seed)
    return rng.sample(range(scale(m) // _margin(m)), m)


def perturb(weights, seed: int):
    m = len(weights)
    s = scale(m)
    return [w * s + r for w, r in zip(weights, residues(m, seed))]


def perturb_graph(g, seed: int):
    return g.with_weights(perturb([w for _, _, w in g.edges], seed))


def restore(value: int, m: int) -> int:
    """Original weight of a cut given its perturbed weight in an ``m``-edge
    graph."""
    return value // scale(m)
