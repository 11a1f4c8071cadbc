"""Deterministic weight perturbation making minimum cuts unique.

Each weight ``w`` becomes ``w * SCALE + r`` where the residues ``r`` are
distinct and small enough that any edge subset's residue sum stays below
``SCALE``.  Integer division by ``SCALE`` then recovers exact original cut
weights, while ties between cuts of equal original weight are broken
consistently by the residues.
"""

from __future__ import annotations

import random

from .errors import InstanceTooLargeError

SCALE = 1 << 20


def _residue_bound(m: int) -> int:
    # cuts in surgered graphs may count an edge's residue several times
    # (duplicated copies plus annotations), so leave a 4x safety factor
    limit = 1
    while limit < 4 * (m + 1):
        limit <<= 1
    return SCALE // limit


def residues(m: int, seed: int):
    """Distinct residues for ``m`` edges, reproducible for a given seed."""
    bound = _residue_bound(m)
    if bound < m:
        limit = next(k for k in range(m - 1, 0, -1) if _residue_bound(k) >= k)
        raise InstanceTooLargeError(
            f"{m} edges exceed the {limit}-edge limit of a collision-free "
            f"weight perturbation")
    rng = random.Random(seed)
    return rng.sample(range(bound), m)


def perturb(weights, seed: int):
    rs = residues(len(weights), seed)
    return [w * SCALE + r for w, r in zip(weights, rs)]


def perturb_graph(g, seed: int):
    return g.with_weights(perturb([w for _, _, w in g.edges], seed))


def restore(value: int) -> int:
    """Original weight of a cut given its perturbed weight."""
    return value // SCALE
