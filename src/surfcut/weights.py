"""Deterministic weight perturbation that breaks ties between cuts.

Each weight ``w`` becomes ``w * SCALE + r`` where the residues ``r`` are
distinct and small enough that any edge subset's residue sum stays below
``SCALE``.  Integer division by ``SCALE`` then recovers exact original cut
weights, while ties between cuts of equal original weight are broken
consistently by the residues.

The residues are distinct, not collision-free: at m = 200 edges they are
200 distinct draws from ``range(1024)``, so two edge sets can share a residue
sum and a tie can survive.  The edge limit only keeps ``restore`` exact: past
it, the residue range that does so holds fewer than m values.
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
            f"{m} edges exceed the {limit}-edge limit of a weight "
            f"perturbation that keeps cut weights exact")
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
