"""Correctness gate: every answer is checked against the direct baseline.

The reference for an instance is the dual Gomory-Hu tree of the unperturbed
graph (``cuttree.dual_cut_tree``), spot-checked against the dual max-flow
oracle ``oracle.min_face_cut`` on seeded face pairs.  A built tree must agree
with it on every face pair, and so must every ``surfcut query`` answer.
"""

from __future__ import annotations

import itertools
import json
import random


class Reference:
    """All-pairs min-cut values of one instance, via the reference tree."""

    def __init__(self, tree):
        from surfcut.query import build_index
        self.nodes = sorted(tree.nodes)
        self.index = build_index(tree)

    def value(self, x, y):
        from surfcut.query import min_cut_query
        return min_cut_query(self.index, x, y)


def oracle_mismatches(graph, ref: Reference, count: int, seed: int, label):
    """Seeded face pairs where the reference disagrees with dual max-flow."""
    from surfcut.oracle import min_face_cut
    rng = random.Random(f"surfbench-oracle-{seed}-{label}")
    bad = []
    for _ in range(count):
        x, y = rng.sample(ref.nodes, 2)
        want = min_face_cut(graph, x, y)[0]
        if ref.value(x, y) != want:
            bad.append((x, y, ref.value(x, y), want))
    return bad


def tree_mismatches(artifact: bytes, ref: Reference, limit: int = 5):
    """Face pairs where a build artifact's tree disagrees with the reference
    (at most ``limit`` of them); a malformed artifact is one mismatch."""
    from surfcut.cuttree import CutTree
    from surfcut.query import build_index, min_cut_query
    try:
        tree = CutTree.from_json(json.dumps(json.loads(artifact)["tree"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [("artifact", str(exc))]
    if sorted(tree.nodes) != ref.nodes:
        return [("nodes", len(tree.nodes), len(ref.nodes))]
    idx = build_index(tree)
    bad = []
    for x, y in itertools.combinations(ref.nodes, 2):
        got = min_cut_query(idx, x, y)
        if got != ref.value(x, y):
            bad.append((x, y, got, ref.value(x, y)))
            if len(bad) >= limit:
                break
    return bad


def expected_answers(pairs, ref: Reference) -> str:
    """The exact text ``surfcut query`` must print for ``pairs``."""
    return "".join(f"{x} {y} {ref.value(x, y)}\n" for x, y in pairs)


def answer_mismatch(text: str, expected: str):
    """None if a query output equals the expected text, else the first
    differing line as ``(got, want)``."""
    if text == expected:
        return None
    got, want = text.splitlines(), expected.splitlines()
    for g, w in itertools.zip_longest(got, want):
        if g != w:
            return (g, w)
    return (text[-40:], expected[-40:])
