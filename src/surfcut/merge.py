"""Merge cut trees over a common vertex set into one minimum cut tree.

Region trees here are rooted trees whose leaves are the host vertices;
each internal edge carries the weight of the cut given by the leaves below
it.  A member's cut tree already spans exactly the original faces, so its
region tree is the tree itself rooted at its least node, with one leaf hung
under every node.  Members with equal tree edges hold equal cuts, so only
the first of each edge set is cross-checked and merged.

One pass over the input cuts in weight order both checks and merges, and it
reads no table of pair answers.  A cut is minimum exactly when it splits a
class of the partition that all lighter input cuts refine.  The minimum cuts
must not cross, and those that split a class when applied are the merged
tree's F-1 sides, each owning one face: a tied cut is kept only if it still
splits a class after the cuts before it in its weight group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .cuttree import CutTree
from .errors import CrossingCutsError, DisconnectedGraphError

_ids = itertools.count()


def _fresh():
    return ("n", next(_ids))


def _nkey(v):
    """Sort key tolerating host vertices mixed with placeholder labels."""
    return (0, v, "") if isinstance(v, int) else (1, 0, repr(v))


@dataclass(frozen=True)
class LeafTree:
    """Rooted region tree: leaves are host vertices, internal edges carry cut
    weights (leaf edges carry None)."""

    root: object
    parent: dict        # node -> (parent, weight); root -> None

    @cached_property
    def _shape(self):
        """Children of every node and the leaf set under every node, from one
        post-order pass; computed on first use and kept with the tree."""
        children = {}
        for node, p in self.parent.items():
            if p is not None:
                children.setdefault(p[0], []).append(node)
        order = [self.root]
        for x in order:
            order.extend(children.get(x, ()))
        under = {}
        for x in reversed(order):
            kids = children.get(x)
            under[x] = (frozenset().union(*(under[c] for c in kids))
                        if kids else frozenset((x,)))
        return children, under

    def leaves(self):
        return self._shape[1][self.root]

    def leaves_under(self, node):
        return self._shape[1][node]

    def restrict(self, keep, other_label):
        """The region tree over ``keep`` plus one contracted leaf for the
        rest, keeping every cut that does not cross the (keep, rest) split.

        A cut survives whether its region or its co-region nests in ``keep``;
        only genuinely crossing cuts are dropped, and those cannot be minimum
        when the split itself is a minimum cut.  Nothing on the build path
        calls it; the divide-and-conquer merge the tests compare against does.
        """
        leaves = self.leaves()
        keep = frozenset(keep) & leaves
        if not keep or keep == leaves:
            raise ValueError("restriction side must be a proper nonempty "
                             "subset of the leaves")
        rest = leaves - keep
        full = keep | {other_label}
        r0 = min(full, key=_nkey)
        under = self._shape[1]
        cuts = {}
        for node, p in self.parent.items():
            if p is None or p[1] is None:
                continue
            side = under[node]
            comp = leaves - side
            if side & keep and side & rest and comp & keep and comp & rest:
                continue
            if not side & keep or keep <= side:
                continue        # separates nothing within the kept side
            s = frozenset(side & keep)
            if side & rest:
                s |= {other_label}
            if r0 in s:
                s = full - s
            if s not in cuts or p[1] < cuts[s]:
                cuts[s] = p[1]
        return leaf_tree_from_cuts(full, cuts)


def leaf_tree_from_cuts(nodes, cuts) -> LeafTree:
    """Region tree of a laminar family ``{side: weight}`` over ``nodes``;
    no side may contain ``min(nodes)``.

    Sides are inserted largest first, so the smallest side already holding
    any element of a new side is that side's parent."""
    root = _fresh()
    parent = {root: None}
    host = {}           # node -> region of the smallest side so far holding it
    for side in sorted(cuts, key=len, reverse=True):
        region = _fresh()
        parent[region] = (host.get(next(iter(side)), root), cuts[side])
        for v in side:
            host[v] = region
    for v in sorted(nodes, key=_nkey):
        parent[v] = (host.get(v, root), None)
    return LeafTree(root, parent)


def project_member_tree(t: CutTree) -> LeafTree:
    """The region tree of a cut tree, from one walk rooted at ``min(t.nodes)``:
    every other node gets a region under its tree parent's region, weighted
    by the edge between them, and every node's leaf hangs under its own
    region (the root node's under the root).  So each region's leaves are one
    tree edge's side without ``min(t.nodes)``."""
    adj = t.adjacency()
    first = min(t.nodes)
    region = {first: _fresh()}
    parent = {region[first]: None}
    order = [first]
    for x in order:
        for y, w, _ in adj[x]:
            if y not in region:
                region[y] = _fresh()
                parent[region[y]] = (region[x], w)
                order.append(y)
    for v in t.nodes:
        parent[v] = (region[v], None)
    return LeafTree(region[first], parent)


def _split_classes(cls, size, side):
    """The nodes of ``side`` in each class that ``side`` splits."""
    met = {}
    for x in side:
        met.setdefault(cls[x], []).append(x)
    return [xs for c, xs in met.items() if len(xs) < size[c]]


def detect_crossing_minimum_cuts(leaf_trees, nodes):
    """Raise CrossingCutsError if two inputs hold crossing minimum cuts;
    otherwise return the merged tree's sides as ``{side: weight}``.

    A cut of an input is minimum when its weight equals the best answer over
    all inputs for some pair it separates.  That answer is the lightest input
    cut separating the pair, so a cut of weight w is minimum exactly when it
    splits a class of the partition of ``nodes`` that all cuts lighter than w
    refine; every input's leaves must include ``nodes``.  The cuts split that
    partition in weight order, a group of equal weight only after all of the
    group is tested: a tied cut is minimum even when other cuts of its weight
    together separate everything it separates.

    The sides returned are the cuts that split a class when they are applied,
    each normalized to exclude ``min(nodes)``.  They are applied by weight,
    then input index, then the order of the input's nodes.  The tie rule: a
    tied cut is returned only if it still splits a class after the cuts
    before it in its group, so of tied sides {1}, {2} and {1, 2} over nodes
    {0, 1, 2}, in that order, only {1} and {2} are.  A returned cut splits
    one class in two, or it would cross a lighter minimum cut.  So when every
    pair is separated there are F-1 sides, and each holds one node that no
    smaller side holds.

    The minimum cuts, normalized the same way, must form a laminar family:
    they are inserted largest first, and every element of a new side must lie
    in the same smallest earlier side (or in none).
    """
    universe = frozenset(nodes)
    r0 = min(universe)
    cuts = []
    for i, t in enumerate(leaf_trees):
        under = t._shape[1]
        for node, p in t.parent.items():
            if p is not None and p[1] is not None:
                side = under[node] & universe
                cuts.append((p[1], i, universe - side if r0 in side else side))
    cls = dict.fromkeys(universe, 0)
    size = [len(universe)]          # class id -> its node count
    minimum = set()
    sides = {}
    by_weight = sorted(range(len(cuts)), key=lambda k: cuts[k][0])
    for w, group in itertools.groupby(by_weight, key=lambda k: cuts[k][0]):
        group = [k for k in group if _split_classes(cls, size, cuts[k][2])]
        minimum.update(group)
        for k in group:     # split only after the whole group is tested
            split = _split_classes(cls, size, cuts[k][2])
            if split:
                sides[cuts[k][2]] = w
            for xs in split:
                size[cls[xs[0]]] -= len(xs)
                size.append(len(xs))
                for x in xs:
                    cls[x] = len(size) - 1
    candidates = [cuts[k][1:] for k in sorted(minimum)]
    candidates.sort(key=lambda c: len(c[1]), reverse=True)
    owner = {}          # element -> index of the smallest side so far holding it
    for k, (i, side) in enumerate(candidates):
        held = {owner.get(x) for x in side}
        if len(held) > 1:
            # some holder meets the side without nesting with it
            j = next(candidates[h][0] for h in held - {None}
                     if side - candidates[h][1] and candidates[h][1] - side)
            raise CrossingCutsError(
                f"minimum cuts of input trees {i} and {j} cross")
        for x in side:
            owner[x] = k
    return sides


def merge_leaf_trees(sides, nodes) -> CutTree:
    """The cut tree of the sides ``detect_crossing_minimum_cuts`` returns.

    The sides, ``{side: weight}``, form a laminar family over ``nodes`` with
    no side holding ``min(nodes)``.  They are inserted largest first, so the
    smallest side already holding any element of a new side is its parent.
    Each side's own node, the one no smaller side holds, is joined under the
    side's weight to its parent's own node, or to ``min(nodes)`` at the top.
    Raises DisconnectedGraphError when two nodes share an owner, which is
    when no input separates them.
    """
    nodes = sorted(nodes)
    order = sorted(sides, key=len, reverse=True)
    up = []             # side index -> index of its parent side, or None
    host = {}           # node -> index of the smallest side so far holding it
    for k, side in enumerate(order):
        up.append(host.get(next(iter(side))))
        for v in side:
            host[v] = k
    own = {}            # side index (None for the top) -> its own node
    for v in nodes:
        k = host.get(v)
        if k in own:
            raise DisconnectedGraphError(
                f"no input separates {own[k]} from {v}")
        own[k] = v
    return CutTree(tuple(nodes), tuple(sorted(
        (min(own[k], own[u]), max(own[k], own[u]), sides[side])
        for k, (side, u) in enumerate(zip(order, up)))))


def merged_collection_tree(trees) -> CutTree:
    """Merge the member cut trees, which share one node set, through the
    region trees of their distinct edge sets, first of each in input order;
    queries on the result equal the minimum over the inputs' queries.
    Raises CrossingCutsError when two inputs carry crossing minimum cuts."""
    if not trees:
        raise ValueError("nothing to merge")
    nodes = sorted(trees[0].nodes)
    for t in trees[1:]:
        if sorted(t.nodes) != nodes:
            raise ValueError("input trees disagree on the node set")
    distinct = {}
    for t in trees:     # every member is projected, as surfbench counts
        distinct.setdefault(frozenset(t.edges), project_member_tree(t))
    lts = list(distinct.values())
    return merge_leaf_trees(detect_crossing_minimum_cuts(lts, nodes), nodes)
