"""Merge cut trees over a common vertex set into one minimum cut tree.

Inputs whose minimum cuts pairwise nest are merged with Gusfield's
Gomory-Hu algorithm ("Very simple methods for all pairs network flow
analysis", SIAM J. Comput. 1990).  It needs one minimum s-t cut and its side
for each of F-1 pairs, and here each is a lookup: the lightest cut any input
holds on its s-to-t path, whose side is the leaf set under the witnessing
node.

Region trees here are rooted trees whose leaves are the host vertices;
each internal edge carries the weight of the cut given by the leaves below
it.  A member's cut tree already spans exactly the original faces, so its
region tree is the tree itself rooted at its least node, with one leaf hung
under every node.  Members with equal tree edges hold equal cuts, so only
the first of each edge set is cross-checked and merged.

The cross-check reads no table of pair answers: a cut is minimum exactly
when it splits a class of the partition that all lighter input cuts refine,
so one pass over the cuts in weight order finds every minimum cut.
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

    def cuts(self):
        """The tree's cuts as a frozenset of (leaf side, weight): equal for
        trees that hold the same cuts."""
        under = self._shape[1]
        return frozenset((under[node], p[1]) for node, p in self.parent.items()
                         if p is not None and p[1] is not None)

    def _root_path(self, v):
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]][0])
        return path

    def min_cut(self, a, b):
        """Minimum internal edge weight on the leaf-to-leaf path, with the
        child node of the witnessing edge; None if no weighted edge lies on
        the path or a leaf is absent."""
        if a not in self.parent or b not in self.parent:
            return None
        up_a = self._root_path(a)
        in_a = set(up_a)
        up_b = []
        x = b
        while x not in in_a:
            up_b.append(x)
            x = self.parent[x][0]
        meet = x
        best = None
        for side in (up_a[:up_a.index(meet)], up_b):
            for node in side:
                w = self.parent[node][1]
                if w is not None and (best is None or w < best[0]):
                    best = (w, node)
        return best

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
    """Raise CrossingCutsError if two inputs hold crossing minimum cuts.

    A cut of an input is minimum when its weight equals the best answer over
    all inputs for some pair it separates.  That answer is the lightest input
    cut separating the pair, so a cut of weight w is minimum exactly when it
    splits a class of the partition of ``nodes`` that all cuts lighter than w
    refine; every input's leaves must include ``nodes``.  The cuts split that
    partition in weight order, a group of equal weight only after all of the
    group is tested: a tied cut is minimum even when other cuts of its weight
    together separate everything it separates.

    The minimum cuts, each side normalized to exclude ``min(nodes)``, must
    form a laminar family: they are inserted largest first, and every element
    of a new side must lie in the same smallest earlier side (or in none).
    """
    universe = frozenset(nodes)
    r0 = min(universe)
    cuts = [(p[1], i, t._shape[1][node] & universe)
            for i, t in enumerate(leaf_trees)
            for node, p in t.parent.items()
            if p is not None and p[1] is not None]
    cls = dict.fromkeys(universe, 0)
    size = [len(universe)]          # class id -> its node count
    minimum = set()
    by_weight = sorted(range(len(cuts)), key=lambda k: cuts[k][0])
    for _, group in itertools.groupby(by_weight, key=lambda k: cuts[k][0]):
        group = [k for k in group if _split_classes(cls, size, cuts[k][2])]
        minimum.update(group)
        for k in group:     # split only after the whole group is tested
            for xs in _split_classes(cls, size, cuts[k][2]):
                size[cls[xs[0]]] -= len(xs)
                size.append(len(xs))
                for x in xs:
                    cls[x] = len(size) - 1
    candidates = [(i, universe - side if r0 in side else side)
                  for k, (_, i, side) in enumerate(cuts) if k in minimum]
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


def merge_leaf_trees(leaf_trees, nodes) -> CutTree:
    """Gusfield's Gomory-Hu algorithm over region trees.

    Every ``s`` after the first node, in sorted order, is cut from its
    current tree neighbour ``p[s]`` by the lightest ``min_cut(s, p[s])`` over
    the inputs (ties go to the first input), whose side is the witnessing
    node's leaf set or its complement, whichever holds ``s``.  When every
    input cut is a cut of one host graph and the lightest answer over the
    inputs is the host's minimum cut for every pair, as for the projected
    trees of a collection, the result is a Gomory-Hu tree of the host; it is
    the only one when minimum cuts are unique.  Raises DisconnectedGraphError
    when no input separates a pair.
    """
    nodes = sorted(nodes)
    p = dict.fromkeys(nodes, nodes[0])
    weight = {}
    for s in nodes[1:]:
        t = p[s]
        best = None
        for lt in leaf_trees:
            res = lt.min_cut(s, t)
            if res is not None and (best is None or res[0] < best[0]):
                best = (res[0], lt, res[1])
        if best is None:
            raise DisconnectedGraphError(f"no input separates {s} from {t}")
        weight[s], winner, node = best
        under = winner.leaves_under(node)
        s_under = s in under        # the side of s is under or its complement
        for u in nodes:
            if u != s and p[u] == t and (u in under) == s_under:
                p[u] = s
        if (p[t] in under) == s_under:
            p[s], p[t] = p[t], s
            weight[s], weight[t] = weight[t], weight[s]
    return CutTree(tuple(nodes), tuple(sorted(
        (min(s, p[s]), max(s, p[s]), weight[s]) for s in nodes[1:])))


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
    detect_crossing_minimum_cuts(lts, nodes)
    return merge_leaf_trees(lts, nodes)
