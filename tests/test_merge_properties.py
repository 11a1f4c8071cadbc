"""Property tests for the region-tree merge: cached leaf sets, duplicate
inputs, and the largest-first forms of region-tree construction and of the
crossing check against the scans they replaced."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from surfcut.cuttree import CutTree  # noqa: E402
from surfcut.errors import CrossingCutsError  # noqa: E402
from surfcut.merge import (  # noqa: E402
    LeafTree,
    _all_pairs_query,
    _fresh,
    _nkey,
    detect_crossing_minimum_cuts,
    from_cut_tree,
    leaf_tree_from_cuts,
    merge_cut_trees,
    merge_leaf_trees,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def cut_trees(draw, n=None, max_weight=6):
    """A cut tree over 0..n-1: a random tree, or a path in random order (two
    random paths often hold crossing cuts)."""
    if n is None:
        n = draw(st.integers(2, 9))
    ws = draw(st.lists(st.integers(1, max_weight), min_size=n - 1,
                       max_size=n - 1))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs = list(zip(order, order[1:]))
    else:
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return CutTree(tuple(range(n)),
                   tuple((u, v, w) for (u, v), w in zip(pairs, ws)))


@st.composite
def tree_sets(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 4))
    return [draw(cut_trees(n, max_weight=4)) for _ in range(k)]


def children(lt):
    ch = {}
    for node, p in lt.parent.items():
        if p is not None:
            ch.setdefault(p[0], []).append(node)
    return ch


def dfs_leaves(lt, node):
    ch = children(lt)
    out = set()
    stack = [node]
    while stack:
        x = stack.pop()
        kids = ch.get(x)
        if kids:
            stack.extend(kids)
        else:
            out.add(x)
    return frozenset(out)


def _cross(p, q, universe):
    return bool(p & q) and bool(p - q) and bool(q - p) and \
        bool(universe - (p | q))


def all_pairs_crossing_check(leaf_trees, nodes):
    """The crossing check as it was before the laminarity form: every pair of
    minimum cuts from different inputs is compared."""
    universe = frozenset(nodes)
    table = _all_pairs_query(leaf_trees, nodes)
    candidates = []
    for i, t in enumerate(leaf_trees):
        for node in children(t):
            p = t.parent[node]
            if p is None or p[1] is None:
                continue
            side = dfs_leaves(t, node) & universe
            rest = universe - side
            w = p[1]
            if any(table[(x, y) if x < y else (y, x)] == w
                   for x in side for y in rest):
                candidates.append((i, side))
    for (i, p), (j, q) in itertools.combinations(candidates, 2):
        if i != j and _cross(p, q, universe):
            raise CrossingCutsError(
                f"minimum cuts of input trees {i} and {j} cross")


def scan_leaf_tree_from_cuts(nodes, cuts):
    """leaf_tree_from_cuts as it was before sides were inserted largest
    first: each side's parent is found by scanning the larger sides."""
    nodes = sorted(nodes, key=_nkey)
    sets = sorted(cuts, key=lambda s: (len(s), sorted(map(_nkey, s))))
    root = _fresh()
    parent = {root: None}
    node_of = {s: _fresh() for s in sets}
    for i, s in enumerate(sets):
        up = root
        for s2 in sets[i + 1:]:
            if s < s2:
                up = node_of[s2]
                break
        parent[node_of[s]] = (up, cuts[s])
    for v in nodes:
        host = root
        for s in sets:
            if v in s:
                host = node_of[s]
                break
        parent[v] = (host, None)
    return LeafTree(root, parent)


def shape(lt):
    """Each node as (its leaf set, its weight, its parent's leaf set)."""
    return sorted(((dfs_leaves(lt, x), p[1], dfs_leaves(lt, p[0]))
                   for x, p in lt.parent.items() if p is not None),
                  key=repr)


@SETTINGS
@given(cut_trees(), st.data())
def test_leaf_tree_from_cuts_matches_scan(t, data):
    keep = data.draw(st.sets(st.sampled_from(t.nodes), min_size=2,
                             max_size=len(t.nodes))) \
        if len(t.nodes) > 2 else set(t.nodes)
    nodes = sorted(keep)
    cuts = {}
    for (_, _, w), part in zip(t.edges, t.bipartitions()):
        side = frozenset(part) & keep
        if side and side != keep:
            side = frozenset(keep) - side if nodes[0] in side else side
            cuts[side] = min(w, cuts.get(side, w))
    assert shape(leaf_tree_from_cuts(nodes, cuts)) == \
        shape(scan_leaf_tree_from_cuts(nodes, cuts))


@SETTINGS
@given(cut_trees(), st.data())
def test_cached_leaf_sets_match_dfs(t, data):
    lt = from_cut_tree(t)
    keep = data.draw(st.sets(st.sampled_from(t.nodes), min_size=1,
                             max_size=len(t.nodes) - 1))
    trees = [lt, lt.restrict(keep, "beta"), lt.restrict(keep, "alpha")]
    weighted = [x for x, p in lt.parent.items()
                if p is not None and p[1] is not None]
    if weighted:
        trees.extend(lt.split_at(data.draw(st.sampled_from(weighted)),
                                 "down", "up"))
    for tr in trees:
        ch = children(tr)
        assert tr.leaves() == frozenset(x for x in tr.parent if x not in ch)
        for node in tr.parent:
            assert tr.leaves_under(node) == dfs_leaves(tr, node)


@SETTINGS
@given(st.integers(2, 12).flatmap(
    lambda n: st.lists(cut_trees(n), min_size=1, max_size=4)), st.data())
def test_duplicate_inputs_merge_like_distinct(trees, data):
    """Every input shares the first one's topology, so no cuts cross."""
    base = [(u, v) for u, v, _ in trees[0].edges]
    trees = [CutTree(t.nodes, tuple((u, v, w) for (u, v), (_, _, w)
                                    in zip(base, t.edges)))
             for t in trees]
    picks = data.draw(st.lists(st.sampled_from(range(len(trees))),
                               max_size=8))
    dup = trees + [trees[i] for i in picks]
    want = merge_cut_trees(trees)
    assert merge_cut_trees(dup) == want
    nodes = sorted(trees[0].nodes)
    every = [from_cut_tree(t) for t in dup]
    assert merge_leaf_trees(every, nodes) == want


@SETTINGS
@example([CutTree((0, 1, 2, 3), ((0, 1, 5), (1, 2, 1), (2, 3, 5))),
          CutTree((0, 1, 2, 3), ((0, 2, 5), (1, 2, 1), (1, 3, 5)))])
@given(tree_sets())
def test_laminarity_check_matches_all_pairs_scan(trees):
    lts = [from_cut_tree(t) for t in trees]
    nodes = sorted(trees[0].nodes)
    try:
        all_pairs_crossing_check(lts, nodes)
        crossing = False
    except CrossingCutsError:
        crossing = True
    hypothesis.event(f"crossing={crossing}")
    if crossing:
        with pytest.raises(CrossingCutsError):
            detect_crossing_minimum_cuts(lts, nodes)
    else:
        detect_crossing_minimum_cuts(lts, nodes)
