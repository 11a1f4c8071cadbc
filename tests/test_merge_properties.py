"""Property tests for the region-tree merge: cached leaf sets, duplicate
inputs, Gusfield's merge against the divide-and-conquer merge it replaced,
the rooted projection against the bipartition projection it replaced, and
the largest-first forms of region-tree construction and of the crossing
check against the scans they replaced."""

import itertools
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from surfcut import gen  # noqa: E402
from surfcut.cuttree import CutTree, gomory_hu  # noqa: E402
from surfcut.errors import (  # noqa: E402
    CrossingCutsError,
    DisconnectedGraphError,
)
from surfcut.merge import (  # noqa: E402
    LeafTree,
    _all_pairs_query,
    _fresh,
    _nkey,
    detect_crossing_minimum_cuts,
    leaf_tree_from_cuts,
    merge_leaf_trees,
    merged_collection_tree,
    project_member_tree,
)

SETTINGS = settings(max_examples=150, deadline=None)


def region_tree(t):
    """The region tree of a cut tree over its own nodes."""
    return project_member_tree(t)


def restricted_region_tree(t, n):
    """The region tree of ``t``'s cuts restricted to nodes ``0..n-1``: each
    side loses the other nodes, trivial sides vanish and duplicate sides
    keep their lightest weight."""
    nodes = list(range(n))
    full = frozenset(nodes)
    cuts = {}
    for (_, _, w), part in zip(t.edges, t.bipartitions()):
        side = part & full
        if not side or side == full:
            continue
        if 0 in side:
            side = full - side
        if side not in cuts or w < cuts[side]:
            cuts[side] = w
    return leaf_tree_from_cuts(nodes, cuts)


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


def split_at(lt, node, down_label, up_label):
    """Split a region tree at an internal edge: the subtree below ``node``
    (plus a new leaf ``down_label``) and the remainder (plus a new leaf
    ``up_label``), in that order."""
    below = {}
    ch = lt._shape[0]
    keep = [node]
    for x in keep:
        keep.extend(ch.get(x, ()))
    keep = set(keep)
    for x in keep:
        if x != node:
            below[x] = lt.parent[x]
    below[node] = None
    below[down_label] = (node, None)
    above = {x: p for x, p in lt.parent.items() if x not in keep}
    above[up_label] = (lt.parent[node][0], None)
    return LeafTree(node, below), LeafTree(lt.root, above)


def dc_merge_leaf_trees(leaf_trees, nodes):
    """merge_leaf_trees as it was before Gusfield's algorithm: a
    divide-and-conquer that cuts the first unseparated pair of a group by the
    best minimum cut any input offers, then splits the winning input and
    restricts every other one to each side."""
    nodes = sorted(nodes)
    if len(nodes) == 1:
        return CutTree((nodes[0],), ())
    groups = [list(nodes)]
    gtrees = [list(leaf_trees)]
    tree_edges = []
    while True:
        gi = next((i for i, g in enumerate(groups) if len(g) > 1), None)
        if gi is None:
            break
        members = groups[gi]
        rtrees = gtrees[gi]
        a, b = members[0], members[1]
        best = None
        for idx, rt in enumerate(rtrees):
            res = rt.min_cut(a, b)
            if res is not None and (best is None or res[0] < best[0]):
                best = (res[0], idx, res[1])
        if best is None:
            raise DisconnectedGraphError(
                f"no input separates {a} from {b}")
        w, widx, wnode = best
        side_a = rtrees[widx].leaves_under(wnode)
        all_leaves = rtrees[widx].leaves()
        k = len(tree_edges)
        down, up = ("cut", k, "down"), ("cut", k, "up")
        new_a, new_b = [], []
        for idx, rt in enumerate(rtrees):
            if idx == widx:
                ra, rb = split_at(rt, wnode, down, up)
            else:
                ra = rt.restrict(side_a, down)
                rb = rt.restrict(all_leaves - side_a, up)
            new_a.append(ra)
            new_b.append(rb)
        nb = len(groups)
        groups[gi] = [v for v in members if v in side_a]
        gtrees[gi] = new_a
        groups.append([v for v in members if v not in side_a])
        gtrees.append(new_b)
        for j, (x, y, wj) in enumerate(tree_edges):
            if gi not in (x, y):
                continue
            ph_down, ph_up = ("cut", j, "down"), ("cut", j, "up")
            ph = ph_down if ph_down in all_leaves else ph_up
            if ph not in side_a:
                tree_edges[j] = (nb if x == gi else x,
                                 nb if y == gi else y, wj)
        tree_edges.append((gi, nb, w))
    label = {i: grp[0] for i, grp in enumerate(groups)}
    out = tuple(sorted((min(label[x], label[y]), max(label[x], label[y]), w)
                       for x, y, w in tree_edges))
    return CutTree(tuple(nodes), out)


def perturbed(t, n):
    """``t`` with every cut's weight made unique to its side over the host
    nodes ``0..n-1``, as the weight perturbation makes the minimum cuts of a
    host graph unique."""
    edges = []
    for (u, v, w), part in zip(t.edges, t.bipartitions()):
        side = {x for x in part if x < n}
        if 0 in side:
            side = set(range(n)) - side
        edges.append((u, v, (w << n) + sum(1 << x for x in side)))
    return CutTree(t.nodes, tuple(edges))


@st.composite
def merge_inputs(draw):
    """Region trees over host nodes ``0..n-1`` and whether they are
    perturbed: projections of cut trees over those nodes, or over up to two
    more (boundary) nodes when ``boundary`` is drawn."""
    n = draw(st.integers(2, 8))
    boundary = draw(st.booleans())
    perturb = draw(st.booleans())
    lts = []
    for _ in range(draw(st.integers(1, 4))):
        extra = draw(st.integers(0, 2)) if boundary else 0
        t = draw(cut_trees(n + extra, max_weight=4))
        if perturb:
            t = perturbed(t, n)
        lts.append(restricted_region_tree(t, n))
    return lts, list(range(n)), perturb


def is_gomory_hu_tree(tree, leaf_trees, nodes):
    """Every edge ``(u, v, w)`` of ``tree`` has ``w`` equal to the best
    answer over the inputs for ``(u, v)``, and its side is a cut some input
    holds at weight ``w``; path minimums then answer every pair."""
    table = _all_pairs_query(leaf_trees, nodes)
    universe = frozenset(nodes)
    held = set().union(*(lt.cuts() for lt in leaf_trees))
    for (u, v, w), part in zip(tree.edges, tree.bipartitions()):
        side = universe - part if nodes[0] in part else part
        if (side, w) not in held or table[(min(u, v), max(u, v))] != w:
            return False
    return all(tree.path_min(x, y) == w for (x, y), w in table.items())


def shape(lt):
    """The multiset of nodes as (leaf set, weight, parent's leaf set).  A
    Counter, because a frozenset's ``repr`` depends on how it was built and
    so cannot order the rows."""
    return Counter((dfs_leaves(lt, x), p[1], dfs_leaves(lt, p[0]))
                   for x, p in lt.parent.items() if p is not None)


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
    lt = region_tree(t)
    keep = data.draw(st.sets(st.sampled_from(t.nodes), min_size=1,
                             max_size=len(t.nodes) - 1))
    trees = [lt, lt.restrict(keep, "beta"), lt.restrict(keep, "alpha")]
    weighted = [x for x, p in lt.parent.items()
                if p is not None and p[1] is not None]
    if weighted:
        trees.extend(split_at(lt, data.draw(st.sampled_from(weighted)),
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
    """Copies of the inputs, with their edges in any order, leave the merge
    of the distinct trees unchanged.  Every input shares the first one's
    topology, so no cuts cross."""
    base = [(u, v) for u, v, _ in trees[0].edges]
    trees = [CutTree(t.nodes, tuple((u, v, w) for (u, v), (_, _, w)
                                    in zip(base, t.edges)))
             for t in trees]
    picks = data.draw(st.lists(st.sampled_from(range(len(trees))),
                               max_size=8))
    dup = trees + [CutTree(trees[i].nodes,
                           tuple(data.draw(st.permutations(trees[i].edges))))
                   for i in picks]
    distinct = [t for i, t in enumerate(trees)
                if all(set(t.edges) != set(u.edges) for u in trees[:i])]
    nodes = sorted(trees[0].nodes)
    want = merged_collection_tree(trees)
    assert want == merge_leaf_trees([region_tree(t) for t in distinct], nodes)
    assert merged_collection_tree(dup) == want
    every = [region_tree(t) for t in dup]
    assert merge_leaf_trees(every, nodes) == want


def bipartition_projection(t):
    """The region tree of a cut tree as projected before the rooted walk:
    each tree edge's side, taken without ``min(t.nodes)``, inserted into
    ``leaf_tree_from_cuts`` under its weight."""
    nodes = sorted(t.nodes)
    full = frozenset(nodes)
    cuts = {}
    for (_, _, w), side in zip(t.edges, t.bipartitions()):
        cuts[full - side if nodes[0] in side else side] = w
    return leaf_tree_from_cuts(nodes, cuts)


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_rooted_projection_matches_bipartitions(n, seed):
    n, edges = gen.random_connected_graph(n, seed, max_weight=5)
    t = gomory_hu(n, edges)
    lt = project_member_tree(t)
    want = bipartition_projection(t)
    assert lt.cuts() == want.cuts()
    assert shape(lt) == shape(want)


@SETTINGS
@example([CutTree((0, 1, 2, 3), ((0, 1, 5), (1, 2, 1), (2, 3, 5))),
          CutTree((0, 1, 2, 3), ((0, 2, 5), (1, 2, 1), (1, 3, 5)))])
@given(tree_sets())
def test_laminarity_check_matches_all_pairs_scan(trees):
    lts = [region_tree(t) for t in trees]
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


# Tied inputs without crossing minimum cuts that have more than one
# Gomory-Hu tree: Gusfield's merge and the divide-and-conquer merge differ in
# where node 4 hangs.
TWO_GOMORY_HU_TREES = [
    CutTree(tuple(range(7)), ((0, 1, 1), (1, 2, 2), (0, 3, 1), (1, 4, 1),
                              (1, 5, 1), (1, 6, 1))),
    CutTree(tuple(range(7)), ((0, 2, 1), (2, 3, 2), (3, 4, 1), (4, 1, 1),
                              (1, 5, 1), (5, 6, 1))),
]


@settings(max_examples=400, deadline=None)
@example(([region_tree(t) for t in TWO_GOMORY_HU_TREES], list(range(7)),
          False))
@given(merge_inputs())
def test_gusfield_merge_matches_divide_and_conquer(inputs):
    """On inputs that pass the crossing check, Gusfield's merge builds the
    divide-and-conquer merge's tree when the inputs are perturbed.  Tied
    inputs may have several Gomory-Hu trees, and the two merges can pick
    different ones (``TWO_GOMORY_HU_TREES`` do), so there both must be
    Gomory-Hu trees of the inputs."""
    lts, nodes, perturb = inputs
    try:
        detect_crossing_minimum_cuts(lts, nodes)
    except CrossingCutsError:
        assume(False)
    try:
        want = dc_merge_leaf_trees(lts, nodes)
    except DisconnectedGraphError:
        with pytest.raises(DisconnectedGraphError):
            merge_leaf_trees(lts, nodes)
        return
    got = merge_leaf_trees(lts, nodes)
    hypothesis.event(f"perturbed={perturb}, same tree={got == want}")
    if perturb:
        assert got == want
    assert is_gomory_hu_tree(got, lts, nodes)
    assert is_gomory_hu_tree(want, lts, nodes)


def test_unseparated_pair_raises():
    lt = leaf_tree_from_cuts([0, 1, 2], {frozenset({2}): 3})
    with pytest.raises(DisconnectedGraphError, match="no input separates"):
        merge_leaf_trees([lt], [0, 1, 2])
