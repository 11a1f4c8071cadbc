import itertools
import random

import pytest

from surfcut.cuttree import CutTree
from surfcut.oracle import path_min
from surfcut.query import build_index, cut_partition, min_cut_query

# Largest edge weight of a random tree: "sparse" draws nearly distinct
# weights, "block" draws runs of tied weights, which the index must break
# by edge index.
WMAX = {"sparse": 10**6, "block": 3}


def random_tree(n, seed, wmax=10**6):
    rng = random.Random(seed)
    return CutTree(tuple(range(n)), tuple(sorted(
        (rng.randrange(v), v, rng.randint(1, wmax)) for v in range(1, n))))


def scattered_trees(seed, count):
    """Random trees of 1-40 nodes whose ids are not contiguous, with zero
    and tied weights, and nodes, edges and endpoints in random order."""
    rng = random.Random(seed)
    for _ in range(count):
        ids = rng.sample(range(-50, 1000), rng.randint(1, 40))
        wmax = rng.choice([0, 1, 3, 10**6])
        edges = []
        for k in range(1, len(ids)):
            u, v = rng.sample((ids[rng.randrange(k)], ids[k]), 2)
            edges.append((u, v, rng.randint(0, wmax)))
        rng.shuffle(edges)
        yield CutTree(tuple(ids), tuple(edges))


def path_edges(t, x, y):
    """``(weight, index)`` of every edge on the x-to-y path, by a walk from
    x."""
    adj = t.adjacency()
    stack = [(x, ())]
    seen = {x}
    while stack:
        u, path = stack.pop()
        if u == y:
            return path
        for v, w, i in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append((v, path + ((w, i),)))


class TestBuild:
    @pytest.mark.parametrize("weights", WMAX)
    def test_path_tree_lightest_edge_wins(self, weights):
        w = 2 if weights == "sparse" else 1     # tie: lower edge index wins
        t = CutTree((1, 2, 3, 4), ((1, 2, 3), (2, 3, 1), (3, 4, w)))
        idx = build_index(t)
        assert min_cut_query(idx, 1, 4) == 1
        assert cut_partition(idx, 1, 4) == ({1, 2}, {3, 4})
        assert cut_partition(idx, 4, 1) == ({3, 4}, {1, 2})

    def test_single_edge(self):
        t = CutTree((0, 1), ((0, 1, 7),))
        idx = build_index(t)
        assert idx.table == [[0]]            # one gap, holding rank 0
        assert min_cut_query(idx, 0, 1) == 7
        assert cut_partition(idx, 1, 0) == ({1}, {0})

    def test_every_node_has_one_position(self):
        for t in scattered_trees(9, 40):
            idx = build_index(t)
            assert set(idx.position) == set(t.nodes)
            assert sorted(idx.position.values()) == list(range(len(t.nodes)))

    def test_one_node_tree_rejects_other_nodes(self):
        idx = build_index(CutTree((5,), ()))
        for x, y in ((5, 6), (6, 5)):
            with pytest.raises(KeyError):
                min_cut_query(idx, x, y)
            with pytest.raises(KeyError):
                cut_partition(idx, x, y)
        with pytest.raises(ValueError):
            min_cut_query(idx, 5, 5)


class TestQuery:
    def test_path_examples(self):
        t = CutTree((1, 2, 3, 4), ((1, 2, 3), (2, 3, 1), (3, 4, 2)))
        idx = build_index(t)
        assert min_cut_query(idx, 1, 4) == 1
        assert min_cut_query(idx, 1, 2) == 3
        assert min_cut_query(idx, 4, 1) == 1     # symmetric

    def test_same_node_rejected(self):
        idx = build_index(CutTree((0, 1), ((0, 1, 1),)))
        with pytest.raises(ValueError):
            min_cut_query(idx, 0, 0)
        with pytest.raises(ValueError):
            cut_partition(idx, 1, 1)

    @pytest.mark.parametrize("weights", WMAX)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_pairs_match_path_scan(self, weights, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 120)
        t = random_tree(n, seed + 40, WMAX[weights])
        idx = build_index(t)
        for x, y in itertools.combinations(range(n), 2):
            assert min_cut_query(idx, x, y) == path_min(t, x, y)

    @pytest.mark.parametrize("seed", range(5))
    def test_scattered_trees_match_path_min(self, seed):
        for t in scattered_trees(seed, 40):
            idx = build_index(t)
            for x, y in itertools.permutations(t.nodes, 2):
                assert min_cut_query(idx, x, y) == path_min(t, x, y)

    def test_global_minimum_is_floor(self):
        t = random_tree(80, 3)
        idx = build_index(t)
        lightest = min(w for _, _, w in t.edges)
        assert min(min_cut_query(idx, x, y)
                   for x, y in itertools.combinations(range(80), 2)) \
            == lightest


class TestPartition:
    @pytest.mark.parametrize("seed", range(4))
    def test_components_of_removed_edge(self, seed):
        t = random_tree(40, seed + 7)
        idx = build_index(t)
        rng = random.Random(seed)
        for _ in range(30):
            x, y = rng.sample(range(40), 2)
            sx, sy = cut_partition(idx, x, y)
            assert x in sx and y in sy
            assert sx | sy == frozenset(range(40))
            assert not sx & sy
            w = min_cut_query(idx, x, y)
            crossing = sum(wt for u, v, wt in t.edges
                           if (u in sx) != (v in sx))
            assert crossing >= w     # removed edge weight is on the boundary
            # the partition is the two components of the tree minus one edge
            cut_edges = [e for e in t.edges if (e[0] in sx) != (e[1] in sx)]
            assert len(cut_edges) == 1
            assert cut_edges[0][2] == w

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_go_to_the_lower_index_edge(self, seed):
        ties = 0
        for t in scattered_trees(seed + 20, 20):
            idx = build_index(t)
            sides = t.bipartitions()
            for x, y in itertools.permutations(t.nodes, 2):
                path = path_edges(t, x, y)
                w, i = min(path)
                want = sides[i] if x in sides[i] else \
                    frozenset(t.nodes) - sides[i]
                sx, sy = cut_partition(idx, x, y)
                assert sx == want and sx | sy == frozenset(t.nodes)
                ties += sum(pw == w for pw, _ in path) > 1
        assert ties    # some paths do hold tied lightest edges
