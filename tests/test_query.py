import itertools
import random

import pytest

from surfcut.cuttree import CutTree
from surfcut.query import build_index, cut_partition, min_cut_query

# Largest edge weight of a random tree: "sparse" draws nearly distinct
# weights, "block" draws runs of tied weights, which the index must break
# by edge index.
WMAX = {"sparse": 10**6, "block": 3}


def random_tree(n, seed, wmax=10**6):
    rng = random.Random(seed)
    return CutTree(tuple(range(n)), tuple(sorted(
        (rng.randrange(v), v, rng.randint(1, wmax)) for v in range(1, n))))


class TestBuild:
    @pytest.mark.parametrize("weights", WMAX)
    def test_path_tree_root_is_lightest(self, weights):
        w = 2 if weights == "sparse" else 1     # tie: lower edge index wins
        t = CutTree((1, 2, 3, 4), ((1, 2, 3), (2, 3, 1), (3, 4, w)))
        idx = build_index(t)
        assert idx.weight[idx.root] == 1
        assert t.edges[idx.edge_index[idx.root]] == (2, 3, 1)

    def test_single_edge(self):
        t = CutTree((0, 1), ((0, 1, 7),))
        idx = build_index(t)
        assert len(idx.children) == 3        # two leaves, one internal
        assert idx.weight[idx.root] == 7

    @pytest.mark.parametrize("seed", range(5))
    def test_heap_property_on_root_paths(self, seed):
        t = random_tree(200, seed)
        idx = build_index(t)
        stack = [(idx.root, None)]
        while stack:
            node, bound = stack.pop()
            w = idx.weight[node]
            if w is not None:
                assert bound is None or w >= bound
                for c in idx.children[node]:
                    stack.append((c, w))

    def test_leaves_match_nodes(self):
        t = random_tree(50, 9)
        idx = build_index(t)
        assert sorted(idx.leaf_of) == sorted(t.nodes)
        leaves = [i for i, c in enumerate(idx.children) if not c]
        assert sorted(idx.leaf_of.values()) == leaves


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
            assert min_cut_query(idx, x, y) == t.path_min(x, y)

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

