import random

import pytest

from surfcut import gen, weights
from surfcut import _dinic_py
from surfcut.cuttree import (
    CutTree,
    dual_cut_tree,
    gomory_hu,
    max_flow_min_cut,
    validate_cut_tree,
)
from surfcut.oracle import (
    all_pairs_min_cut,
    brute_force_min_cut,
    is_simple_cycle,
    min_face_cut,
    min_separating_subgraph_exhaustive,
)

try:
    from surfcut import _dinic
    KERNELS = [_dinic.max_flow, _dinic_py.max_flow]
except ImportError:
    KERNELS = [_dinic_py.max_flow]


class TestMaxFlow:
    def test_path_bottleneck(self):
        value, side = max_flow_min_cut(3, [(0, 1, 5), (1, 2, 3)], 0, 2)
        assert value == 3
        assert side == {0, 1}

    def test_unit_cycle(self):
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
        value, _ = max_flow_min_cut(4, edges, 0, 2)
        assert value == 2

    def test_capacities_past_int64(self):
        value, side = max_flow_min_cut(2, [(0, 1, 2 ** 62)] * 3, 0, 1)
        assert value == 3 * 2 ** 62
        assert side == {0}

    def test_same_terminal_rejected(self):
        with pytest.raises(ValueError):
            max_flow_min_cut(2, [(0, 1, 1)], 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_bipartition_enumeration(self, seed):
        n, edges = gen.random_connected_graph(seed % 5 + 6, seed=seed)
        for s, t in [(0, n - 1), (1, n - 2)]:
            if s == t:
                continue
            value, side = max_flow_min_cut(n, edges, s, t)
            bw, _ = brute_force_min_cut(n, edges, s, t)
            assert value == bw
            cut = sum(w for u, v, w in edges if (u in side) != (v in side))
            assert cut == value

    @pytest.mark.parametrize("seed", range(5))
    def test_kernels_agree(self, seed):
        n, edges = gen.random_connected_graph(10, seed=seed + 50)
        for kernel in KERNELS:
            value, side = kernel(n, edges, 0, n - 1)
            ref = brute_force_min_cut(n, edges, 0, n - 1)[0]
            assert value == ref


def laminar(sides, universe):
    for i, a in enumerate(sides):
        for b in sides[i + 1:]:
            ca, cb = universe - a, universe - b
            if a & b and a & cb and ca & b and ca & cb:
                return False
    return True


class TestGomoryHu:
    def test_path_is_own_tree(self):
        edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
        t = gomory_hu(4, edges)
        assert set(t.edges) == {(0, 1, 1), (1, 2, 2), (2, 3, 3)}

    def test_unit_cycle(self):
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
        t = gomory_hu(4, edges)
        for x in range(4):
            for y in range(x + 1, 4):
                assert t.path_min(x, y) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        n, edges = gen.random_connected_graph(seed % 8 + 5, seed=seed + 100)
        t = gomory_hu(n, edges)
        table = all_pairs_min_cut(n, edges)
        for (x, y), (value, _) in table.items():
            assert t.path_min(x, y) == value

    def test_cut_weights_and_nesting(self):
        n, edges = gen.random_connected_graph(12, seed=7)
        pedges = [(u, v, w) for (u, v, _), w in
                  zip(edges, weights.perturb([w for _, _, w in edges], seed=3))]
        t = gomory_hu(n, pedges)
        assert validate_cut_tree(t, n, pedges, pair_check=False) == []
        sides = [t.bipartition(i) for i in range(len(t.edges))]
        assert laminar(sides, frozenset(range(n)))

    def test_deterministic(self):
        n, edges = gen.random_connected_graph(14, seed=5)
        assert gomory_hu(n, edges) == gomory_hu(n, edges)

    def test_relabeled_nodes(self):
        edges = [(0, 1, 4), (1, 2, 6)]
        t = gomory_hu(3, edges, vertices=(10, 20, 30))
        assert t.nodes == (10, 20, 30)
        assert t.path_min(10, 30) == 4

    def test_multigraph_and_zero_weights(self):
        edges = [(0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 0)]
        t = gomory_hu(3, edges)
        assert t.path_min(0, 1) == 5
        assert t.path_min(0, 2) == 4


class TestDualCutTree:
    def test_annotation_offset(self):
        g = gen.planar_triangulation(6, seed=2)
        t0 = dual_cut_tree(g)
        t3 = dual_cut_tree(g, annotation_weight=3)
        assert [w for _, _, w in t3.edges] == [w + 3 for _, _, w in t0.edges]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planar_duality(self, seed):
        g = gen.planar_triangulation(7, seed=seed)  # 15 edges
        t = dual_cut_tree(g)
        for a in range(g.face_count):
            for b in range(a + 1, min(a + 3, g.face_count)):
                x, w = min_separating_subgraph_exhaustive(g, a, b)
                assert t.path_min(a, b) == w
                assert w == min_face_cut(g, a, b)[0]
                assert is_simple_cycle(x, g)


class TestValidate:
    def test_valid_empty_report(self):
        n, edges = gen.random_connected_graph(8, seed=1)
        t = gomory_hu(n, edges)
        assert validate_cut_tree(t, n, edges) == []

    def test_corrupted_weight(self):
        n, edges = gen.random_connected_graph(8, seed=2)
        t = gomory_hu(n, edges)
        bad = t.with_weights([w + (1 if i == 0 else 0)
                              for i, (_, _, w) in enumerate(t.edges)])
        report = validate_cut_tree(bad, n, edges, pair_check=False)
        assert len(report) == 1

    def test_wrong_topology_flagged(self):
        edges = [(0, 1, 1), (1, 2, 5)]
        bad = CutTree((0, 1, 2), ((0, 2, 1), (2, 1, 5)))
        assert validate_cut_tree(bad, 3, edges) != []
