import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcut import cuttree, gen, weights
from surfcut import _dinic_py
from surfcut.cuttree import (
    CutTree,
    dual_cut_tree,
    gomory_hu,
    max_flow_min_cut,
    validate_cut_tree,
)
from surfcut.embed import dual
from surfcut.errors import DisconnectedGraphError, QueryInputError
from surfcut.oracle import (
    all_pairs_min_cut,
    brute_force_min_cut,
    dinic_search,
    is_simple_cycle,
    min_face_cut,
    min_separating_subgraph_exhaustive,
    path_min,
)

try:
    from surfcut import _dinic
    KERNELS = [_dinic.search, _dinic_py.search]
except ImportError:
    _dinic = None
    KERNELS = [_dinic_py.search]


def residual_side(n, level):
    return {v for v in range(n) if level[v] >= 0}


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
        ref = brute_force_min_cut(n, edges, 0, n - 1)
        for kernel in KERNELS:
            value, level = kernel(n, *_dinic_py.arcs(n, edges), 0, n - 1)
            assert (value, residual_side(n, level)) == ref

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n, edges, s, t", [
        # every arc of the source has capacity 0: (0, {s}) before any growth
        (3, [(0, 1, 0), (0, 2, 0), (1, 2, 5)], 0, 2),
        # a self-loop on the source never saturates, so the source exit
        # does not fire, and the call ends with no active vertex and {s}
        (3, [(0, 0, 4), (0, 1, 2), (1, 2, 3)], 0, 2),
        # the sink is out of reach: the trees never meet
        (4, [(0, 1, 3), (2, 3, 1)], 0, 3),
        # the augmentations saturate every arc of the source, and the
        # source exit ends the call
        (4, [(0, 1, 1), (0, 2, 1), (1, 3, 5), (2, 3, 5)], 0, 3),
        # an augmentation saturates the source's arc to 1 but not the arc
        # to 2, so the exit must not fire: the source side is {0, 2}
        (4, [(0, 2, 9), (2, 3, 1), (0, 1, 1), (1, 3, 1)], 0, 3),
        # the least minimum cut's source side holds several vertices, and
        # a tied cut lies past it: {0, 1, 2} and {0, 1, 2, 3} both weigh 2
        (6, [(0, 1, 5), (0, 2, 5), (1, 3, 1), (2, 3, 1), (3, 4, 2),
             (4, 5, 9)], 0, 5),
        # 1 and 2 join the source tree from 0; the path 0-1-3 saturates
        # 1's arc from its parent, and the orphan 1 re-attaches through 2
        (4, [(3, 1, 7), (0, 2, 4), (1, 2, 6), (0, 1, 7)], 0, 3),
        # 2 is freed once and joins the sink tree, and 1 joins below it; the
        # path 0-3-1-2-4 saturates 2's arc to the sink, 2 finds no parent
        # whose chain avoids its own subtree, and it is freed with its
        # child 1, which is orphaned and freed in turn
        (5, [(0, 3, 8), (2, 4, 9), (2, 1, 5), (2, 0, 6), (1, 3, 7)], 0, 4),
        # 3 re-attaches through 2 and scans on from its current arc; then 2
        # is freed, 3 is orphaned and re-attaches to 0, and 3, made active
        # again, must restart at its first arc to grow 2 back into the
        # source tree: the source side is {0, 2, 3}
        (5, [(3, 0, 5), (0, 2, 1), (1, 3, 5), (4, 1, 7), (3, 0, 1),
             (2, 3, 6)], 0, 4),
    ], ids=["source-arcs-zero", "source-self-loop", "sink-unreachable",
            "source-saturated", "one-source-arc-saturated",
            "wide-source-side", "orphan-adopted", "orphan-subtree-freed",
            "reactivated-scan-restarts"])
    def test_kernel_edge_cases(self, kernel, n, edges, s, t):
        value, level = kernel(n, *_dinic_py.arcs(n, edges), s, t)
        assert (value, residual_side(n, level)) == \
            brute_force_min_cut(n, edges, s, t)


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
                assert path_min(t, x, y) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        n, edges = gen.random_connected_graph(seed % 8 + 5, seed=seed + 100)
        t = gomory_hu(n, edges)
        table = all_pairs_min_cut(n, edges)
        for (x, y), (value, _) in table.items():
            assert path_min(t, x, y) == value

    def test_cut_weights_and_nesting(self):
        n, edges = gen.random_connected_graph(12, seed=7)
        pedges = [(u, v, w) for (u, v, _), w in
                  zip(edges, weights.perturb([w for _, _, w in edges], seed=3))]
        t = gomory_hu(n, pedges)
        assert validate_cut_tree(t, n, pedges) == []
        sides = t.bipartitions()
        assert laminar(sides, frozenset(range(n)))

    def test_deterministic(self):
        n, edges = gen.random_connected_graph(14, seed=5)
        assert gomory_hu(n, edges) == gomory_hu(n, edges)

    def test_multigraph_and_zero_weights(self):
        edges = [(0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 0)]
        t = gomory_hu(3, edges)
        assert path_min(t, 0, 1) == 5
        assert path_min(t, 0, 2) == 4


def rebuilt_gomory_hu(n, edges, lighter=True, terminals=None):
    """The contraction Gomory-Hu tree that rebuilt the whole contraction at
    every step, kept as the oracle for the incremental one.  With
    ``lighter`` each max-flow runs from the split pair's terminal of smaller
    weighted degree in the contracted graph, as ``gomory_hu`` does; without
    it, always from the first terminal.  ``terminals`` defaults to every
    vertex; the other vertices only carry flow."""
    terms = set(range(n) if terminals is None else terminals)
    if len(terms) == 1:
        return CutTree(tuple(terms), ())
    groups = [sorted(range(n))]
    held = [len(terms)]                  # group -> its number of terminals
    tree_edges = []                      # (group_i, group_j, weight)
    while True:
        gi = next((i for i, h in enumerate(held) if h > 1), None)
        if gi is None:
            break
        s, t = [v for v in groups[gi] if v in terms][:2]
        cid, nc, group_cid = _contract(n, groups, tree_edges, gi)
        cedges = {}
        for u, v, w in edges:
            a, b = cid[u], cid[v]
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            cedges[key] = cedges.get(key, 0) + w
        arcs = [(a, b, w) for (a, b), w in cedges.items()]
        degree = {cid[s]: 0, cid[t]: 0}
        for (a, b), w in cedges.items():
            for x in (a, b):
                if x in degree:
                    degree[x] += w
        if lighter and degree[cid[t]] < degree[cid[s]]:
            value, side = max_flow_min_cut(nc, arcs, cid[t], cid[s])
            side = frozenset(range(nc)) - side
        else:
            value, side = max_flow_min_cut(nc, arcs, cid[s], cid[t])
        in_a = [v for v in groups[gi] if cid[v] in side]
        in_b = [v for v in groups[gi] if cid[v] not in side]
        if not in_a or not in_b:
            raise DisconnectedGraphError("cut failed to split the group")
        groups[gi] = in_a
        bi = len(groups)
        groups.append(in_b)
        held[gi] = sum(v in terms for v in in_a)
        held.append(sum(v in terms for v in in_b))
        moved = []
        for k, (x, y, w) in enumerate(tree_edges):
            other = y if x == gi else (x if y == gi else None)
            if other is None:
                continue
            if group_cid[other] not in side:
                moved.append(k)
        for k in moved:
            x, y, w = tree_edges[k]
            other = y if x == gi else x
            tree_edges[k] = (bi, other, w)
        tree_edges.append((gi, bi, value))
    label = {i: next(v for v in grp if v in terms)
             for i, grp in enumerate(groups)}
    out = tuple(sorted((min(label[a], label[b]), max(label[a], label[b]), w)
                       for a, b, w in tree_edges))
    return CutTree(tuple(sorted(terms)), out)


def _contract(n, groups, tree_edges, gi):
    """Map each vertex to a contracted id: members of group gi keep their own
    ids (0..k-1 within the contracted graph); each subtree hanging off gi in
    the current tree becomes one contracted vertex.

    Returns (vertex -> contracted id, contracted vertex count,
    group -> contracted id)."""
    adj = {i: [] for i in range(len(groups))}
    for a, b, _ in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    comp = {}               # group index -> component id (contracted)
    members = groups[gi]
    local = {v: i for i, v in enumerate(members)}
    nxt = len(members)
    for start in sorted(adj):
        if start == gi or start in comp:
            continue
        # flood this side without passing through gi
        stack = [start]
        found = [start]
        seen = {start, gi}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    found.append(y)
                    stack.append(y)
        for x in found:
            comp[x] = nxt
        nxt += 1
    cid = {}
    for i, grp in enumerate(groups):
        for v in grp:
            cid[v] = local[v] if i == gi else comp[i]
    group_cid = {}
    for i in range(len(groups)):
        group_cid[i] = local[groups[i][0]] if i == gi else comp[i]
    return cid, nxt, group_cid


@st.composite
def multigraphs(draw):
    """A multigraph on 1..9 vertices with small weights, so ties and zero
    weights are common; isolated vertices and several components occur."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 3)),
                          max_size=18))
    return n, [(u, v, w) for u, v, w in edges if u != v]


@st.composite
def tie_free_graphs(draw):
    """A connected multigraph on 1..9 vertices with distinct powers of two
    as edge weights.  Distinct cuts cross distinct edge sets, so they have
    distinct weights, and every minimum cut is unique."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex),
                                               max_size=12)) if u != v]
    order = draw(st.permutations(range(len(pairs))))
    return n, [(u, v, 1 << i) for (u, v), i in zip(pairs, order)]


@st.composite
def clustered_graphs(draw):
    """Clusters of 1..4 vertices on paths of heavy edges, joined by light
    edges of weight 0..2, with a subset of the vertices as terminals.  A
    minimum cut between terminals of two clusters takes whole clusters, so
    most splits cut off several positions, and one side is much smaller
    than the other."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=9))
    n = sum(sizes)
    edges, start = [], 0
    for k in sizes:
        edges += [(v - 1, v, draw(st.integers(100, 103)))
                  for v in range(start + 1, start + k)]
        start += k
    vertex = st.integers(0, n - 1)
    edges += [(u, v, w) for u, v, w in draw(st.lists(
        st.tuples(vertex, vertex, st.integers(0, 2)), max_size=3 * n))
        if u != v]
    return n, edges, draw(st.sets(vertex, min_size=1))


class TestIncrementalGomoryHu:
    @settings(max_examples=400, deadline=None)
    @given(multigraphs())
    def test_matches_rebuilt_contraction(self, graph):
        n, edges = graph
        try:
            want = rebuilt_gomory_hu(n, edges)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                gomory_hu(n, edges)
            return
        assert gomory_hu(n, edges) == want

    @settings(max_examples=300, deadline=None)
    @given(tie_free_graphs())
    def test_flow_direction_is_free_without_ties(self, graph):
        n, edges = graph
        assert gomory_hu(n, edges) == rebuilt_gomory_hu(n, edges,
                                                         lighter=False)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_trees_certify_with_ties(self, graph):
        n, edges = graph
        assert validate_cut_tree(gomory_hu(n, edges), n, edges) == []

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.data())
    def test_terminal_subset(self, graph, data):
        n, edges = graph
        terms = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        calls = []

        flow = cuttree.max_flow_on_arcs

        def counted(*args):
            calls.append(args)
            return flow(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(cuttree, "max_flow_on_arcs", counted)
            t = gomory_hu(n, edges, terminals=terms)
        assert len(calls) == len(terms) - 1
        assert t.nodes == tuple(sorted(terms))
        for x, y in itertools.combinations(sorted(terms), 2):
            assert path_min(t, x, y) == max_flow_min_cut(n, edges, x, y)[0]

    @settings(max_examples=300, deadline=None)
    @given(clustered_graphs())
    def test_one_sided_splits_match_rebuilt_contraction(self, case):
        n, edges, terms = case
        assert gomory_hu(n, edges, terminals=terms) == \
            rebuilt_gomory_hu(n, edges, terminals=terms)


class CountedList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestGomoryHuAtSize:
    """Planar duals with F = 36, 96, 196 and 336 faces: many splits deep, so
    super-vertices are carried across many levels of groups, and networks
    shrink in place over many partitions."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [20, 50, 100, 170])
    def test_planar_duals_match_rebuilt_contraction(self, k, seed):
        g = gen.planar_triangulation(k, seed, max_weight=2)
        for h in (g, weights.perturb_graph(g, seed)):
            d = dual(h)
            assert gomory_hu(h.face_count, d) == \
                rebuilt_gomory_hu(h.face_count, d)

    @pytest.mark.parametrize("k", [100, 170])
    def test_partitions_write_only_the_smaller_side(self, k, monkeypatch):
        """A split that cuts off more than one position writes arc arrays
        (through ``_dinic_py.arcs``) for its smaller side plus one
        super-vertex, and a one-position split writes none.  The only other
        write is a compaction: the larger side plus one, once the network's
        dead positions would outnumber its live ones.  Those dead positions
        were each on an earlier smaller side, so all compactions together
        write fewer positions than the smaller sides hold."""
        flow, arcs = cuttree.max_flow_on_arcs, _dinic_py.arcs
        steps = []      # per max-flow: (live positions, source side, writes)

        def counted_flow(n, first, *args):
            value, level = flow(n, first, *args)
            # the dual is connected, so only dead positions have no arcs
            steps.append((n - first.count(-1), n - level.count(-1), []))
            return value, level

        def counted_arcs(n, edges):
            if steps:
                steps[-1][2].append(n)
            return arcs(n, edges)

        monkeypatch.setattr(cuttree, "max_flow_on_arcs", counted_flow)
        monkeypatch.setattr(_dinic_py, "arcs", counted_arcs)
        g = gen.planar_triangulation(k, 0)
        for h in (g, weights.perturb_graph(g, 0)):
            steps.clear()
            gomory_hu(h.face_count, dual(h))
            smaller = compacted = 0
            for live, reach, writes in steps:
                small = min(reach, live - reach)
                if small == 1:
                    assert writes == []
                    continue
                smaller += small
                for n in writes:
                    if n > small + 1:
                        assert n == live - small + 1
                        compacted += n
                assert len(writes) <= 2
            assert 0 < compacted < smaller

    def test_input_edges_are_read_a_fixed_number_of_times(self):
        passes = []
        for k in (20, 50):
            g = gen.planar_triangulation(k, 0, max_weight=2)
            edges = CountedList(dual(g))
            gomory_hu(g.face_count, edges)
            passes.append(edges.passes)
        assert passes[0] == passes[1]


@st.composite
def loopy_multigraphs(draw, weight=st.integers(0, 3)):
    """A multigraph on 2..9 vertices with parallel edges, zero weights and
    self-loops, and two distinct terminals."""
    n = draw(st.integers(2, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=18))
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    return n, edges, s, t


# small weights, where ties abound, and powers of two up to 2**62, whose
# sums pass the compiled kernel's int64 range
WIDE_WEIGHTS = st.one_of(st.integers(0, 3),
                         st.integers(0, 62).map(lambda k: 1 << k))


def assert_feasible_flow(n, to, cap, residual, s, t, value):
    """``cap - residual`` is a flow of ``value`` from s to t within ``cap``:
    antisymmetric on each arc pair and conserved off the terminals."""
    flow = [c - r for c, r in zip(cap, residual)]
    for a in range(0, len(flow), 2):
        assert flow[a] == -flow[a + 1]
    assert all(f <= c for f, c in zip(flow, cap))
    out = [0] * n
    for a, f in enumerate(flow):
        out[to[a ^ 1]] += f
    assert out[s] == value == -out[t]
    assert all(out[v] == 0 for v in range(n) if v not in (s, t))


class TestKernelsAgainstDinic:
    """Both kernels against ``oracle.dinic_search``, Dinic's algorithm: an
    independent exact max-flow with the same residual source side."""

    @settings(max_examples=400, deadline=None)
    @given(loopy_multigraphs(WIDE_WEIGHTS))
    def test_kernels_match_reference(self, case):
        n, edges, s, t = case
        first, to, cap, nxt = _dinic_py.arcs(n, edges)
        caps = cap[:]
        fits = sum(c for c in cap if c > 0) < 2 ** 63
        for x, y in ((s, t), (t, s)):
            value, level = dinic_search(n, first, to, caps[:], nxt, x, y)
            want = (value, residual_side(n, level))
            residual = caps[:]
            value, level = _dinic_py.search(n, first, to, residual, nxt, x, y)
            assert (value, residual_side(n, level)) == want
            assert_feasible_flow(n, to, caps, residual, x, y, value)
            if _dinic is None:
                continue
            if not fits:
                with pytest.raises(OverflowError):
                    _dinic.search(n, first, to, cap, nxt, x, y)
                continue
            value, level = _dinic.search(n, first, to, cap, nxt, x, y)
            assert (value, residual_side(n, level)) == want
            assert cap == caps

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", ["planar170", "torus10"])
    def test_benchmark_sized_duals_match_reference(self, kernel, seed,
                                                   shape):
        """The duals of the benchmark's largest planar and torus shapes, raw
        and perturbed, on 20 seeded face pairs each."""
        g = (gen.planar_triangulation(170, seed) if shape == "planar170"
             else gen.torus_grid(10, seed=seed))
        rng = random.Random(seed)
        for h in (g, weights.perturb_graph(g, seed)):
            n = h.face_count
            first, to, cap, nxt = _dinic_py.arcs(n, dual(h))
            for _ in range(20):
                s, t = rng.sample(range(n), 2)
                value, level = dinic_search(n, first, to, cap[:], nxt, s, t)
                got, got_level = kernel(n, first, to, cap[:], nxt, s, t)
                assert (got, residual_side(n, got_level)) == \
                    (value, residual_side(n, level))


class TestArcArrays:
    @settings(max_examples=300, deadline=None)
    @given(loopy_multigraphs())
    def test_search_matches_edge_list_entry(self, case):
        n, edges, s, t = case
        caps = _dinic_py.arcs(n, edges)[2]
        for x, y in ((s, t), (t, s)):
            # the residual source side is the least minimum cut's side, the
            # one the enumeration finds first
            want = max_flow_min_cut(n, edges, x, y)
            assert want == brute_force_min_cut(n, edges, x, y)
            for flow in (_dinic_py.search, cuttree.max_flow_on_arcs):
                first, to, cap, nxt = _dinic_py.arcs(n, edges)
                value, level = flow(n, first, to, cap, nxt, x, y)
                assert (value, residual_side(n, level)) == want
            # the last flow, max_flow_on_arcs, leaves ``cap`` as it was
            assert cap == caps

    @settings(max_examples=300, deadline=None)
    @given(loopy_multigraphs())
    def test_search_leaves_a_feasible_flow(self, case):
        n, edges, s, t = case
        first, to, cap, nxt = _dinic_py.arcs(n, edges)
        residual = cap[:]
        value, _ = _dinic_py.search(n, first, to, residual, nxt, s, t)
        assert_feasible_flow(n, to, cap, residual, s, t, value)

    @pytest.mark.skipif(_dinic is None, reason="compiled kernel not built")
    @settings(max_examples=300, deadline=None)
    @given(loopy_multigraphs())
    def test_compiled_search_matches_pure(self, case):
        n, edges, s, t = case
        first, to, cap, nxt = _dinic_py.arcs(n, edges)
        caps = cap[:]
        for x, y in ((s, t), (t, s)):
            value, level = _dinic.search(n, first, to, cap, nxt, x, y)
            assert cap == caps      # the compiled kernel does not write it
            want, want_level = _dinic_py.search(n, first, to, caps[:], nxt,
                                                x, y)
            assert (value, residual_side(n, level)) == \
                (want, residual_side(n, want_level))

    @pytest.mark.skipif(_dinic is None, reason="compiled kernel not built")
    def test_compiled_search_rejects(self):
        with pytest.raises(OverflowError):
            _dinic.search(2, *_dinic_py.arcs(2, [(0, 1, 2 ** 63)]), 0, 1)
        # each capacity fits in int64, but not their sum
        with pytest.raises(OverflowError):
            _dinic.search(2, *_dinic_py.arcs(2, [(0, 1, 2 ** 62)]), 0, 1)
        with pytest.raises(ValueError):
            _dinic.search(2, *_dinic_py.arcs(2, [(0, 1, 1)]), 0, 0)

    def test_capacities_past_int64_go_to_the_pure_kernel(self, monkeypatch):
        """The compiled kernel's OverflowError hands the network to the pure
        one.  Without the compiled kernel loaded, a stand-in raises it."""
        if cuttree._dinic is _dinic_py:
            class Overflowing:
                @staticmethod
                def search(*args):
                    raise OverflowError("capacities sum past the int64 range")
            monkeypatch.setattr(cuttree, "_dinic", Overflowing)
        edges = [(0, 1, 2 ** 62), (1, 2, 2 ** 62 + 1), (0, 2, 3)]
        first, to, cap, nxt = _dinic_py.arcs(3, edges)
        caps = cap[:]
        want = _dinic_py.search(3, first, to, caps[:], nxt, 0, 2)
        value, level = cuttree.max_flow_on_arcs(3, first, to, cap, nxt, 0, 2)
        assert (value, level) == want == (2 ** 62 + 3, [0, -1, -1])
        assert cap == caps

    @pytest.mark.skipif(_dinic is None, reason="compiled kernel not built")
    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_gomory_hu_equal_on_both_kernels(self, graph):
        n, edges = graph
        trees = []
        for kernel in (_dinic, _dinic_py):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(cuttree, "_dinic", kernel)
                trees.append(gomory_hu(n, edges))
        assert trees[0] == trees[1]


class TestDualCutTree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planar_duality(self, seed):
        g = gen.planar_triangulation(7, seed=seed)  # 15 edges
        t = dual_cut_tree(g)
        for a in range(g.face_count):
            for b in range(a + 1, min(a + 3, g.face_count)):
                x, w = min_separating_subgraph_exhaustive(g, a, b)
                assert path_min(t, a, b) == w
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
        report = validate_cut_tree(bad, n, edges)
        # the weight is neither its side's cut nor its endpoints' max-flow
        u, v, _ = bad.edges[0]
        assert len(report) == 2
        assert all(line.startswith(f"edge {u}-{v}: ") for line in report)

    def test_wrong_topology_flagged(self):
        edges = [(0, 1, 1), (1, 2, 5)]
        bad = CutTree((0, 1, 2), ((0, 2, 1), (2, 1, 5)))
        assert validate_cut_tree(bad, 3, edges) != []

    def test_side_that_is_no_minimum_cut_flagged(self):
        # every weight is its side's cut, but {1} is no minimum 0-1 cut
        edges = [(0, 1, 5), (1, 2, 1)]
        bad = CutTree((0, 1, 2), ((0, 1, 6), (0, 2, 1)))
        assert validate_cut_tree(bad, 3, edges) == [
            "edge 0-1: tree weight 6 but min cut 5"]


def all_pairs_holds(t, n, edges):
    """The all-pairs certificate: every pair's tree path minimum equals its
    max-flow, F(F-1)/2 max-flows."""
    return all(path_min(t, x, y) == max_flow_min_cut(n, edges, x, y)[0]
               for x, y in itertools.combinations(t.nodes, 2))


@st.composite
def side_weighted_trees(draw):
    """``(n, edges, tree)``: a multigraph and a random spanning tree over
    its vertices, each tree edge weighted by the cut of its side."""
    n, edges = draw(multigraphs())
    order = draw(st.permutations(range(n)))
    pairs = [(order[draw(st.integers(0, i - 1))], order[i])
             for i in range(1, n)]
    t = CutTree(tuple(range(n)), tuple((u, v, 0) for u, v in pairs))
    return n, edges, t.with_weights([
        sum(w for a, b, w in edges if (a in side) != (b in side))
        for side in t.bipartitions()])


@settings(max_examples=300, deadline=None)
@given(side_weighted_trees())
def test_edge_certificate_matches_all_pairs(case):
    n, edges, t = case
    assert (validate_cut_tree(t, n, edges) == []) == \
        all_pairs_holds(t, n, edges)


class TestFromJson:
    def test_round_trip(self):
        t = CutTree((0, 1, 2), ((0, 1, 3), (1, 2, 0)), "0123abcd")
        assert CutTree.from_json(t.to_json()) == t
        assert hash(CutTree.from_json(t.to_json())) == hash(t)

    @pytest.mark.parametrize("text, message", [
        ('[]', 'must be an object with "nodes" and "edges" lists'),
        ('{"nodes": [0, 0], "edges": []}', "distinct integers"),
        ('{"nodes": [0, 1], "edges": [[0, 1]]}', "is not an integer [u, v, w]"),
        ('{"nodes": [0, 1], "edges": [[0, 1, -1]]}', "negative weight"),
        ('{"nodes": [0, 1], "edges": [[0, 2, 1]]}', "does not hold"),
        ('{"nodes": [0, 1], "edges": [[0, 1, 1], [1, 0, 1]]}',
         "closes a cycle"),
        ('{"nodes": [0, 1, 2], "edges": [[0, 1, 1]]}', "do not span"),
        ('{"nodes": [0, 1], "edges": [[0, 1, 1]], "host_checksum": [1, 2]}',
         '"host_checksum" [1, 2] is not a string'),
        ('{"nodes": [0, 1], "edges": [[0, 1, 1]], "host_checksum": 7}',
         '"host_checksum" 7 is not a string'),
    ])
    def test_rejects(self, text, message):
        with pytest.raises(QueryInputError, match=re.escape(message)):
            CutTree.from_json(text)
