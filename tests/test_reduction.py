import hashlib
import heapq
import os
import random
import re
import signal
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfcut import cuttree, gen, reduction, weights
from surfcut.embed import (
    EmbeddedGraph,
    cut_along_curves,
    dual,
    edge_of,
    side_of,
)
from surfcut.errors import CrossingCutsError, GenusLimitError, WorkerError
from surfcut.homology import homology_basis, tight_cycle_walk
from surfcut.oracle import (
    collection_min_cut,
    crosses,
    lifted_witness,
    min_face_cut,
    min_separating_subgraph_exhaustive,
    region_cuts,
    separates_faces,
)
from surfcut.merge import merged_collection_tree, project_member_tree
from surfcut.reduction import (
    Collection,
    answer_bound,
    expected_size,
    member_key,
    member_trees,
    planar_collection,
)


def build(g):
    coll = planar_collection(g)
    return coll, member_trees(coll)


class TestTightCyclesAll:
    def test_planar_empty(self):
        g = gen.planar_triangulation(5, seed=0)
        walks, missing = tight_cycle_walk(g, homology_basis(g))
        assert walks == {}
        assert list(missing) == [0]

    def test_torus_has_three_nonzero_classes(self):
        g = gen.torus_grid(3)
        walks, _ = tight_cycle_walk(g, homology_basis(g))
        assert sorted(walks) == [1, 2, 3]
        ws = sorted(len(c.edge_set()) for c in walks.values())
        assert ws == [3, 3, 6]


class TestPlanarCollection:
    def test_genus_zero_single_member(self):
        g = gen.planar_triangulation(6, seed=3)
        coll = planar_collection(g)
        assert len(coll) == 1
        m = coll.members[0]
        assert m.annotation == ()
        assert m.annotation_weight == 0
        assert coll.face_count == g.face_count
        assert m.dual == tuple((g.face_of(2 * e), g.face_of(2 * e + 1), w, e)
                               for e, (_, _, w) in enumerate(g.edges))
        # with no split and identity maps, labelled_dual is the dual plus
        # the edge ids, on a surface of positive genus too
        for h in (g, gen.torus_grid(3, seed=5)):
            same = {f: f for f in range(h.face_count)}
            assert reduction.labelled_dual(h, range(h.edge_count), same) == \
                tuple((x, y, w, e) for e, (x, y, w) in enumerate(dual(h)))

    def test_genus_one_twenty_slots(self):
        coll = planar_collection(gen.torus_grid(3))
        assert coll.attempted == expected_size(1) == 20
        assert 0 < len(coll) <= 20
        assert len(coll) + len([s for s in coll.skipped]) >= 4

    def test_members_are_planar_and_keep_faces(self):
        g = gen.torus_grid(4)
        coll = planar_collection(g)
        ordinary = set(g.ordinary_faces())
        for m in coll.members:
            faces = {f for x, y, _, _ in m.dual for f in (x, y)}
            assert faces & ordinary == ordinary
            assert faces - ordinary == set(range(len(ordinary), len(faces)))
            # Euler's formula for the cut graph: cutting along a closed walk
            # of k edges adds k vertices, along a path of k edges k + 1
            vertices = g.vertex_count + sum(
                len(c[1]) + (len(c[2]) + 1 if c[0] == "pair" else 0)
                for c in m.cuts)
            assert vertices - len(m.dual) + len(faces) == 2
            assert len(m.annotation) <= 1  # original genus

    def test_genus_limit(self):
        g = gen.add_edge_between_faces(
            gen.add_edge_between_faces(gen.torus_grid(3), 0, 4), 0, 1)
        assert g.genus == reduction.GENUS_MAX + 1
        with pytest.raises(GenusLimitError):
            planar_collection(g)


class TestCollectionMinCut:
    def test_same_face_rejected(self):
        coll, trees = build(gen.torus_grid(3))
        with pytest.raises(ValueError):
            collection_min_cut(coll, trees, 2, 2)

    @pytest.mark.parametrize("a, b, bad", [(0, 9, 9), (-1, 2, -1),
                                           (12, 3, 12)])
    def test_face_outside_the_original_faces_rejected(self, a, b, bad):
        coll, trees = build(gen.torus_grid(3))
        assert coll.face_count == 9
        with pytest.raises(KeyError, match=f"face {bad} is not an ordinary "
                           f"face of the original graph"):
            collection_min_cut(coll, trees, a, b)

    def test_unit_torus_matches_exhaustive(self):
        g = gen.torus_grid(3)
        coll, trees = build(g)
        faces = sorted(g.ordinary_faces())
        for i, a in enumerate(faces):
            for b in faces[i + 1:]:
                w, _ = collection_min_cut(coll, trees, a, b)
                _, want = min_separating_subgraph_exhaustive(g, a, b)
                assert w == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weighted_perturbed_matches_dual_oracle(self, seed):
        rng = random.Random(seed)
        k = 4
        w = [rng.randint(1, 100) for _ in range(2 * k * k)]
        g = gen.torus_grid(k, weights=w)
        coll, trees = build(weights.perturb_graph(g, seed=seed))
        faces = sorted(g.ordinary_faces())
        for a in faces:
            for b in faces:
                if a >= b:
                    continue
                val, _ = collection_min_cut(coll, trees, a, b)
                assert weights.restore(val, g.edge_count) == \
                    min_face_cut(g, a, b)[0]

    def test_genus_two_matches_dual_oracle(self):
        g1 = gen.torus_grid(2)
        f = sorted(g1.ordinary_faces())
        g = gen.add_edge_between_faces(g1, f[0], f[1])
        assert g.genus == 2
        coll = planar_collection(weights.perturb_graph(g, seed=5))
        trees = member_trees(coll)
        assert coll.attempted == expected_size(2)
        # class 0 is skipped without a surgery, one line per recursion node
        class0 = [s for s in coll.skipped if ": cycle class 0" in s]
        assert not [s for s in class0 if "cycle class 0 cut:" in s]
        assert len(class0) == len({s.split(": ")[0] for s in coll.skipped})
        faces = sorted(g.ordinary_faces())
        for i, a in enumerate(faces):
            for b in faces[i + 1:]:
                val, _ = collection_min_cut(coll, trees, a, b)
                assert weights.restore(val, g.edge_count) == \
                    min_face_cut(g, a, b)[0]

    def test_uniform_weight_shift(self):
        # with unit weights the answer equals the cut cardinality, so adding
        # a constant c to every edge weight scales each answer by (1 + c)
        g1 = gen.torus_grid(3)
        c1, t1 = build(g1)
        g4 = gen.torus_grid(3, weights=[4] * 18)
        c4, t4 = build(g4)
        faces = sorted(g1.ordinary_faces())
        for i, a in enumerate(faces):
            for b in faces[i + 1:]:
                card, _ = collection_min_cut(c1, t1, a, b)
                shifted, _ = collection_min_cut(c4, t4, a, b)
                assert shifted == 4 * card


class TestMemberInvariants:
    """Single-surgery separation lifting and non-crossing of winning pairs."""

    def setup_method(self):
        rng = random.Random(11)
        w = [rng.randint(1, 9) for _ in range(18)]
        self.base = gen.torus_grid(3, weights=w)
        self.g = weights.perturb_graph(self.base, seed=11)
        self.coll = planar_collection(self.g)
        self.trees = member_trees(self.coll)

    def test_lifted_cuts_separate_upstream(self):
        faces = sorted(self.g.ordinary_faces())
        for i, a in enumerate(faces):
            for b in faces[i + 1:]:
                _, mi = collection_min_cut(self.coll, self.trees, a, b)
                lifted = lifted_witness(self.coll.members[mi], a, b)
                assert separates_faces(lifted, self.g, a, b)

    def test_winner_matches_unique_optimum(self):
        # perturbed weights make the optimum unique, so the winning member's
        # lifted cut must be exactly the exhaustive optimum; when the winner
        # is a cycle member its annotation is inside the optimum, and when it
        # is a pair member neither curve of the pair crosses the optimum
        faces = sorted(self.g.ordinary_faces())
        kinds = set()
        for i, a in enumerate(faces):
            for b in faces[i + 1:]:
                val, mi = collection_min_cut(self.coll, self.trees, a, b)
                s, want = min_separating_subgraph_exhaustive(self.g, a, b)
                assert val == want
                member = self.coll.members[mi]
                lifted = lifted_witness(member, a, b)
                assert lifted == s
                for cut in member.cuts:
                    kinds.add(cut[0])
                    if cut[0] == "cycle":
                        assert cut[1] <= s
                    else:
                        _, c, p = cut
                        assert not crosses(c, s, self.g)
                        assert not crosses(p, s, self.g)
        assert kinds  # both member shapes exist across this instance


def random_torus(k, seed, low=1):
    rng = random.Random(seed)
    w = [rng.randint(low, 100) for _ in range(2 * k * k)]
    return weights.perturb_graph(gen.torus_grid(k, weights=w), seed=seed)


def random_handle2(seed):
    rng = random.Random(seed)
    g = gen.torus_grid(2, weights=[rng.randint(1, 100) for _ in range(8)])
    g = gen.add_edge_between_faces(g, 0, 2, rng.randint(1, 100))
    return weights.perturb_graph(g, seed=seed)


PRUNED = re.compile(r": cycle class \d+: annotation (\d+) exceeds answer "
                    r"bound (\d+)$")


class TestAnswerBoundPruning:
    """Leaving out cycle children whose annotation exceeds the answer bound
    changes no merged tree; it only drops members no answer comes from."""

    def test_bound_skips_dual_self_loops(self):
        # faces: a digon of edges 0 and 3 (degree 3), edges 0, 1, 2 plus the
        # pendant edge 4 on both sides (degree 8), edges 3, 1, 2 (degree 9);
        # counting the pendant's dual self-loop would give 9
        g = EmbeddedGraph(4, ((0, 1, 1), (1, 2, 3), (2, 0, 4), (0, 1, 2),
                              (2, 3, 50)),
                          ((0, 5, 6), (1, 7, 2), (3, 4, 8), (9,)))
        assert g.genus == 0 and g.face_count == 3
        assert answer_bound(g) == 8

    def test_bound_is_infinite_below_two_faces(self):
        assert answer_bound(gen.double_torus_one_vertex()) == float("inf")

    def compare(self, g, monkeypatch):
        """Pruned against unpruned collection of ``g``; returns the number of
        pruned cycle children."""
        bound = answer_bound(g)
        pruned = planar_collection(g)
        with monkeypatch.context() as m:
            m.setattr(reduction, "answer_bound", lambda h: float("inf"))
            full = planar_collection(g)
        assert pruned.attempted == full.attempted == expected_size(g.genus)
        assert not [s for s in full.skipped if PRUNED.search(s)]
        lines = [m for m in map(PRUNED.search, pruned.skipped) if m]
        for m in lines:
            assert int(m[2]) == bound < int(m[1])
        # exactly the members whose annotation exceeds the bound are gone
        assert [m.provenance for m in pruned.members] == [
            m.provenance for m in full.members
            if m.annotation_weight <= bound]
        tree = merged_collection_tree(member_trees(pruned))
        assert tree.to_json() == merged_collection_tree(
            member_trees(full)).to_json()
        assert max(w for _, _, w in tree.edges) <= bound
        return len(lines)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torus_matches_unpruned(self, k, seed, monkeypatch):
        self.compare(random_torus(k, seed), monkeypatch)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_handle2_matches_unpruned(self, seed, monkeypatch):
        assert self.compare(random_handle2(seed), monkeypatch) > 0

    def test_torus10_prunes(self, monkeypatch):
        assert self.compare(random_torus(10, 7, low=10), monkeypatch) == 3


def face_count(m):
    """The faces of a member: one past its highest dual label."""
    return 1 + max(max(x, y) for x, y, _, _ in m.dual)


def per_member_tree(m, base):
    """Each member's tree as built before members were keyed: Gomory-Hu on
    the member's own unsummed dual edges, with the ``base`` original faces
    as terminals and its annotation weight on every edge."""
    t = cuttree.gomory_hu(face_count(m), [(x, y, w) for x, y, w, _ in m.dual],
                          terminals=range(base))
    return t.with_weights([w + m.annotation_weight for _, _, w in t.edges])


def path_mins(t):
    """``oracle.path_min(t, x, y)`` for every ordered pair of nodes, one walk from
    each node."""
    adj = t.adjacency()
    out = {}
    for x in t.nodes:
        stack = [(x, None)]
        seen = {x}
        while stack:
            u, low = stack.pop()
            out[x, u] = low
            for v, w, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, w if low is None else min(low, w)))
    return out


@st.composite
def weighted_surfaces(draw):
    """``(kind, graph, perturbed)``: a torus grid k=2..4, the same grid with
    a handle edge, or the one-vertex double torus, with weights all 1, in
    1..3 or in 1..100, raw or perturbed."""
    kind = draw(st.sampled_from(["torus", "handle", "double"]))
    if kind == "double":
        g = gen.double_torus_one_vertex()
    else:
        k = draw(st.integers(2, 4))
        g = gen.torus_grid(k)
        if kind == "handle":
            g = gen.add_edge_between_faces(g, 0, k * k // 2)
    top = draw(st.sampled_from([1, 3, 100]))
    g = g.with_weights(draw(st.lists(
        st.integers(1, top), min_size=g.edge_count, max_size=g.edge_count)))
    perturbed = draw(st.booleans())
    if perturbed:
        g = weights.perturb_graph(g, draw(st.integers(0, 99)))
    return kind, g, perturbed


def all_start_tight_cycles(g, basis):
    """``{class: (weight, darts)}``: the cheapest non-backtracking closed
    walk of every nonzero class, from one homology-cover Dijkstra at every
    start edge, none pruned, ties to the earlier start: the oracle for
    starting only at signature edges."""
    sig = basis.edge_signature
    tail = {d: v for v, rot in enumerate(g.rotations) for d in rot}
    best = {}
    for e0, (u0, v0, w0) in enumerate(g.edges):
        h0 = sig[e0]
        if u0 == v0 and h0 and (h0 not in best or w0 < best[h0][0]):
            best[h0] = (w0, [2 * e0])
        start = (2 * e0, h0)
        dist, back = {start: w0}, {start: None}
        heap = [(w0, 2 * e0, h0)]
        while heap:
            w, d, s = heapq.heappop(heap)
            if w > dist[d, s]:
                continue
            head = tail[d ^ 1]
            if (head == u0 and d >> 1 != e0 and s
                    and (s not in best or w < best[s][0])):
                walk, state = [], (d, s)
                while state:
                    walk.append(state[0])
                    state = back[state]
                best[s] = (w, walk[::-1])
            for d2 in g.rotations[head]:
                if d2 >> 1 == d >> 1:
                    continue
                state = (d2, s ^ sig[d2 >> 1])
                nw = w + g.edges[d2 >> 1][2]
                if nw < dist.get(state, float("inf")):
                    dist[state], back[state] = nw, (d, s)
                    heapq.heappush(heap, (nw, *state))
    return best


@settings(max_examples=40, deadline=None)
@given(weighted_surfaces())
@example(("double", gen.double_torus_one_vertex(), False))
@example(("double", weights.perturb_graph(gen.double_torus_one_vertex(), 1),
          True))
def test_signature_starts_find_every_nonzero_class(case):
    """Starting only at signature edges loses no nonzero class: each walk
    has the weight of the all-start search's, and under the perturbation
    (no ties) the same edge set and the same verdict on repeated edges.
    Class 0 is reported missing, never returned."""
    _, g, perturbed = case
    basis = homology_basis(g)
    walks, missing = tight_cycle_walk(g, basis)
    want = all_start_tight_cycles(g, basis)
    assert 0 not in walks
    assert missing[0] == "null-homologous, separates the surface"
    repeats = {h for h, reason in missing.items() if "repeats" in reason}
    assert set(want) == set(walks) | repeats
    for h, walk in walks.items():
        edges = walk.edge_set()
        assert sum(g.weight(e) for e in edges) == want[h][0]
        if perturbed:
            assert edges == {d >> 1 for d in want[h][1]}
    if perturbed:
        for h in repeats:
            darts = want[h][1]
            assert len({d >> 1 for d in darts}) < len(darts)


class TestMemberTrees:
    def test_annotation_offset(self):
        # each member's tree is its key's Gomory-Hu tree over the original
        # faces, with the annotation weight on every edge
        coll = planar_collection(random_torus(3, 4))
        assert any(m.annotation_weight for m in coll.members)
        base = coll.face_count
        for m, t in zip(coll.members, member_trees(coll)):
            key_tree = cuttree.gomory_hu(face_count(m), member_key(m),
                                         terminals=range(base))
            assert t.nodes == key_tree.nodes == tuple(range(base))
            assert t.edges == tuple((u, v, w + m.annotation_weight)
                                    for u, v, w in key_tree.edges)

    @settings(max_examples=10, deadline=None)
    @given(weighted_surfaces())
    def test_keyed_trees_match_per_member_oracle(self, case):
        kind, g, perturbed = case
        coll = planar_collection(g)
        calls = []
        real = cuttree.gomory_hu

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            # one worker, so that every gomory_hu call is made and counted here
            mp.setattr(reduction, "available_cpus", lambda: 1)
            mp.setattr(cuttree, "gomory_hu", counted)
            trees = member_trees(coll)
        base = coll.face_count
        assert len(calls) == len({member_key(m) for m in coll.members})
        if kind == "handle":
            assert len(calls) < len(coll)
        oracle = [per_member_tree(m, base) for m in coll.members]
        for t, o in zip(trees, oracle):
            assert path_mins(t) == path_mins(o)
        if perturbed:
            for t, o in zip(trees, oracle):
                assert (region_cuts(project_member_tree(t))
                        == region_cuts(project_member_tree(o)))
            assert (merged_collection_tree(trees).to_json()
                    == merged_collection_tree(oracle).to_json())


def handle_grid(k):
    return gen.add_edge_between_faces(gen.torus_grid(k), 0, k * k // 2)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_cpus(monkeypatch, cpus, build, arg):
    """``build(arg)`` as if ``cpus`` CPUs were available, and the number of
    children it forked.  A fork inside a forked worker fails the worker."""
    forks = []
    parent, real_fork = os.getpid(), os.fork

    def fork():
        assert os.getpid() == parent, "a forked worker forked"
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as mp:
        mp.setattr(reduction, "available_cpus", lambda: cpus)
        mp.setattr(os, "fork", fork)
        out = build(arg)
    assert_no_child()
    return out, len(forks)


SURFACES = pytest.mark.parametrize(
    "g", [gen.torus_grid(k) for k in (3, 4, 5, 6)]
    + [handle_grid(2), handle_grid(3), gen.double_torus_one_vertex()],
    ids=["torus3", "torus4", "torus5", "torus6", "handle2", "handle3",
         "double"])


def weighted(g, perturbed):
    """``g`` with random weights 1..9, perturbed with seed 5 if asked."""
    rng = random.Random(g.edge_count)
    g = g.with_weights([rng.randint(1, 9) for _ in range(g.edge_count)])
    return weights.perturb_graph(g, seed=5) if perturbed else g


def fail_in_parent():
    raise GenusLimitError("raised in the parent")


class Unpicklable:
    WHY = "stays in its process"

    def __reduce__(self):
        raise TypeError(self.WHY)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedMemberTrees:
    """Member trees built in forked workers equal the one-worker trees, a
    worker's failure comes back typed, and no child outlives a build."""

    @pytest.mark.parametrize("perturbed", [False, True])
    @SURFACES
    def test_forked_trees_equal_one_worker(self, monkeypatch, g, perturbed):
        coll = planar_collection(weighted(g, perturbed))
        keys = len({member_key(m) for m in coll.members})
        one, forks = with_cpus(monkeypatch, 1, member_trees, coll)
        assert forks == 0
        many, forks = with_cpus(monkeypatch, 4, member_trees, coll)
        assert forks == min(4, keys) - 1
        assert many == one

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        coll = planar_collection(random_torus(3, 1))
        want, _ = with_cpus(monkeypatch, 1, member_trees, coll)
        monkeypatch.setattr(reduction, "available_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert member_trees(coll) == want

    def test_worker_error_keeps_its_type(self, monkeypatch, in_children):
        def cross():
            raise CrossingCutsError("raised in a worker")

        coll = planar_collection(random_torus(3, 1))
        monkeypatch.setattr(cuttree, "gomory_hu",
                            in_children(cuttree.gomory_hu, cross))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        with pytest.raises(CrossingCutsError, match="raised in a worker"):
            member_trees(coll)
        assert_no_child()

    @pytest.mark.parametrize("action, status", [
        (lambda: os._exit(7), "exited with status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"killed by signal {int(signal.SIGKILL)}"),
    ], ids=["exit", "killed"])
    def test_worker_death_raises(self, monkeypatch, in_children, action,
                                 status):
        coll = planar_collection(random_torus(3, 1))
        monkeypatch.setattr(cuttree, "gomory_hu",
                            in_children(cuttree.gomory_hu, action))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        with pytest.raises(WorkerError, match=status):
            member_trees(coll)
        assert_no_child()

    @pytest.mark.parametrize("raises, what", [
        (False, "its result"),
        (True, "the CrossingCutsError it raised"),
    ], ids=["returned", "raised"])
    def test_unpicklable_outcome_raises(self, monkeypatch, in_children,
                                        raises, what):
        def fn(x):
            if os.getpid() == parent:
                return x
            if raises:
                raise CrossingCutsError(Unpicklable())
            return Unpicklable()

        parent = os.getpid()
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        with pytest.raises(WorkerError, match=(
                f"could not pickle {what}: TypeError: {Unpicklable.WHY}")):
            reduction._forked_map(in_children(fn, lambda: None), [0, 1],
                                  worker="member-tree", sends="trees")
        assert_no_child()

    def test_parent_failure_reaps_workers(self, monkeypatch, in_parent):
        coll = planar_collection(random_torus(4, 2))
        monkeypatch.setattr(cuttree, "gomory_hu",
                            in_parent(cuttree.gomory_hu, fail_in_parent))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 4)
        with pytest.raises(GenusLimitError):
            member_trees(coll)
        assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedMap:
    """The pool runs every item once, some of them in forked workers, and
    returns the results in item order."""

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_items_run_once_in_order(self, monkeypatch, in_children, cpus):
        items = list(range(300))        # more than one byte can index
        ran_r, ran_w = os.pipe()

        def fn(x):
            os.write(ran_w, x.to_bytes(2, "big"))
            return x, os.getpid()

        monkeypatch.setattr(reduction, "available_cpus", lambda: cpus)
        try:
            out = reduction._forked_map(in_children(fn, lambda: None), items,
                                        worker="member-tree", sends="trees")
        finally:
            os.close(ran_w)
        with os.fdopen(ran_r, "rb") as fh:
            ran = fh.read()
        assert_no_child()
        assert [x for x, _ in out] == items
        assert sorted(int.from_bytes(ran[i:i + 2], "big")
                      for i in range(0, len(ran), 2)) == items
        assert any(pid != os.getpid() for _, pid in out)

    def test_pipe_holds_every_member_slot(self, monkeypatch):
        # every item index is written before the fork; past the pipe's
        # buffer that write would block for good, so a minute is a failure
        def timeout(*_):
            raise TimeoutError("the item pipe's buffer is too small")

        items = range(expected_size(reduction.GENUS_MAX))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            out = reduction._forked_map(abs, items, worker="member-tree",
                                        sends="trees")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert out == list(items)
        assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedCollection:
    """The root's classes opened in forked workers give the one-worker
    collection in order, nothing below the root or at a genus-1 root forks,
    a worker's failure comes back typed, and no child outlives a build."""

    @pytest.mark.parametrize("perturbed", [False, True])
    @SURFACES
    def test_forked_collection_equals_one_worker(self, monkeypatch, g,
                                                 perturbed):
        g = weighted(g, perturbed)
        walks, _ = tight_cycle_walk(g, homology_basis(g))
        one, forks = with_cpus(monkeypatch, 1, planar_collection, g)
        assert forks == 0
        many, forks = with_cpus(monkeypatch, 4, planar_collection, g)
        # a genus-1 root opens its classes in the build's own process
        assert forks == (min(4, len(walks)) - 1 if g.genus > 1 else 0)
        assert many.members == one.members
        assert many.attempted == one.attempted
        assert many.skipped == one.skipped
        assert many.face_count == one.face_count

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        g = random_handle2(1)
        want, _ = with_cpus(monkeypatch, 1, planar_collection, g)
        monkeypatch.setattr(reduction, "available_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert planar_collection(g) == want

    def test_worker_error_keeps_its_type(self, monkeypatch, in_children):
        def cross():
            raise CrossingCutsError("raised in a collection worker")

        monkeypatch.setattr(reduction, "tight_path",
                            in_children(reduction.tight_path, cross))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        with pytest.raises(CrossingCutsError,
                           match="raised in a collection worker"):
            planar_collection(random_handle2(1))
        assert_no_child()

    @pytest.mark.parametrize("action, status", [
        (lambda: os._exit(7), "exited with status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"was killed by signal {int(signal.SIGKILL)}"),
    ], ids=["exit", "killed"])
    def test_worker_death_raises(self, monkeypatch, in_children, action,
                                 status):
        monkeypatch.setattr(reduction, "tight_path",
                            in_children(reduction.tight_path, action))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        with pytest.raises(WorkerError, match=(
                rf"^collection worker \d+ {status} without sending its "
                rf"members$")):
            planar_collection(random_handle2(1))
        assert_no_child()

    def test_parent_failure_reaps_workers(self, monkeypatch, in_parent):
        monkeypatch.setattr(reduction, "tight_path",
                            in_parent(reduction.tight_path, fail_in_parent))
        monkeypatch.setattr(reduction, "available_cpus", lambda: 4)
        with pytest.raises(GenusLimitError):
            planar_collection(random_handle2(2))
        assert_no_child()


class TestPairDerivation:
    """A pair member whose cycle cut has genus 0 is derived from the cut
    graph's dual; cutting along its path gives the same dual edges."""

    @settings(max_examples=10, deadline=None)
    @example(("double", gen.double_torus_one_vertex(), False))
    @example(("handle", handle_grid(2), False))
    @example(("torus", gen.torus_grid(3), False))
    @given(weighted_surfaces())
    def test_derived_duals_match_the_surgery(self, case):
        _, g, _ = case
        checked, derived = [], []
        real_check, real_dual = reduction.check_curves, reduction.labelled_dual

        def check(h, curves):
            out = real_check(h, curves)
            checked.append(curves[0])
            return out

        def labelled(h, edge_map, face_map, split=None):
            out = real_dual(h, edge_map, face_map, split)
            if split is not None:
                derived.append((h, edge_map, face_map, split, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            # one worker, so that every call is made and recorded here
            mp.setattr(reduction, "available_cpus", lambda: 1)
            mp.setattr(reduction, "check_curves", check)
            mp.setattr(reduction, "labelled_dual", labelled)
            coll = planar_collection(g)
        pairs = [m for m in coll.members if m.cuts[-1][0] == "pair"]
        assert len(pairs) == len(checked) == len(derived)
        for m, curve, (cut, em, fm, split, d) in zip(pairs, checked, derived):
            b1, b2, path = split
            assert m.dual == d
            assert (curve.start_face, curve.end_face) == (b1, b2)
            assert path == curve.edge_set()
            # the labels of the cut graph's faces, b1 and b2 merged
            label = {}
            for i, (x, y, _, _) in enumerate(real_dual(cut, em, fm,
                                                       (b1, b2, ()))):
                label[cut.face_of(2 * i)] = x
                label[cut.face_of(2 * i + 1)] = y
            # the surgery the derivation skips; it must not fail once the
            # path passed the checks
            both = cut_along_curves(cut, [curve])
            assert both.genus == 0
            # a face of the cut graph keeps its darts; the one fresh face,
            # the merged boundary, takes the label of b1 and b2
            old = {frozenset(c): f for f, c in enumerate(cut.faces())}
            oem = both.origin_edge_map
            relabel, fresh = {}, 0
            for f, darts in enumerate(both.faces()):
                key = frozenset(2 * oem[edge_of(x)] + side_of(x)
                                for x in darts)
                fresh += key not in old
                relabel[f] = label[old.get(key, b1)]
            assert fresh == 1
            want = [(relabel[both.face_of(2 * i)],
                     relabel[both.face_of(2 * i + 1)], w, em[oem[i]])
                    for i, (_, _, w) in enumerate(both.edges)]
            assert Counter(m.dual) == Counter(want)


def collection_digest(coll):
    """sha256 of a collection: every member's dual, annotation weight,
    provenance, annotation and cuts, with edge sets as sorted tuples, then
    ``attempted``, the skip lines and ``face_count``."""
    def edges(s):
        return tuple(sorted(s))
    members = [(m.dual, m.annotation_weight, m.provenance,
                tuple(map(edges, m.annotation)),
                tuple((kind, *map(edges, sets)) for kind, *sets in m.cuts))
               for m in coll.members]
    fields = (members, coll.attempted, coll.skipped, coll.face_count)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestGoldenCollection:
    """Whole collections pinned by hash, perturbation seed 7, one worker, so
    a change to surgery, the searches or the recursion that moves any
    member, slot or skip line fails here and not only in the artifacts."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: gen.torus_grid(4, seed=1),
         "5810dbc1372d9d51eb5f716386bef27b0608be433f9fefcf4f2704e902338771"),
        (lambda: gen.add_edge_between_faces(gen.torus_grid(3), 0, 4),
         "4002103855f10ff7c26fadc86d0c8a2d2c2ca6760660fb3b3ed9a70cee3af792"),
        # the belt handle of CI's cross-kernel and one-CPU builds
        (lambda: gen.add_edge_between_faces(
            gen.belt_torus(5, [1, 3], seed=5), 0, 12, 75),
         "e8fedf70c135fd5680394cd92b3afcd011bc9df15dd169670a53b741ce59de03"),
        (lambda: gen.belt_torus(6, [0, 3], seed=6),
         "9e70dee489c01f92e0b8e4fb4c18bcce0b2962a9084dbf17009b2bc670859aed"),
        (gen.double_torus_one_vertex,
         "4d971d08a5748a4b080f62343a441b0e434a372d82c9dccb78fe8297f82086de"),
    ], ids=["torus4", "handle3", "belt-handle5", "belt6", "double"])
    def test_collection(self, monkeypatch, make, digest):
        monkeypatch.setattr(reduction, "available_cpus", lambda: 1)
        coll = planar_collection(weights.perturb_graph(make(), 7))
        assert collection_digest(coll) == digest
