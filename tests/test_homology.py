import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from surfcut import gen
from surfcut.embed import (
    OpenCurve,
    cut_along_curves,
    edge_of,
    trace_faces,
    twin,
    uncross_walk,
)
from surfcut.errors import CurveShapeError, NoPathError, SeparatingCutError
from surfcut.homology import (
    boundary_vertices,
    homology_basis,
    tight_cycle_walk,
    tight_path,
)
from surfcut.oracle import (
    boundary_of_faces,
    cut_along,
    dual_path,
    subgraph_signature,
)
from surfcut.reduction import _cut_cycle, _inherited_signatures

ROW0 = frozenset({0, 1, 2})
COL0 = frozenset({9, 12, 15})


def even_subsets(g, rng, count):
    """Random even edge subsets built from face boundaries and basis cycles."""
    basis = homology_basis(g)
    pool = [boundary_of_faces({f}, g) for f in range(g.face_count)]
    pool.extend(basis.primal_cycles)
    out = []
    for _ in range(count):
        x = frozenset()
        for piece in rng.sample(pool, rng.randint(1, min(4, len(pool)))):
            x = x ^ piece
        out.append(x)
    return out


@st.composite
def surfaces(draw):
    """Torus grids k=2..4, the same with a handle edge (genus 2), or the
    one-vertex double torus (self-loops only); weights all 1, 1..3 or
    1..100."""
    kind = draw(st.sampled_from(["torus", "handle", "loops"]))
    if kind == "loops":
        g = gen.double_torus_one_vertex()
    else:
        g = gen.torus_grid(draw(st.integers(2, 4)))
        if kind == "handle":
            g = gen.add_edge_between_faces(
                g, 0, draw(st.integers(1, g.face_count - 1)))
    top = draw(st.sampled_from([1, 3, 100]))
    return g.with_weights(draw(st.lists(st.integers(1, top),
                                        min_size=g.edge_count,
                                        max_size=g.edge_count)))


class TestBasis:
    def test_planar_empty(self):
        basis = homology_basis(gen.planar_triangulation(7, seed=1))
        assert basis.genus == 0
        assert basis.primal_cycles == ()
        assert all(s == 0 for s in basis.edge_signature)

    def test_torus_grid(self):
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        assert basis.genus == 1
        assert len(basis.primal_cycles) == 2
        sigs = {subgraph_signature(ROW0, basis),
                subgraph_signature(COL0, basis)}
        assert sigs == {1, 2}
        # all three parallel rows are homologous
        assert subgraph_signature(frozenset({3, 4, 5}), basis) == \
            subgraph_signature(ROW0, basis)

    def test_unit_vectors(self):
        for make in (lambda: gen.torus_grid(3, seed=3),
                     gen.double_torus_one_vertex,
                     lambda: gen.add_edge_between_faces(gen.torus_grid(3), 0, 4)):
            basis = homology_basis(make())
            for i, cyc in enumerate(basis.primal_cycles):
                assert subgraph_signature(cyc, basis) == 1 << i

    def test_face_boundaries_null(self):
        g = gen.torus_grid(4, seed=5)
        basis = homology_basis(g)
        for f in range(g.face_count):
            assert subgraph_signature(boundary_of_faces({f}, g), basis) == 0

    def test_linearity(self):
        g = gen.torus_grid(3, seed=9)
        basis = homology_basis(g)
        rng = random.Random(0)
        xs = even_subsets(g, rng, 12)
        for x in xs:
            for y in xs[:4]:
                assert subgraph_signature(x ^ y, basis) == \
                    subgraph_signature(x, basis) ^ \
                    subgraph_signature(y, basis)


class TestExtended:
    def test_path_bit(self):
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        a, b = 0, 4
        bits, ext = subgraph_signature(ROW0, basis, ab=(a, b))
        path = dual_path(basis, a, b)
        assert ext == len(ROW0 & path) % 2
        bits2, ext2 = subgraph_signature(frozenset(), basis, ab=(a, b))
        assert (bits2, ext2) == (0, 0)

    def test_bit_detects_separation(self):
        # for a null-homologous subgraph the bit is independent of the path
        # choice: boundary_of_faces(fs) separates a from b iff exactly one of
        # them lies in fs
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        for fs in ({0}, {0, 1}, {2, 5, 7}):
            x = boundary_of_faces(fs, g)
            for a in range(g.face_count):
                for b in range(a + 1, g.face_count):
                    _, ext = subgraph_signature(x, basis, ab=(a, b))
                    assert ext == ((a in fs) != (b in fs))


class TestNullHomology:
    def test_boundaries(self):
        g = gen.torus_grid(3, seed=4)
        basis = homology_basis(g)
        assert subgraph_signature(boundary_of_faces({0, 1}, g), basis) == 0
        assert subgraph_signature(ROW0, basis) != 0

    def test_matches_face_subset_search(self):
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        rng = random.Random(7)
        boundaries = set()
        for mask in range(1, 2 ** g.face_count - 1):
            fs = {f for f in range(g.face_count) if mask >> f & 1}
            boundaries.add(boundary_of_faces(fs, g))
        for x in even_subsets(g, rng, 15):
            if not x:
                continue
            assert (subgraph_signature(x, basis) == 0) == (x in boundaries)

    def test_homologous_difference(self):
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        assert subgraph_signature(ROW0 ^ frozenset({3, 4, 5}), basis) == 0


class TestTightCycle:
    def test_unit_grid_table(self):
        g = gen.torus_grid(3)
        basis = homology_basis(g)
        r = subgraph_signature(ROW0, basis)
        c = subgraph_signature(COL0, basis)
        walks, _ = tight_cycle_walk(g, basis)
        weights = {h: sum(g.weight(e) for e in walks[h].edge_set())
                   for h in range(1, 4)}
        assert weights[r] == 3
        assert weights[c] == 3
        assert weights[r ^ c] == 6

    @settings(max_examples=30, deadline=None)
    @given(surfaces())
    def test_class_zero_is_reported_missing(self, g):
        # no search serves class 0; its cycles separate the surface
        basis = homology_basis(g)
        walks, missing = tight_cycle_walk(g, basis)
        assert 0 not in walks
        assert missing[0] == "null-homologous, separates the surface"

    def test_matches_exhaustive_on_loops(self):
        g = gen.double_torus_one_vertex().with_weights([1, 2, 3, 4])
        basis = homology_basis(g)
        # every subset of loops at the single vertex is a closed walk
        best = {}
        for mask in range(1, 16):
            edges = [e for e in range(4) if mask >> e & 1]
            h = subgraph_signature(edges, basis)
            w = sum(g.weight(e) for e in edges)
            if h not in best or w < best[h]:
                best[h] = w
        walks, _ = tight_cycle_walk(g, basis)
        for h, w in best.items():
            if h == 0:
                continue
            assert sum(g.weight(e) for e in walks[h].edge_set()) == w

    def test_signature_of_result(self):
        g = gen.torus_grid(4, seed=13)
        basis = homology_basis(g)
        walks, missing = tight_cycle_walk(g, basis)
        assert list(missing) == [0]
        for h in range(1, 4):
            assert subgraph_signature(walks[h].edge_set(), basis) == h


def one_path(h, f1, f2, sigs, target):
    paths, _ = tight_path(h, f1, f2, sigs, [target])
    return paths[target]


class TestTightPath:
    def cut_grid(self, weights=None):
        g = gen.torus_grid(3, weights=weights)
        h = cut_along(g, ROW0)
        f1, f2 = sorted(h.boundary_faces)
        sigs = [0] * h.edge_count
        return g, h, f1, f2, sigs

    def test_planar_cut_shortest(self):
        g, h, f1, f2, sigs = self.cut_grid()
        darts, w = one_path(h, f1, f2, sigs, 0)
        assert w == 3
        assert len(darts) == 3

    def test_weight_monotonicity(self):
        g, h, f1, f2, sigs = self.cut_grid()
        _, w = one_path(h, f1, f2, sigs, 0)
        bumped = h.with_weights([wt + 1 for _, _, wt in h.edges])
        _, w2 = one_path(bumped, f1, f2, sigs, 0)
        assert w2 == w + 3

    def test_inherited_classes(self):
        g, h, f1, f2, _ = self.cut_grid()
        basis = homology_basis(g)
        sigs = [basis.edge_signature[h.origin_edge_map[e]]
                for e in range(h.edge_count)]
        paths, _ = tight_path(h, f1, f2, sigs, range(4))
        found = {}
        for target, (darts, w) in paths.items():
            acc = 0
            for d in darts:
                acc ^= sigs[d // 2]
            assert acc == target
            found[target] = w
        assert min(found.values()) == 3

    def test_nonempty(self):
        g, h, f1, f2, sigs = self.cut_grid()
        darts, w = one_path(h, f1, f2, sigs, 0)
        assert len(darts) >= 1
        assert w > 0

    def test_boundary_vertices(self):
        g = gen.torus_grid(3)
        h = cut_along(g, ROW0)
        f1, f2 = sorted(h.boundary_faces)
        assert len(boundary_vertices(h, f1)) == 3
        assert len(boundary_vertices(h, f2)) == 3


# -- the per-class searches the batched ones replaced, kept as the oracle ----

def _dart_steps(g):
    out = {}
    for v, rot in enumerate(g.rotations):
        out[v] = [(d, edge_of(d), g.edges[edge_of(d)][2]) for d in rot]
    return out


def per_class_tight_cycle_walk(g, basis, h):
    """One class's tight cycle, from the same start edges as the batched
    search (those with a nonzero signature), rotated to start at dart 2e of
    its lowest edge e."""
    moves = _dart_steps(g)
    sig = basis.edge_signature
    best = None
    for e0 in range(g.edge_count):
        if not sig[e0]:
            continue
        u0, v0, w0 = g.edges[e0]
        if u0 == v0 and sig[e0] == h:
            if best is None or w0 < best[0]:
                best = (w0, [2 * e0])
            continue
        res = _closed_walk_from(g, moves, sig, 2 * e0, h,
                                best[0] if best else None)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    if best is None:
        raise NoPathError(f"no cycle with signature {h}")
    edges = [edge_of(d) for d in best[1]]
    if len(set(edges)) != len(edges):
        raise NoPathError(f"minimum closed walk in class {h} repeats an edge")
    walk = best[1]
    low = 2 * min(edges)
    if low not in walk:
        walk = [twin(d) for d in reversed(walk)]
    i = walk.index(low)
    return uncross_walk(g, walk[i:] + walk[:i])


def _closed_walk_from(g, moves, sig, d0, h, cap):
    e0 = edge_of(d0)
    start_v = g.dart_vertex(d0)
    w0 = g.edges[e0][2]
    start = (d0, sig[e0])
    dist = {start: w0}
    back = {start: None}
    heap = [(w0, d0, sig[e0])]
    while heap:
        w, d, s = heapq.heappop(heap)
        if w > dist.get((d, s), -1):
            continue
        if cap is not None and w >= cap:
            return None
        e = edge_of(d)
        head = g.dart_vertex(twin(d))
        if head == start_v and s == h and e != e0:
            walk = []
            state = (d, s)
            while state is not None:
                walk.append(state[0])
                state = back[state]
            walk.reverse()
            return (w, walk)
        for d2, e2, w2 in moves[head]:
            if e2 == e:
                continue
            s2 = s ^ sig[e2]
            nw = w + w2
            if nw < dist.get((d2, s2), float("inf")):
                dist[(d2, s2)] = nw
                back[(d2, s2)] = (d, s)
                heapq.heappush(heap, (nw, d2, s2))
    return None


def per_class_tight_path(h_graph, f_start, f_end, signatures, target):
    starts = set(boundary_vertices(h_graph, f_start))
    ends = set(boundary_vertices(h_graph, f_end))
    moves = _dart_steps(h_graph)
    dist = {}
    back = {}
    heap = []
    for v in sorted(starts):
        for d, e, w in moves[v]:
            state = (d, signatures[e])
            if w < dist.get(state, float("inf")):
                dist[state] = w
                back[state] = None
                heapq.heappush(heap, (w, d, signatures[e]))
    best = None
    while heap:
        w, d, s = heapq.heappop(heap)
        if w > dist.get((d, s), -1):
            continue
        e = edge_of(d)
        head = h_graph.dart_vertex(twin(d))
        if head in ends and s == target:
            best = (w, d, s)
            break
        for d2, e2, w2 in moves[head]:
            if e2 == e:
                continue
            s2 = s ^ signatures[e2]
            nw = w + w2
            if nw < dist.get((d2, s2), float("inf")):
                dist[(d2, s2)] = nw
                back[(d2, s2)] = (d, s)
                heapq.heappush(heap, (nw, d2, s2))
    if best is None:
        raise NoPathError(
            f"no boundary-to-boundary path with signature {target}")
    darts = []
    state = (best[1], best[2])
    while state is not None:
        darts.append(state[0])
        state = back[state]
    darts.reverse()
    edges = [edge_of(d) for d in darts]
    if len(set(edges)) != len(edges):
        raise NoPathError(f"minimum walk in class {target} repeats an edge")
    return tuple(darts), best[0]


def _outcome(search, *args):
    try:
        return search(*args)
    except NoPathError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(surfaces())
def test_batched_searches_match_per_class_searches(g):
    basis = homology_basis(g)
    classes = 1 << (2 * basis.genus)
    walks, missing = tight_cycle_walk(g, basis)
    assert sorted([*walks, *missing]) == list(range(classes))
    assert 0 in missing
    for h in range(1, classes):
        want = _outcome(per_class_tight_cycle_walk, g, basis, h)
        assert (walks[h] if h in walks else missing[h]) == want
    for h, walk in walks.items():
        try:
            cut, b1, b2 = _cut_cycle(g, walk)
        except (SeparatingCutError, CurveShapeError):
            continue
        sigs = _inherited_signatures(cut, basis)
        paths, no_path = tight_path(cut, b1, b2, sigs, range(classes))
        assert sorted([*paths, *no_path]) == list(range(classes))
        for t in range(classes):
            want = _outcome(per_class_tight_path, cut, b1, b2, sigs, t)
            assert (paths[t] if t in paths else no_path[t]) == want


@settings(max_examples=30, deadline=None)
@given(surfaces())
def test_surgery_children_keep_their_traced_faces(g):
    """Each child of a cycle cut and of a cycle-path cut carries the face
    table surgery traced for it; it equals a fresh trace of the child."""
    basis = homology_basis(g)
    classes = 1 << (2 * basis.genus)
    walks, _ = tight_cycle_walk(g, basis)
    children = []
    for walk in walks.values():
        try:
            cut, b1, b2 = _cut_cycle(g, walk)
        except (SeparatingCutError, CurveShapeError):
            continue
        children.append(cut)
        sigs = _inherited_signatures(cut, basis)
        paths, _ = tight_path(cut, b1, b2, sigs, range(classes))
        for darts, _ in paths.values():
            try:
                children.append(
                    cut_along_curves(cut, [OpenCurve(darts, b1, b2)]))
            except (SeparatingCutError, CurveShapeError):
                continue
    for child in children:
        assert child.face_table() == trace_faces(child)
