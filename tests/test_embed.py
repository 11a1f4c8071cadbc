import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from surfcut import cli, embed, gen
from surfcut.embed import (
    ClosedCurve,
    EmbeddedGraph,
    OpenCurve,
    check_curves,
    cut_along_curves,
    dual,
    format_graph,
    parse_graph,
    uncross_walk,
)
from surfcut.errors import CurveShapeError, GraphFormatError, SeparatingCutError
from surfcut.oracle import (
    boundary_of_faces,
    crosses,
    curves_from_edge_set,
    cut_along,
)

ROW0 = frozenset({0, 1, 2})        # wraparound row cycle in the 3x3 torus grid
COL0 = frozenset({9, 12, 15})      # wraparound column cycle through vertex 0


def euler_ok(g):
    return g.vertex_count - g.edge_count + g.face_count == 2 - 2 * g.genus


def edge_ends(d, n):
    """How many dual edge ends sit on each of the n faces."""
    ends = Counter(f for x, y, _ in d for f in (x, y))
    return [ends[f] for f in range(n)]


class TestFacesAndGenus:
    def test_triangle(self):
        g = gen.triangle()
        assert g.face_count == 2
        assert g.genus == 0

    def test_k4(self):
        g = gen.k4()
        assert g.vertex_count == 4
        assert g.edge_count == 6
        assert g.face_count == 4
        assert g.genus == 0
        assert all(len(f) == 3 for f in g.faces())

    def test_self_loop_sphere(self):
        g = EmbeddedGraph(1, ((0, 0, 1),), ((0, 1),))
        assert g.face_count == 2
        assert g.genus == 0

    def test_torus_grid(self):
        g = gen.torus_grid(3)
        assert g.vertex_count == 9
        assert g.edge_count == 18
        assert g.face_count == 9
        assert g.genus == 1
        assert all(len(f) == 4 for f in g.faces())

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_torus_grid_sizes(self, k):
        g = gen.torus_grid(k, seed=7)
        assert g.genus == 1
        assert euler_ok(g)

    def test_double_torus(self):
        g = gen.double_torus_one_vertex()
        assert g.face_count == 1
        assert g.genus == 2

    def test_added_handle(self):
        g = gen.torus_grid(3)
        g2 = gen.add_edge_between_faces(g, 0, 4)
        assert g2.genus == 2
        assert euler_ok(g2)

    @pytest.mark.parametrize("n,seed", [(5, 1), (6, 2), (7, 3)])
    def test_triangulations(self, n, seed):
        g = gen.planar_triangulation(n, seed)
        assert g.vertex_count == n
        assert g.edge_count == 3 * n - 6
        assert g.genus == 0
        assert euler_ok(g)


class TestDual:
    def test_k4_dual(self):
        g = gen.k4()
        d = dual(g)
        assert (g.face_count, len(d)) == (4, 6)
        assert edge_ends(d, 4) == [3] * 4

    def test_torus_grid_self_dual(self):
        g = gen.torus_grid(3)
        d = dual(g)
        assert (g.face_count, len(d)) == (9, 18)
        assert edge_ends(d, 9) == [4] * 9

    @pytest.mark.parametrize("make", [
        lambda: gen.torus_grid(3, seed=5),
        lambda: gen.planar_triangulation(7, 9),
        gen.k4,
        gen.double_torus_one_vertex,
    ])
    def test_genus_and_weights_preserved(self, make):
        """One entry per edge, in edge order with its weight, over the faces
        either side of it, cached on the graph."""
        g = make()
        d = dual(g)
        assert d == tuple((g.face_of(2 * e), g.face_of(2 * e + 1), w)
                          for e, (_, _, w) in enumerate(g.edges))
        assert dual(g) is d

    def test_reweighted_copy_shares_faces_not_dual(self):
        g = gen.torus_grid(3, seed=5)
        d = dual(g)
        h = g.with_weights([w + 1 for _, _, w in g.edges])
        assert h.face_table() is g.face_table()
        assert dual(h) is not d
        assert dual(h) == tuple((x, y, w + 1) for x, y, w in d)
        # a copy made before any face was traced traces its own
        k = EmbeddedGraph(4, gen.k4().edges, gen.k4().rotations)
        k2 = k.with_weights([2] * k.edge_count)
        assert k2.face_table() is not k.face_table()
        assert k2.face_table() == k.face_table()

    def test_build_traces_the_input_faces_once(self, monkeypatch):
        g = parse_graph(format_graph(gen.planar_triangulation(20, 1)))
        traced = []
        real = embed.trace_faces
        monkeypatch.setattr(embed, "trace_faces",
                            lambda h: traced.append(h) or real(h))
        cli.build_tree(g, 3)
        assert traced == [g]


class TestBoundaryOfFaces:
    def test_single_face(self):
        g = gen.k4()
        b = boundary_of_faces({0}, g)
        assert b == frozenset(edge for edge in range(6)
                              if g.face_of(2 * edge) == 0
                              or g.face_of(2 * edge + 1) == 0)
        assert len(b) == 3

    def test_complement_symmetry(self):
        g = gen.torus_grid(3)
        fs = {0, 1, 4}
        comp = set(range(g.face_count)) - fs
        assert boundary_of_faces(fs, g) == boundary_of_faces(comp, g)

    def test_all_but_one(self):
        g = gen.k4()
        fs = set(range(g.face_count)) - {2}
        assert boundary_of_faces(fs, g) == boundary_of_faces({2}, g)

    def test_empty_rejected(self):
        g = gen.k4()
        with pytest.raises(ValueError):
            boundary_of_faces(set(), g)
        with pytest.raises(ValueError):
            boundary_of_faces(set(range(g.face_count)), g)


class TestCutAlong:
    def test_torus_row_cut(self):
        g = gen.torus_grid(3)
        h = cut_along(g, ROW0)
        assert h.genus == 0
        assert len(h.boundary_faces) == 2
        assert h.edge_count == 21
        assert h.vertex_count == 12
        assert euler_ok(h)
        ordinary = h.ordinary_faces()
        assert len(ordinary) == 9
        mapped = [h.origin_face_map[f] for f in ordinary]
        assert sorted(mapped) == list(range(9))

    def test_torus_column_cut(self):
        g = gen.torus_grid(3)
        h = cut_along(g, COL0)
        assert h.genus == 0
        assert len(h.boundary_faces) == 2
        assert h.edge_count == 21

    def test_face_boundary_cut_separates(self):
        g = gen.k4()
        with pytest.raises(SeparatingCutError):
            cut_along(g, boundary_of_faces({0}, g))

    def test_origin_edge_map(self):
        g = gen.torus_grid(3)
        h = cut_along(g, ROW0)
        for e in range(18):
            assert h.origin_edge_map[e] == e
        copies = sorted(h.origin_edge_map[e] for e in range(18, 21))
        assert copies == sorted(ROW0)
        for e, (u, v, w) in enumerate(h.edges):
            assert w == g.weight(h.origin_edge_map[e])

    def test_reweighted_cut_keeps_what_surgery_handed_back(self):
        cut = cut_along_curves(gen.torus_grid(3, seed=1),
                               [ClosedCurve((6, 8, 10))])
        heavy = cut.with_weights([w + 1 for _, _, w in cut.edges])
        assert heavy.origin_edge_map == cut.origin_edge_map
        assert heavy.origin_face_map == cut.origin_face_map
        assert heavy.new_boundary_faces == cut.new_boundary_faces
        assert len(heavy.new_boundary_faces) == 2
        assert type(heavy.boundary_faces) is frozenset
        assert heavy.boundary_faces == cut.boundary_faces
        assert heavy.face_table() is cut.face_table()

    def test_cut_then_path_gives_disk(self):
        g = gen.torus_grid(3)
        h = cut_along(g, ROW0)
        # column through vertex 0 becomes a boundary-to-boundary path in h
        darts = (18, 24, 30)
        starts = {h.dart_vertex(18)}
        ends = {h.dart_head(30)}
        f0 = next(f for f in h.boundary_faces
                  if any(h.dart_vertex(d) in starts for d in h.faces()[f]))
        f1 = next(f for f in h.boundary_faces
                  if any(h.dart_vertex(d) in ends for d in h.faces()[f]))
        assert f0 != f1
        disk = cut_along_curves(h, [OpenCurve(darts, f0, f1)])
        assert disk.genus == 0
        assert len(disk.boundary_faces) == 1
        assert disk.edge_count == 24
        assert len(disk.ordinary_faces()) == 9
        assert euler_ok(disk)

    def test_genus2_two_cuts(self):
        g = gen.add_edge_between_faces(gen.torus_grid(3), 0, 4)
        assert g.genus == 2
        h = cut_along(g, ROW0)
        assert h.genus == 1
        assert len(h.boundary_faces) == 2
        assert euler_ok(h)


class TestCrosses:
    def test_disjoint_face_boundaries(self):
        g = gen.planar_triangulation(7, seed=4)
        faces = g.faces()
        b1 = boundary_of_faces({0}, g)
        for f in range(1, g.face_count):
            b2 = boundary_of_faces({f}, g)
            if b1 & b2:
                continue
            assert not crosses(b1, b2, g)

    def test_torus_row_vs_column(self):
        g = gen.torus_grid(3)
        assert crosses(ROW0, COL0, g)
        assert crosses(COL0, ROW0, g)

    def test_self(self):
        g = gen.torus_grid(3)
        assert not crosses(ROW0, ROW0, g)

    def test_parallel_rows(self):
        g = gen.torus_grid(3)
        row1 = frozenset({3, 4, 5})
        assert not crosses(ROW0, row1, g)


class TestCycleDecomposition:
    def test_curves_partition(self):
        g = gen.torus_grid(4)
        x = frozenset({0, 1, 2, 3})
        walks = curves_from_edge_set(g, x)
        assert len(walks) == 1
        assert walks[0].edge_set() == x


class TestTextFormat:
    def test_roundtrip(self):
        g = gen.torus_grid(3, seed=2)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_decimals(self):
        text = """# tiny triangle
V 3
E 3
0 0 1 0.5
1 1 2 1
2 2 0 2.25
R 0 0 5
R 1 1 2
R 2 3 4
"""
        g = parse_graph(text)
        assert [w for _, _, w in g.edges] == [2, 4, 9]
        assert g.genus == 0

    @pytest.mark.parametrize("tokens", [
        ["3"], ["007"], ["0"], ["+3"], ["-3"], ["-0"], ["1/2", "3"],
        ["3/6", "5"], ["-1/2"], ["1.5", "2"], ["1e2"], ["1_0", "4"],
        ["1_000/3"], ["1__0"], ["_1"], ["\u0663"], ["\uff13", "1/3"],
        ["\u00b2"], ["1/0"], ["0x1"], ["nan"], [str(2 ** 70), "1/3"],
    ])
    def test_weights_read_as_fractions_would(self, tokens):
        """Rationals, signs, underscores and non-ASCII digits (Arabic-Indic
        and fullwidth three, superscript two): every weight token gives the
        weights, or the error, of reading each token by ``Fraction`` and
        scaling by the least common multiple of the denominators."""
        m = len(tokens)
        text = (f"V 2\nE {m}\n"
                + "".join(f"{e} 0 1 {w}\n" for e, w in enumerate(tokens))
                + "R 0 " + " ".join(str(2 * e) for e in range(m))
                + "\nR 1 " + " ".join(str(2 * e + 1) for e in range(m))
                + "\n")
        try:
            ws = [Fraction(w) for w in tokens]
        except (ValueError, ZeroDivisionError):
            ws = [Fraction(-1)]
        if min(ws) < 0:
            with pytest.raises(GraphFormatError):
                parse_graph(text)
        else:
            scale = math.lcm(*(w.denominator for w in ws))
            assert [w for _, _, w in parse_graph(text).edges] == \
                [int(w * scale) for w in ws]

    @pytest.mark.parametrize("bad", [
        "V 1\nE 0\n",          # missing rotation line
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR 1 0\n",     # dart twice
        "V 1\nE 1\n0 0 0 -3\nR 0 0 1\n",         # negative weight
        "V x\nE 0\n",
        "V 0\nE 0\n",          # no vertex
        "V 2\nE 1\n0 0 1 1/0\nR 0 0\nR 1 1\n",   # zero denominator
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR -1 1\n",    # vertex id out of range
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR 0 0\n",     # repeated vertex id
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR 1 1\nR 1 1\n",  # trailing line
        "X 2\nE 1\n0 0 1 1\nR 0 0\nR 1 1\n",     # wrong vertex keyword
        "V 2\nY 1\n0 0 1 1\nR 0 0\nR 1 1\n",     # wrong edge keyword
        "V 2\nE 1\n0 0 1 1 junk\nR 0 0\nR 1 1\n",  # fifth edge token
        "V 2 9\nE 1\n0 0 1 1\nR 0 0\nR 1 1\n",   # extra header token
        "V 2\nE -1\nR 0\nR 1\n",                 # negative edge count
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph(bad)

    @pytest.mark.parametrize("text, message", [
        ("X 2\nY 1\n0 0 1 1 junk\nR 0 0\nR 1 1\n",
         "expected 'V' and one count, got 'X 2'"),
        ("V 2\nY 1\n0 0 1 1\nR 0 0\nR 1 1\n",
         "expected 'E' and one count, got 'Y 1'"),
        ("V 2 9\nE 1\n0 0 1 1\nR 0 0\nR 1 1\n",
         "expected 'V' and one count, got 'V 2 9'"),
        ("V 2\nE 1\n0 0 1 1 junk\nR 0 0\nR 1 1\n",
         "edge line '0 0 1 1 junk' does not hold id, tail, head, weight"),
        ("V 2\nE -1\nR 0\nR 1\n", "negative edge count -1"),
    ])
    def test_header_and_edge_errors_name_the_fault(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            parse_graph(text)

    @pytest.mark.parametrize("rotations, message", [
        ("R 0 0\nR -1 1\n", "rotation line for vertex -1 outside 0..1"),
        ("R 0 0\nR 2 1\n", "rotation line for vertex 2 outside 0..1"),
        ("R 0 0\nR 0 0\n", "repeated rotation line for vertex 0"),
        ("R 0 0\nR 1 1\n# end\n0 0 1 1\n",
         "line after the rotation lines: '0 0 1 1'"),
    ])
    def test_rotation_line_errors_name_the_fault(self, rotations, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            parse_graph("V 2\nE 1\n0 0 1 1\n" + rotations)


def handle_with_small_weights():
    rng = random.Random(17)
    g = gen.torus_grid(3, weights=[rng.randint(1, 3) for _ in range(18)])
    return gen.add_edge_between_faces(g, 0, 4, rng.randint(1, 3))


class TestChords:
    """uncross_walk and check_curves read one chord system of a walk."""

    def test_uncross_smooths_the_first_crossing(self):
        g = handle_with_small_weights()
        assert uncross_walk(g, (2, 35, 29, 23, 37)) == \
            ClosedCurve((2, 22, 28, 34, 37))

    def test_check_curves_finds_the_self_crossing(self):
        g = handle_with_small_weights()
        with pytest.raises(CurveShapeError,
                           match="^curves cross at vertex 2$"):
            check_curves(g, [ClosedCurve((2, 35, 29, 23, 37))])

    def test_row_and_column_cross(self):
        g = gen.torus_grid(3)
        row, column = ClosedCurve((0, 2, 4)), ClosedCurve((18, 24, 30))
        assert row.edge_set() == ROW0 and column.edge_set() == COL0
        with pytest.raises(CurveShapeError,
                           match="^curves cross at vertex 0$"):
            check_curves(g, [row, column])


class TestCurveShapeErrors:
    def test_weakly_simple_diagonal_cut(self):
        # row + column through one vertex re-pairs into a single weakly
        # simple non-crossing closed curve; cutting along it is legal
        g = gen.torus_grid(3)
        h = cut_along(g, ROW0 | COL0)
        assert h.genus == 0
        assert h.edge_count == 24
        assert len(h.boundary_faces) == 2
        assert euler_ok(h)

    def test_two_disjoint_cycles_rejected(self):
        g = gen.torus_grid(3)
        with pytest.raises(CurveShapeError):
            cut_along(g, ROW0 | frozenset({3, 4, 5}))


def surgery_digest(h):
    """sha256 of a surgery result's rotations, edges, boundary faces, both
    origin maps and fresh boundary faces."""
    fields = (h.rotations, h.edges, sorted(h.boundary_faces),
              sorted(h.origin_face_map.items()),
              sorted(enumerate(h.origin_edge_map)), sorted(h.new_boundary_faces))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestGoldenSurgery:
    """Surgery results pinned by hash, so a change to the rebuild that moves
    any vertex, edge or face id fails here and not only in the artifacts.
    The curves are the tight cycles and the tight path that the homology
    searches find on these graphs, written out so that only surgery is
    pinned."""

    @pytest.mark.parametrize("darts, digest", [
        # one tight cycle per nonzero class of torus_grid(3, seed=1)
        ((6, 8, 10),
         "9166c2512fda281a115b1d4db73cef2dea4ec0f5af001d45932555f63c3b9084"),
        ((18, 24, 30),
         "7a7c49b2d5fcaa823474082d4c47f58450a730be396fab09ff05aa9bcb863b9b"),
        ((6, 8, 10, 24, 30, 18),
         "69d65b9aff9135db492bdea103154afa344a185fde9ab6d69fe428097e764d95"),
    ])
    def test_tight_cycle_cuts_of_a_torus(self, darts, digest):
        g = gen.torus_grid(3, seed=1)
        assert surgery_digest(cut_along_curves(g, [ClosedCurve(darts)])) == digest

    def test_path_cut_after_a_cycle_cut(self):
        cut = cut_along_curves(gen.torus_grid(3, seed=1),
                               [ClosedCurve((6, 8, 10))])
        b1, b2 = sorted(cut.new_boundary_faces)
        h = cut_along_curves(cut, [OpenCurve((19, 31, 25), b1, b2)])
        assert surgery_digest(h) == (
            "0cea185dcdf7b91b9d62fa2f8f929f3fd5bc1a9aca5a05d24995df84fc247149")

    def test_one_vertex_double_torus(self):
        h = cut_along_curves(gen.double_torus_one_vertex(),
                             [ClosedCurve((0,))])
        assert surgery_digest(h) == (
            "d0cdcb4eab2d30694f211953036390137562b8bfd3cc1a8711042453a3d616c6")

    def test_belt_handle(self):
        g = gen.add_edge_between_faces(gen.belt_torus(5, [1, 3], seed=5),
                                       0, 12, 75)
        h = cut_along_curves(g, [ClosedCurve((52, 62, 101))])
        assert surgery_digest(h) == (
            "c59a2070520cd87fa0bb7632d2965eee0e6e30b89dfea2fc6959671cbd889db2")

    def test_two_curves_through_one_vertex(self):
        h = cut_along(gen.torus_grid(3), ROW0 | COL0)
        assert surgery_digest(h) == (
            "04ec9186a2b8f0f822b339e995130302eef92df3d655154bb70254a6f02547a1")
