"""Embedded multigraphs given by rotation systems.

A graph is stored with an explicit combinatorial map: every edge ``e`` has two
darts ``2*e`` (at its u-endpoint) and ``2*e + 1`` (at its v-endpoint), and each
vertex carries a clockwise cyclic order of its darts.  Faces, the dual's edge
list, the genus and surface surgery (cutting along cycles and paths) are all
derived from this data.  Weights are exact integers throughout.

Chords and surgery name the places around a vertex by doubled positions: the
dart at rotation position p sits at 2p, and the corner after it, between
darts p and p + 1, at 2p + 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CurveShapeError,
    DisconnectedGraphError,
    GraphFormatError,
    SeparatingCutError,
)


def edge_of(d: int) -> int:
    return d >> 1


def side_of(d: int) -> int:
    return d & 1


def twin(d: int) -> int:
    return d ^ 1


@dataclass(frozen=True)
class EmbeddedGraph:
    """Weighted multigraph with a rotation system.

    ``edges[e] = (u, v, w)``; ``rotations[v]`` lists the darts at ``v`` in
    clockwise order.  ``boundary_faces`` marks faces created by surgery.
    ``origin_face_map`` / ``origin_edge_map`` relate ordinary faces and edge
    copies back to the graph this one was cut from (identity when absent).
    """

    vertex_count: int
    edges: tuple
    rotations: tuple
    boundary_faces: frozenset = frozenset()
    origin_face_map: dict = field(default_factory=dict, compare=False)
    origin_edge_map: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        seen = {}
        for v, rot in enumerate(self.rotations):
            for d in rot:
                if d in seen:
                    raise GraphFormatError(f"dart {d} appears twice")
                seen[d] = v
        for e, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphFormatError(f"edge {e} endpoint out of range")
            if not isinstance(w, int) or w < 0:
                raise GraphFormatError(f"edge {e} weight must be a non-negative int")
            if seen.get(2 * e) != u or seen.get(2 * e + 1) != v:
                raise GraphFormatError(f"darts of edge {e} misplaced in rotations")
        if len(seen) != 2 * len(self.edges):
            raise GraphFormatError("stray darts in rotations")

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, e: int) -> int:
        return self.edges[e][2]

    def dart_vertex(self, d: int) -> int:
        u, v, _ = self.edges[edge_of(d)]
        return u if side_of(d) == 0 else v

    def dart_head(self, d: int) -> int:
        return self.dart_vertex(twin(d))

    def with_weights(self, weights) -> "EmbeddedGraph":
        """This graph with new edge weights.  The rotations are the same, so
        the copy shares the face tables already traced; the dual, which
        holds the weights, is its own."""
        edges = tuple((u, v, w) for (u, v, _), w in zip(self.edges, weights))
        out = EmbeddedGraph(self.vertex_count, edges, self.rotations,
                            self.boundary_faces, dict(self.origin_face_map),
                            dict(self.origin_edge_map))
        if hasattr(self, "_face_table"):
            object.__setattr__(out, "_face_table", self._face_table)
        return out

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        adj = [[] for _ in range(self.vertex_count)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * self.vertex_count
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        return all(seen)

    # -- faces -------------------------------------------------------------

    def face_table(self):
        """``(faces, face_of)`` from :func:`trace_faces`, traced once and
        cached on the graph."""
        table = getattr(self, "_face_table", None)
        if table is None:
            table = trace_faces(self)
            object.__setattr__(self, "_face_table", table)
        return table

    def faces(self):
        return self.face_table()[0]

    def face_of(self, d: int) -> int:
        return self.face_table()[1][d]

    @property
    def face_count(self) -> int:
        return len(self.faces())

    @property
    def genus(self) -> int:
        chi = self.vertex_count - self.edge_count + self.face_count
        if chi % 2 != 0 or chi > 2:
            raise GraphFormatError(f"Euler characteristic {chi} is not 2-2g")
        return (2 - chi) // 2

    def ordinary_faces(self):
        return [f for f in range(self.face_count) if f not in self.boundary_faces]


# ---------------------------------------------------------------------------
# Faces and dual


def trace_faces(g: EmbeddedGraph):
    """``(faces, face_of)``: the orbits of the face-tracing permutation as
    dart cycles, and the face id of every dart in a list.

    The successor of dart ``d`` on its face is the dart after ``twin(d)`` in
    the clockwise rotation at the head of ``d``.  A connected graph without
    darts, a single vertex, has one empty face.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("face tracing requires a connected graph")
    return _face_orbits(g.rotations)


def _face_orbits(rotations):
    succ = [0] * sum(map(len, rotations))
    if not succ:
        return ((),), []
    for rot in rotations:
        n = len(rot)
        for i, d in enumerate(rot):
            succ[twin(d)] = rot[(i + 1) % n]
    faces = []
    face_of = [-1] * len(succ)
    for rot in rotations:
        for d in rot:
            if face_of[d] >= 0:
                continue
            f = len(faces)
            cycle = []
            x = d
            while face_of[x] < 0:
                face_of[x] = f
                cycle.append(x)
                x = succ[x]
            faces.append(tuple(cycle))
    return tuple(faces), face_of


def dual(g: EmbeddedGraph) -> tuple:
    """The dual's edge list, cached: ``(face_of(2e), face_of(2e + 1), w)``
    for every edge e, in edge order, over g's face ids 0..face_count-1."""
    cached = getattr(g, "_dual", None)
    if cached is None:
        face_of = g.face_table()[1]
        cached = tuple((face_of[2 * e], face_of[2 * e + 1], w)
                       for e, (_, _, w) in enumerate(g.edges))
        object.__setattr__(g, "_dual", cached)
    return cached


# ---------------------------------------------------------------------------
# Curves: explicit cut descriptions


@dataclass(frozen=True)
class ClosedCurve:
    """Closed walk given as a dart sequence; head of each dart is the tail of
    the next (cyclically)."""

    darts: tuple

    def edge_set(self):
        return frozenset(edge_of(d) for d in self.darts)


@dataclass(frozen=True)
class OpenCurve:
    """Path as a dart sequence whose ends are slit open into the given faces."""

    darts: tuple
    start_face: int
    end_face: int

    def edge_set(self):
        return frozenset(edge_of(d) for d in self.darts)


def _validate_walk(g, darts, closed):
    if not darts:
        raise CurveShapeError("empty curve")
    edges = [edge_of(d) for d in darts]
    if len(set(edges)) != len(edges):
        raise CurveShapeError("curve repeats an edge")
    pairs = zip(darts, darts[1:] + darts[:1]) if closed else zip(darts, darts[1:])
    for a, b in pairs:
        if g.dart_head(a) != g.dart_vertex(b):
            raise CurveShapeError("darts do not chain head-to-tail")


def uncross_walk(g: EmbeddedGraph, darts) -> ClosedCurve:
    """Re-pair self-crossings of a closed walk so its passages nest.

    At a vertex visited twice with interleaved (crossing) passage chords, the
    smoothing that keeps a single closed curve preserves the edge set and the
    homology class.  The first crossing in passage order is smoothed first.
    """
    darts = list(darts)
    for _ in range(len(darts) ** 2 + 1):
        curve = ClosedCurve(tuple(darts))
        cross = _first_crossing(g, _chords(g, [curve]))
        if cross is None:
            return curve
        _, i, j = cross
        # swap the two passages: one of the two re-pairings keeps one orbit;
        # reversing the segment between the passages realizes it.
        seg = darts[i:j]
        darts = darts[:i] + [twin(d) for d in reversed(seg)] + darts[j:]
    raise CurveShapeError("failed to uncross walk")


def _chords(g, curves):
    """The chords the curves draw at each vertex, in curve and passage order:
    ``{v: [(a, b, i), ...]}``.  Passage ``i`` enters ``v`` by
    ``twin(darts[i - 1])`` and leaves by ``darts[i]``, and its chord joins
    those darts' rotation positions.  Each end of an open curve adds a chord
    from its end dart into a corner of its end face (``i`` None).  Positions
    are doubled and corner k, between darts k and k + 1, sits at 2k + 1, so
    two chords cross exactly when their ends interleave."""
    chords = {}
    for c in curves:
        darts = c.darts
        closed = isinstance(c, ClosedCurve)
        for i in range(0 if closed else 1, len(darts)):
            d_in, d_out = twin(darts[i - 1]), darts[i]
            v = g.dart_vertex(d_out)
            rot = g.rotations[v]
            chords.setdefault(v, []).append(
                (2 * rot.index(d_in), 2 * rot.index(d_out), i))
        if not closed:
            for v, a, b in (_end_chord(g, darts[0], c.start_face, start=True),
                            _end_chord(g, darts[-1], c.end_face, start=False)):
                chords.setdefault(v, []).append((a, b, None))
    return chords


def _first_crossing(g, chords):
    """``(v, i, j)`` for the first two crossing chords of ``_chords``:
    vertices in order of their first chord, pairs in chord order.  None if
    no two chords cross."""
    for v, at in chords.items():
        m = 2 * len(g.rotations[v])
        for (a1, b1, i), (a2, b2, j) in itertools.combinations(at, 2):
            span = (b1 - a1) % m
            if ((a2 - a1) % m < span) != ((b2 - a1) % m < span):
                return v, i, j
    return None


# ---------------------------------------------------------------------------
# Surgery


def cut_along_curves(g: EmbeddedGraph, curves) -> EmbeddedGraph:
    """Cut along an explicit system of non-crossing closed and open curves."""
    x, chords = check_curves(g, curves)
    return _rebuild_cut(g, x, chords)


def check_curves(g: EmbeddedGraph, curves):
    """The checks :func:`cut_along_curves` makes before it rebuilds: raises
    CurveShapeError, else returns the cut edge set and the chord system."""
    for c in curves:
        _validate_walk(g, list(c.darts), closed=isinstance(c, ClosedCurve))
    all_edges = [e for c in curves for e in sorted(c.edge_set())]
    if len(set(all_edges)) != len(all_edges):
        raise CurveShapeError("curves share edges")
    x = frozenset(all_edges)
    chords = _chords(g, curves)
    cross = _first_crossing(g, chords)
    if cross is not None:
        raise CurveShapeError(f"curves cross at vertex {cross[0]}")
    return x, chords


def _end_chord(g, d, face, start):
    """``(v, a, b)``: the chord at ``v`` from a path-end dart into a corner on
    the given face, as doubled positions (see ``_chords``)."""
    if start:
        v, dd = g.dart_vertex(d), d
    else:
        v, dd = g.dart_head(d), twin(d)
    rot = g.rotations[v]
    # corner i sits between rot[i] and rot[i+1]; it belongs to the face of
    # the dart whose ccw corner it is, i.e. face_of(rot[i+1]).
    for i in range(len(rot)):
        nxt = rot[(i + 1) % len(rot)]
        if g.face_of(nxt) == face:
            return v, 2 * rot.index(dd), 2 * i + 1
    raise CurveShapeError("path endpoint vertex not incident to end face")


def _rebuild_cut(g, x, chords):
    """``g`` cut open along the edges ``x`` by the chords of ``_chords``.

    An item is ``(v, k, half)`` at doubled position ``k`` around ``v``.  A
    chord end (a cut dart, or a corner that a path end uses) splits into its
    ccw half 0 and its cw half 1; every other dart is the one item
    ``(v, 2p, 0)``.  Each item is followed by the next one around ``v``,
    except that a chord joins each end's ccw half to the other end's cw
    half; the orbits of this successor are the new vertices.  Every edge
    keeps its id, and the second copies of the cut edges follow in sorted
    edge order.  The half of a cut dart that equals the dart's side keeps
    edge e, the copy next to ``face_of(d)``; the other half is the second
    copy.
    """
    m_old = g.edge_count
    origin = [*range(m_old), *sorted(x)]          # new edge id -> old edge
    copy2 = {e: c for c, e in enumerate(origin[m_old:], m_old)}
    succ = {}
    order = []
    for v, rot in enumerate(g.rotations):
        at = chords.get(v, ())
        ends = {k for a, b, _ in at for k in (a, b)}
        items = []
        for k in range(2 * len(rot)):
            if k in ends:
                items += [(v, k, 0), (v, k, 1)]
            elif k % 2 == 0:
                items.append((v, k, 0))
        succ.update(zip(items, items[1:] + items[:1]))
        for a, b, _ in at:
            succ[v, a, 0] = (v, b, 1)
            succ[v, b, 0] = (v, a, 1)
        order += items

    # orbits of the successor map = new vertices
    dart_vertex = [0] * (2 * len(origin))
    new_rotations = []
    seen = set()
    for item in order:
        if item in seen:
            continue
        rot_new = []
        while item not in seen:
            seen.add(item)
            v, k, half = item
            if k % 2 == 0:
                d = g.rotations[v][k // 2]
                e, side = edge_of(d), side_of(d)
                if half != side and e in copy2:
                    d = 2 * copy2[e] + side
                dart_vertex[d] = len(new_rotations)
                rot_new.append(d)
            item = succ[item]
        new_rotations.append(tuple(rot_new))
    edges = tuple((dart_vertex[2 * c], dart_vertex[2 * c + 1], g.edges[e][2])
                  for c, e in enumerate(origin))
    faces, face_of = _face_orbits(new_rotations)

    # classify faces: ordinary faces keep their projected dart set (both
    # copies of a cut edge project onto the original edge, side by side)
    old_key = {frozenset(cyc): f for f, cyc in enumerate(g.faces())}
    face_map = {}
    boundary = set()
    for f, cyc in enumerate(faces):
        key = frozenset(2 * origin[edge_of(d)] + side_of(d) for d in cyc)
        if len(key) == len(cyc) and key in old_key:
            face_map[f] = old_key.pop(key)
        else:
            boundary.add(f)
    # map back through g's own labels: ordinary faces of g that were boundary
    # in g stay boundary here.
    fresh = frozenset(boundary)
    final_face_map = {}
    for f, old_f in face_map.items():
        if old_f in g.boundary_faces:
            boundary.add(f)
        else:
            final_face_map[f] = old_f
    result = EmbeddedGraph(len(new_rotations), edges, tuple(new_rotations),
                           frozenset(boundary), final_face_map,
                           dict(enumerate(origin)))
    if not result.is_connected():
        raise SeparatingCutError("cut disconnects the graph")
    # the table traced above is the result's own: same rotations
    object.__setattr__(result, "_face_table", (faces, face_of))
    object.__setattr__(result, "new_boundary_faces", fresh)
    return result


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the plain text format (``V``, ``E``, edge and ``R`` lines).

    A weight is any rational ``Fraction`` reads; all of them are scaled by
    the least common multiple of their denominators.  A weight of ASCII
    digits only, the common case, is read by ``int``, which is much faster
    and gives the same value."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    it = iter(lines)

    def count(key):
        line = next(it)
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise GraphFormatError(
                f"expected {key!r} and one count, got {line!r}")
        return int(parts[1])

    try:
        n = count("V")
        if n < 1:
            raise GraphFormatError(f"graph needs at least one vertex, got {n}")
        m = count("E")
        if m < 0:
            raise GraphFormatError(f"negative edge count {m}")
        raw_edges = []
        for _ in range(m):
            line = next(it)
            parts = line.split()
            if len(parts) != 4:
                raise GraphFormatError(
                    f"edge line {line!r} does not hold id, tail, head, weight")
            w = parts[3]
            raw_edges.append((int(parts[0]), int(parts[1]), int(parts[2]),
                              int(w) if w.isascii() and w.isdigit()
                              else Fraction(w)))
        rotations = [None] * n
        for _ in range(n):
            parts = next(it).split()
            if parts[0] != "R":
                raise GraphFormatError("expected rotation line")
            v = int(parts[1])
            if not 0 <= v < n:
                raise GraphFormatError(
                    f"rotation line for vertex {v} outside 0..{n - 1}")
            if rotations[v] is not None:
                raise GraphFormatError(
                    f"repeated rotation line for vertex {v}")
            rotations[v] = tuple(int(d) for d in parts[2:])
    except StopIteration:
        raise GraphFormatError("bad graph file: missing lines") from None
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad graph file: {exc}") from exc
    extra = next(it, None)
    if extra is not None:
        raise GraphFormatError(f"line after the rotation lines: {extra!r}")
    scale = math.lcm(*(w.denominator for *_, w in raw_edges))
    edges = [None] * m
    for eid, u, v, w in raw_edges:
        if not 0 <= eid < m or edges[eid] is not None:
            raise GraphFormatError(f"bad edge id {eid}")
        edges[eid] = (u, v, int(w * scale))
    return EmbeddedGraph(n, tuple(edges), tuple(rotations))


def format_graph(g: EmbeddedGraph) -> str:
    out = [f"V {g.vertex_count}", f"E {g.edge_count}"]
    for e, (u, v, w) in enumerate(g.edges):
        out.append(f"{e} {u} {v} {w}")
    for v, rot in enumerate(g.rotations):
        out.append("R " + " ".join(str(d) for d in (v, *rot)))
    return "\n".join(out) + "\n"
