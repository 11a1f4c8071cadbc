"""Embedded multigraphs given by rotation systems.

A graph is stored with an explicit combinatorial map: every edge ``e`` has two
darts ``2*e`` (at its u-endpoint) and ``2*e + 1`` (at its v-endpoint), and each
vertex carries a clockwise cyclic order of its darts.  Faces, the dual graph,
the genus and surface surgery (cutting along cycles and paths) are all derived
from this data.  Weights are exact integers throughout.
"""

from __future__ import annotations

import itertools
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

    def endpoints(self, e: int):
        u, v, _ = self.edges[e]
        return u, v

    def dart_vertex(self, d: int) -> int:
        u, v, _ = self.edges[edge_of(d)]
        return u if side_of(d) == 0 else v

    def dart_head(self, d: int) -> int:
        return self.dart_vertex(twin(d))

    def with_weights(self, weights) -> "EmbeddedGraph":
        edges = tuple((u, v, w) for (u, v, _), w in zip(self.edges, weights))
        return EmbeddedGraph(self.vertex_count, edges, self.rotations,
                             self.boundary_faces, dict(self.origin_face_map),
                             dict(self.origin_edge_map))

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

    def faces(self):
        """Face dart-cycles, cached.  See :func:`trace_faces`."""
        cached = getattr(self, "_faces", None)
        if cached is None:
            cached = trace_faces(self)
            object.__setattr__(self, "_faces", cached)
        return cached

    def face_of(self, d: int) -> int:
        table = getattr(self, "_face_of", None)
        if table is None:
            table = {}
            for f, cycle in enumerate(self.faces()):
                for x in cycle:
                    table[x] = f
            object.__setattr__(self, "_face_of", table)
        return table[d]

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
# Faces, dual, boundaries


def trace_faces(g: EmbeddedGraph):
    """Orbits of the face-tracing permutation, as dart cycles.

    The successor of dart ``d`` on its face is the dart after ``twin(d)`` in
    the clockwise rotation at the head of ``d``.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("face tracing requires a connected graph")
    return _face_orbits(g.rotations)


def _face_orbits(rotations):
    succ = {}
    for rot in rotations:
        n = len(rot)
        for i, d in enumerate(rot):
            succ[twin(d)] = rot[(i + 1) % n]
    faces = []
    visited = set()
    for rot in rotations:
        for d in rot:
            if d in visited:
                continue
            cycle = []
            x = d
            while x not in visited:
                visited.add(x)
                cycle.append(x)
                x = succ[x]
            faces.append(tuple(cycle))
    return tuple(faces)


def dual(g: EmbeddedGraph) -> EmbeddedGraph:
    """Dual map: one vertex per face, equal edge ids and weights."""
    faces = g.faces()
    rotations = []
    for cycle in faces:
        rotations.append(tuple(2 * edge_of(d) + side_of(d) for d in cycle))
    edges = []
    for e, (_, _, w) in enumerate(g.edges):
        edges.append((g.face_of(2 * e), g.face_of(2 * e + 1), w))
    return EmbeddedGraph(len(faces), tuple(edges), tuple(rotations))


def boundary_of_faces(fs, g: EmbeddedGraph) -> frozenset:
    """Edges with exactly one incident face in ``fs``."""
    fs = frozenset(fs)
    if not fs or fs >= set(range(g.face_count)):
        raise ValueError("face set must be a nonempty proper subset")
    out = []
    for e in range(g.edge_count):
        a = g.face_of(2 * e) in fs
        b = g.face_of(2 * e + 1) in fs
        if a != b:
            out.append(e)
    return frozenset(out)


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


def curves_from_edge_set(g: EmbeddedGraph, x) -> list:
    """Decompose an even edge set into non-crossing closed walks.

    At every vertex the darts of ``x`` are paired by stack-matching in
    clockwise rotation order, which yields a non-crossing chord system; the
    orbits of the induced successor map are the closed walks.
    """
    x = frozenset(x)
    partner = {}
    for v, rot in enumerate(g.rotations):
        xd = [d for d in rot if edge_of(d) in x]
        stack = []
        for d in xd:
            if stack:
                a = stack.pop()
                partner[a] = d
                partner[d] = a
            else:
                stack.append(d)
        if stack:
            raise CurveShapeError(f"edge set is odd at vertex {v}")
    walks = []
    used = set()
    for e in sorted(x):
        for d0 in (2 * e, 2 * e + 1):
            if d0 in used:
                continue
            walk = []
            d = d0
            while d not in used:
                used.add(d)
                used.add(twin(d))
                walk.append(d)
                d = partner[twin(d)]
            walks.append(ClosedCurve(tuple(walk)))
            break
    return walks


def uncross_walk(g: EmbeddedGraph, darts) -> ClosedCurve:
    """Re-pair self-crossings of a closed walk so its passages nest.

    At a vertex visited twice with interleaved (crossing) passage chords, the
    smoothing that keeps a single closed curve preserves the edge set and the
    homology class.
    """
    darts = list(darts)
    for _ in range(len(darts) ** 2 + 1):
        cross = _find_self_crossing(g, darts)
        if cross is None:
            return ClosedCurve(tuple(darts))
        i, j = cross
        # swap the two passages: one of the two re-pairings keeps one orbit;
        # reversing the segment between the passages realizes it.
        seg = darts[i:j]
        darts = darts[:i] + [twin(d) for d in reversed(seg)] + darts[j:]
    raise CurveShapeError("failed to uncross walk")


def _passage_chords(g, darts, closed=True):
    """Chords (rotation positions of in/out darts) per vertex, per passage."""
    chords = {}
    n = len(darts)
    rng = range(n) if closed else range(1, n)
    for i in rng:
        d_out = darts[i]
        d_in = twin(darts[i - 1])
        v = g.dart_vertex(d_out)
        rot = g.rotations[v]
        chords.setdefault(v, []).append((rot.index(d_in), rot.index(d_out), i))
    return chords


def _find_self_crossing(g, darts):
    for v, ch in _passage_chords(g, darts).items():
        m = len(g.rotations[v])
        for (a1, b1, i), (a2, b2, j) in itertools.combinations(ch, 2):
            if _chords_cross(a1, b1, a2, b2, m):
                return tuple(sorted((i, j)))
    return None


def _chords_cross(a1, b1, a2, b2, m):
    def between(x, lo, hi):
        return (x - lo) % m < (hi - lo) % m

    in1 = between(a2, a1, b1)
    in2 = between(b2, a1, b1)
    return in1 != in2


# ---------------------------------------------------------------------------
# Surgery


def cut_along(g: EmbeddedGraph, x) -> EmbeddedGraph:
    """Cut the surface along ``x``, duplicating its edges.

    ``x`` must be (the edge set of) a single weakly simple cycle; its walk is
    derived from the rotation system.  Use :func:`cut_along_curves` to cut
    along explicit closed and open curves.
    """
    x = frozenset(x)
    for e in x:
        if e >= g.edge_count:
            raise ValueError(f"edge {e} not in graph")
    walks = curves_from_edge_set(g, x)
    if len(walks) != 1:
        raise CurveShapeError("edge set is not a single cycle")
    return cut_along_curves(g, walks)


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

    # chord system per vertex: endpoints are dart positions or corners
    chords = []          # list of (endpoint, endpoint); endpoint = ('d', v, pos) | ('c', v, corner)
    for c in curves:
        darts = list(c.darts)
        closed = isinstance(c, ClosedCurve)
        n = len(darts)
        rng = range(n) if closed else range(1, n)
        for i in rng:
            d_out, d_in = darts[i], twin(darts[i - 1])
            v = g.dart_vertex(d_out)
            rot = g.rotations[v]
            chords.append((("d", v, rot.index(d_in)), ("d", v, rot.index(d_out))))
        if not closed:
            chords.append(_end_chord(g, darts[0], c.start_face, start=True))
            chords.append(_end_chord(g, darts[-1], c.end_face, start=False))

    _check_noncrossing(g, chords)
    return x, chords


def _end_chord(g, d, face, start):
    """Chord from a path-end dart into a corner on the given face."""
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
            return (("d", v, rot.index(dd)), ("c", v, i))
    raise CurveShapeError("path endpoint vertex not incident to end face")


def _check_noncrossing(g, chords):
    per_vertex = {}
    for a, b in chords:
        v = a[1]
        per_vertex.setdefault(v, []).append((a, b))
    for v, ch in per_vertex.items():
        m = len(g.rotations[v])

        def key(end):
            # order endpoints around the vertex; corner i sits after dart i
            return 2 * end[2] + (1 if end[0] == "c" else 0)

        for (a1, b1), (a2, b2) in itertools.combinations(ch, 2):
            if _chords_cross(key(a1), key(b1), key(a2), key(b2), 2 * m):
                raise CurveShapeError(f"curves cross at vertex {v}")


def _rebuild_cut(g, x, chords):
    m_old = g.edge_count
    # new edge ids: non-cut edges and first copies keep their ids;
    # second copies are appended in sorted edge order.
    copy2_id = {}
    nid = m_old
    for e in sorted(x):
        copy2_id[e] = nid
        nid += 1

    # items per vertex, with chord-jump successors
    per_vertex_chords = {}
    for a, b in chords:
        per_vertex_chords.setdefault(a[1], []).append((a, b))

    def dart_items(v, pos, d):
        if edge_of(d) in x:
            return [("ccw", v, pos), ("cw", v, pos)]
        return [("o", v, pos)]

    def entry_dart(item):
        kind, v, pos = item
        d = g.rotations[v][pos]
        if kind == "o":
            return d
        e = edge_of(d)
        # copy adjacent to face(d) keeps id e and consists of the ccw half of
        # d and the cw half of twin(d); the other copy gets copy2_id[e].
        if side_of(d) == 0:
            return 2 * e if kind == "ccw" else 2 * copy2_id[e]
        return 2 * e + 1 if kind == "cw" else 2 * copy2_id[e] + 1

    # assemble per-vertex cyclic item lists and jump map
    jump = {}
    vertex_items = []
    for v, rot in enumerate(g.rotations):
        corner_cut = {}
        for a, b in per_vertex_chords.get(v, []):
            for end in (a, b):
                if end[0] == "c":
                    corner_cut[end[2]] = True
        items = []
        for pos, d in enumerate(rot):
            items.extend(dart_items(v, pos, d))
            if corner_cut.get(pos):
                items.append(("cna", v, pos))
                items.append(("cnb", v, pos))
        vertex_items.append(items)
        # jumps: ccw-side item of one endpoint -> cw-side item of the other
        for a, b in per_vertex_chords.get(v, []):
            ia_ccw, ia_cw = _end_items(a)
            ib_ccw, ib_cw = _end_items(b)
            jump[ia_ccw] = ib_cw
            jump[ib_ccw] = ia_cw

    # orbits of the successor map = new vertices
    succ = {}
    for v, items in enumerate(vertex_items):
        n = len(items)
        for i, it in enumerate(items):
            succ[it] = jump.get(it, items[(i + 1) % n])
    new_vertex_of = {}
    new_rotations = []
    for v, items in enumerate(vertex_items):
        for it in items:
            if it in new_vertex_of:
                continue
            vid = len(new_rotations)
            rot_new = []
            cur = it
            while cur not in new_vertex_of:
                new_vertex_of[cur] = vid
                if cur[0] in ("o", "ccw", "cw"):
                    rot_new.append(entry_dart(cur))
                cur = succ[cur]
            new_rotations.append(tuple(rot_new))

    # locate each new dart's vertex
    dart_pos = {}
    for vid, rot in enumerate(new_rotations):
        for d in rot:
            dart_pos[d] = vid
    edges = []
    origin_edge_map = {}
    for e in range(m_old):
        if 2 * e not in dart_pos or 2 * e + 1 not in dart_pos:
            raise CurveShapeError("cut produced dangling darts")
        edges.append((dart_pos[2 * e], dart_pos[2 * e + 1], g.edges[e][2]))
        origin_edge_map[e] = e
    for e in sorted(x):
        c = copy2_id[e]
        edges.append((dart_pos[2 * c], dart_pos[2 * c + 1], g.edges[e][2]))
        origin_edge_map[c] = e

    faces = _face_orbits(new_rotations)

    # classify faces: ordinary faces keep their projected dart set (both
    # copies of a cut edge project onto the original edge, side by side)
    old_key = {frozenset(cyc): f for f, cyc in enumerate(g.faces())}
    face_map = {}
    boundary = set()
    for f, cyc in enumerate(faces):
        key = frozenset(2 * origin_edge_map[edge_of(d)] + side_of(d)
                        for d in cyc)
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
    result = EmbeddedGraph(len(new_rotations), tuple(edges),
                           tuple(new_rotations), frozenset(boundary),
                           final_face_map, origin_edge_map)
    if not result.is_connected():
        raise SeparatingCutError("cut disconnects the graph")
    object.__setattr__(result, "_faces", faces)     # same rotations, same faces
    object.__setattr__(result, "new_boundary_faces", fresh)
    return result


def _end_items(end):
    kind, v, pos = end
    if kind == "d":
        return ("ccw", v, pos), ("cw", v, pos)
    return ("cna", v, pos), ("cnb", v, pos)


# ---------------------------------------------------------------------------
# Crossing test


def crosses(h1, h2, g: EmbeddedGraph, subset_cap: int = 12) -> bool:
    """Contraction-based crossing test between two edge sets.

    Enumerates subsets of the shared edges (up to ``subset_cap``), contracts
    each, and looks for a vertex with darts of the two sets interleaved
    clockwise.
    """
    h1, h2 = frozenset(h1), frozenset(h2)
    if h1 == h2:
        return False
    shared = sorted(h1 & h2)
    if len(shared) > subset_cap:
        subsets = [(), tuple(shared)]
        comps = _edge_components(g, shared)
        subsets.extend(tuple(sorted(c)) for c in comps)
    else:
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(shared, k) for k in range(len(shared) + 1)))
    for s in subsets:
        rotations = _contract_rotations(g, frozenset(s))
        if _has_interleaving(rotations, h1 - set(s), h2 - set(s)):
            return True
    return False


def _edge_components(g, edges):
    parent = {}

    def find(a):
        while parent.get(a, a) != a:
            parent[a] = parent.get(parent[a], parent[a])
            a = parent[a]
        return a

    for e in edges:
        u, v, _ = g.edges[e]
        ru, rv = find(("v", u)), find(("v", v))
        parent[ru] = rv
    comps = {}
    for e in edges:
        u, _, _ = g.edges[e]
        comps.setdefault(find(("v", u)), []).append(e)
    return comps.values()


def _contract_rotations(g, s):
    """Rotations after contracting edge set ``s`` (loops are left in place)."""
    rotations = {v: list(rot) for v, rot in enumerate(g.rotations)}
    where = {}
    for v, rot in rotations.items():
        for d in rot:
            where[d] = v
    for e in sorted(s):
        d0, d1 = 2 * e, 2 * e + 1
        u, v = where[d0], where[d1]
        if u == v:
            rotations[u] = [d for d in rotations[u] if d not in (d0, d1)]
            continue
        ru, rv = rotations[u], rotations[v]
        i = ru.index(d0)
        j = rv.index(d1)
        spliced = ru[:i] + rv[j + 1:] + rv[:j] + ru[i + 1:]
        rotations[u] = spliced
        rotations[v] = []
        for d in spliced:
            where[d] = u
    return [rot for rot in rotations.values() if rot]


def _has_interleaving(rotations, h1, h2):
    for rot in rotations:
        labels = []
        for d in rot:
            e = edge_of(d)
            a, b = e in h1, e in h2
            if a or b:
                labels.append((a, b))
        if _interleaved(labels):
            return True
    return False


def _interleaved(labels):
    n = len(labels)
    if n < 4:
        return False
    for p, q, r, s in itertools.combinations(range(n), 4):
        a, b = labels[p], labels[q]
        c, d = labels[r], labels[s]
        if (a[0] and c[0] and b[1] and d[1]) or (a[1] and c[1] and b[0] and d[0]):
            return True
    return False


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the plain text format (``V``, ``E``, edge and ``R`` lines)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    it = iter(lines)
    try:
        n = int(next(it).split()[1])
        if n < 1:
            raise GraphFormatError(f"graph needs at least one vertex, got {n}")
        m = int(next(it).split()[1])
        raw_edges = []
        for _ in range(m):
            parts = next(it).split()
            raw_edges.append((int(parts[0]), int(parts[1]), int(parts[2]),
                              Fraction(parts[3])))
        rotations = [None] * n
        for _ in range(n):
            parts = next(it).split()
            if parts[0] != "R":
                raise GraphFormatError("expected rotation line")
            v = int(parts[1])
            rotations[v] = tuple(int(d) for d in parts[2:])
    except (StopIteration, IndexError, ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad graph file: {exc}") from exc
    scale = 1
    for _, _, _, w in raw_edges:
        if w.denominator != 1:
            scale = scale * w.denominator // _gcd(scale, w.denominator)
    edges = [None] * m
    for eid, u, v, w in raw_edges:
        if not 0 <= eid < m or edges[eid] is not None:
            raise GraphFormatError(f"bad edge id {eid}")
        edges[eid] = (u, v, int(w * scale))
    if any(r is None for r in rotations):
        raise GraphFormatError("missing rotation line")
    return EmbeddedGraph(n, tuple(edges), tuple(rotations))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def format_graph(g: EmbeddedGraph) -> str:
    out = [f"V {g.vertex_count}", f"E {g.edge_count}"]
    for e, (u, v, w) in enumerate(g.edges):
        out.append(f"{e} {u} {v} {w}")
    for v, rot in enumerate(g.rotations):
        out.append("R " + " ".join(str(d) for d in (v, *rot)))
    return "\n".join(out) + "\n"
