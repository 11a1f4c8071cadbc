"""Z2 homology over embedded graphs: bases, signatures, tight cycles and paths.

Signatures are int bitmasks of length 2g.  The basis is built from a
tree-cotree split: a spanning tree T of the graph, a spanning tree L of the
dual avoiding T's edges, and the 2g leftover edges.  Each leftover edge closes
one primal basis cycle (through T) and one dual basis cycle (through L); an
edge's signature bit i records membership of its dual edge in dual basis
cycle i.  Primal and dual cycle i share exactly the leftover edge i, so the
primal basis cycles carry the unit signatures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .embed import EmbeddedGraph, dual, uncross_walk

INF = float("inf")


@dataclass(frozen=True)
class HomologyBasis:
    graph: EmbeddedGraph
    tree_edges: frozenset
    cotree_edges: frozenset
    leftover: tuple
    primal_cycles: tuple
    dual_cycles: tuple
    edge_signature: tuple = field(compare=False)

    @property
    def genus(self) -> int:
        return len(self.leftover) // 2


def _adjacency(n, edges, allowed):
    adj = [[] for _ in range(n)]
    for e in sorted(allowed):
        u, v, _ = edges[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _tree_parents(adj, root):
    """BFS parents: vertex -> (parent vertex, connecting edge)."""
    parent = {root: None}
    queue = [root]
    for u in queue:
        for v, e in adj[u]:
            if v not in parent:
                parent[v] = (u, e)
                queue.append(v)
    return parent


def _tree_path(parent, root, v):
    edges = []
    while v != root:
        v, e = parent[v]
        edges.append(e)
    return edges


def homology_basis(g: EmbeddedGraph) -> HomologyBasis:
    d = dual(g)
    adj = _adjacency(g.vertex_count, g.edges, range(g.edge_count))
    parent = _tree_parents(adj, 0)
    tree = frozenset(e for p in parent.values() if p for _, e in [p])
    dual_parent = _tree_parents(_adjacency(
        g.face_count, d, (e for e in range(g.edge_count) if e not in tree)), 0)
    cotree = frozenset(e for p in dual_parent.values() if p for _, e in [p])
    leftover = tuple(e for e in range(g.edge_count)
                     if e not in tree and e not in cotree)
    primal_cycles = []
    dual_cycles = []
    for x in leftover:
        u, v, _ = g.edges[x]
        pu = set(_tree_path(parent, 0, u))
        pv = set(_tree_path(parent, 0, v))
        primal_cycles.append(frozenset({x} | (pu ^ pv)))
        fu, fv, _ = d[x]
        qu = set(_tree_path(dual_parent, 0, fu))
        qv = set(_tree_path(dual_parent, 0, fv))
        dual_cycles.append(frozenset({x} | (qu ^ qv)))
    sig = [0] * g.edge_count
    for i, cyc in enumerate(dual_cycles):
        for e in cyc:
            sig[e] |= 1 << i
    return HomologyBasis(g, tree, cotree, leftover,
                         tuple(primal_cycles), tuple(dual_cycles), tuple(sig))


def _cover_moves(g: EmbeddedGraph, signatures, classes: int):
    """Non-backtracking steps of every dart in the homology cover.

    ``moves[d]`` lists ``(d2 * classes, d2, weight, signature)`` for every
    dart d2 that leaves the head of d along another edge.  Search state
    (dart, class) lives at index ``dart * classes + class`` of flat lists.
    """
    edges = g.edges
    tail = [0] * (2 * len(edges))
    leaving = []
    for v, rot in enumerate(g.rotations):
        for d in rot:
            tail[d] = v
        leaving.append([(d * classes, d, edges[d >> 1][2], signatures[d >> 1])
                        for d in rot])
    return [[step for step in leaving[tail[d ^ 1]] if step[1] >> 1 != d >> 1]
            for d in range(len(tail))]


def _search(moves, classes, heap, dist, back, goal, pending, lowest=0):
    """Non-backtracking Dijkstra over (dart, class) states, from the states on
    ``heap``, serving every class of ``pending`` (class -> weight cap) at once.

    A class leaves once a popped weight reaches its cap; otherwise its result
    is the first popped state of that class whose dart is in ``goal``.  Goal
    states are expanded like any other, since other classes' walks may pass
    through them.  No step enters an edge with a nonzero signature and an id
    below ``lowest``.  Consumes ``pending``; returns
    ``{class: (weight, state index)}``.
    """
    pop, push = heapq.heappop, heapq.heappush
    found = {}
    floor = min(pending.values(), default=INF)
    low = 2 * lowest
    while heap and pending:
        w, d, s = pop(heap)
        i = d * classes + s
        if w > dist[i]:
            continue
        if w >= floor:
            pending = {c: cap for c, cap in pending.items() if cap > w}
            floor = min(pending.values(), default=INF)
            if not pending:
                break
        if d in goal and s in pending:
            found[s] = (w, i)
            del pending[s]
            floor = min(pending.values(), default=INF)
        for base, d2, w2, s2 in moves[d]:
            if d2 < low and s2:
                continue
            s2 ^= s
            j = base + s2
            nw = w + w2
            if nw < dist[j]:
                dist[j] = nw
                back[j] = i
                push(heap, (nw, d2, s2))
    return found


def _walk(back, i, classes):
    """Dart sequence ending at state ``i``, read off the back pointers."""
    darts = []
    while i >= 0:
        darts.append(i // classes)
        i = back[i]
    darts.reverse()
    return darts


def _repeats_edge(darts) -> bool:
    return len({d >> 1 for d in darts}) != len(darts)


def _from_lowest_edge(darts):
    """The closed walk ``darts`` rotated, and reversed if needed, to start
    with dart 2e of its lowest edge e."""
    e = min(darts) >> 1
    if 2 * e not in darts:
        darts = [d ^ 1 for d in reversed(darts)]
    i = darts.index(2 * e)
    return darts[i:] + darts[:i]


def tight_cycle_walk(g: EmbeddedGraph, basis: HomologyBasis):
    """Minimum-weight weakly simple cycle of every nonzero homology class.

    A cycle's class is the XOR of its edges' signatures, so every cycle of a
    nonzero class holds an edge with a nonzero signature: an edge of the
    dual basis cycles of the tree-cotree split (Eppstein, SODA 2003).  Only
    those signature edges start a search.  For each signature edge e0, in id
    order, one non-backtracking Dijkstra in the homology cover finds the
    cheapest closed walk starting with e0 for every nonzero class at once; a
    class leaves that search once it cannot beat its best walk from earlier
    start edges.  The search from e0 enters no signature edge below e0: the
    cheapest walk of a class through such an edge e' was already found, as
    itself or as its reversal rotated to start at e', when e' was the start
    edge, and a later start only wins with a strictly lighter walk.  A
    self-loop e0 is its own walk in its own class.  Each winning walk is
    rotated to start at dart 2e of its lowest edge e, reversed if needed,
    and uncrossed so cut_along_curves can consume it.

    Class 0 is not searched: a null-homologous simple cycle separates the
    surface, so no cut is made along it.

    Returns ``(walks, missing)``: the ClosedCurve of every nonzero class that
    has one, and for every other class the reason it has none.
    """
    classes = 1 << (2 * basis.genus)
    sig = basis.edge_signature
    moves = _cover_moves(g, sig, classes)
    size = len(moves) * classes
    back = [-1] * size
    best = {}       # class -> (weight, dart sequence)
    for e0, (u0, v0, w0) in enumerate(g.edges):
        if not sig[e0]:
            continue
        pending = {h: best[h][0] if h in best else INF
                   for h in range(1, classes)}
        if u0 == v0:
            h = sig[e0]
            if h not in best or w0 < best[h][0]:
                best[h] = (w0, [2 * e0])
            del pending[h]
        d0 = 2 * e0
        start = d0 * classes + sig[e0]
        dist = [INF] * size
        dist[start] = w0
        back[start] = -1
        goal = {d ^ 1 for d in g.rotations[u0] if d >> 1 != e0}
        found = _search(moves, classes, [(w0, d0, sig[e0])], dist, back,
                        goal, pending, e0)
        for h, (w, i) in found.items():
            best[h] = (w, _walk(back, i, classes))
    walks = {}
    missing = {}
    for h in range(1, classes):
        if h not in best:
            missing[h] = f"no cycle with signature {h}"
        elif _repeats_edge(best[h][1]):
            missing[h] = f"minimum closed walk in class {h} repeats an edge"
        else:
            walks[h] = uncross_walk(g, _from_lowest_edge(best[h][1]))
    missing[0] = "null-homologous, separates the surface"
    return walks, missing


def boundary_vertices(g: EmbeddedGraph, face: int):
    return sorted({g.dart_vertex(d) for d in g.faces()[face]})


def tight_path(h_graph: EmbeddedGraph, f_start: int, f_end: int,
               signatures, targets):
    """Minimum-weight nonempty path between two boundary faces in each target
    class, as a dart sequence.

    ``signatures[e]`` labels each edge of ``h_graph``; classes are whatever
    group those labels generate (typically inherited from the parent graph
    through the surgery's edge map).  One multi-source search from the darts
    leaving ``f_start``'s boundary serves every target.  Returns
    ``(paths, missing)``: ``(darts, weight)`` of every target with a path,
    and for every other target the reason it has none (unreachable, or the
    winner is not edge-simple).
    """
    classes = 1 << max([0, *signatures, *targets]).bit_length()
    moves = _cover_moves(h_graph, signatures, classes)
    size = len(moves) * classes
    dist = [INF] * size
    back = [-1] * size
    heap = [(h_graph.edges[d >> 1][2], d, signatures[d >> 1])
            for v in boundary_vertices(h_graph, f_start)
            for d in h_graph.rotations[v]]
    for w, d, s in heap:
        dist[d * classes + s] = w
    heapq.heapify(heap)
    goal = {d ^ 1 for v in boundary_vertices(h_graph, f_end)
            for d in h_graph.rotations[v]}
    found = _search(moves, classes, heap, dist, back, goal,
                    {t: INF for t in targets})
    paths = {}
    missing = {}
    for t in targets:
        if t not in found:
            missing[t] = f"no boundary-to-boundary path with signature {t}"
            continue
        w, i = found[t]
        darts = _walk(back, i, classes)
        if _repeats_edge(darts):
            missing[t] = f"minimum walk in class {t} repeats an edge"
        else:
            paths[t] = (tuple(darts), w)
    return paths, missing
