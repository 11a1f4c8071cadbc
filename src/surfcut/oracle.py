"""Reference implementations: Dinic's max-flow, brute-force cuts,
exhaustive separating subgraphs, the cut-tree and region-tree path scans,
and the surface and homology tools that only tests use.

The build path never calls into this module; tests check the build against
it.
"""

from __future__ import annotations

import itertools

from . import _dinic_py
from .cuttree import CutTree
from .embed import (
    ClosedCurve,
    EmbeddedGraph,
    cut_along_curves,
    dual,
    edge_of,
    twin,
)
from .errors import CurveShapeError, NoPathError
from .homology import (
    HomologyBasis,
    _adjacency,
    _tree_parents,
    _tree_path,
    homology_basis,
)
from .merge import LeafTree
from .reduction import AnnotatedPlanar, Collection


def dinic_search(n, first, to, cap, nxt, s, t):
    """Dinic's algorithm on threaded arc arrays; ``cap`` ends residual.

    Returns ``(value, level)``: ``level[v] >= 0`` exactly for the vertices
    residual-reachable from ``s``, the source side of a minimum cut.

    Each phase first walks the source's arcs: when none has residual
    capacity left, the flow is maximum and the source side is ``{s}``, which
    is how most Gomory-Hu cuts end, and no search runs.  Otherwise the
    phase labels each vertex with its residual distance to the sink, by a
    search backwards from the sink that stops once it has labelled the
    source.  The blocking flow walks down from the source along arcs one
    level nearer the sink, so every vertex it enters had a path to the sink
    at the phase's start and the walk seldom dead-ends.  When the backward
    search misses the source, the flow is maximum, and one forward search
    from the source labels the residual source side.
    """
    total = 0
    while True:
        a = first[s]
        while a != -1 and cap[a] <= 0:
            a = nxt[a]
        level = [-1] * n
        if a == -1:             # every arc leaving s is saturated
            level[s] = 0
            return total, level
        # levels from the sink: u gets v's level plus one when the arc from
        # u to v, the reverse of an arc a leaving v, has residual capacity
        level[t] = 0
        queue = [t]
        for v in queue:
            d = level[v] + 1
            a = first[v]
            while a != -1:
                u = to[a]
                if level[u] < 0 and cap[a ^ 1] > 0:
                    level[u] = d
                    if u == s:
                        break
                    queue.append(u)
                a = nxt[a]
            else:
                continue
            break           # the source is labelled
        else:
            # the sink is out of reach: label the residual source side
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                d = level[u] + 1
                a = first[u]
                while a != -1:
                    v = to[a]
                    if level[v] < 0 and cap[a] > 0:
                        level[v] = d
                        queue.append(v)
                    a = nxt[a]
            return total, level
        # blocking flow: one depth-first walk along arcs one level down;
        # ``cur`` keeps each vertex's next arc to try, a dead end loses its
        # level, and after each augmentation the walk backs up to the tail of
        # the first arc it saturated
        cur = first[:]
        path = []
        u = s
        want = level[s] - 1
        while True:
            if u == t:
                pushed = min([cap[a] for a in path])
                total += pushed
                k = -1
                for i, a in enumerate(path):
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                    if k < 0 and cap[a] == 0:
                        k = i
                u = to[path[k] ^ 1]
                want = level[u] - 1
                del path[k:]
                continue
            a = cur[u]
            while a != -1 and not (cap[a] > 0 and level[to[a]] == want):
                a = nxt[a]
            cur[u] = a
            if a != -1:
                path.append(a)
                u = to[a]
                want -= 1
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
                want += 1
            else:
                break


def dinic_min_cut(n, edges, s, t):
    """Exact min st-cut ``(value, side_of_s)`` of an edge list by Dinic's
    algorithm, with the residual source side: the reference that the build's
    max-flow kernel (``cuttree.max_flow_min_cut``) is checked against."""
    if s == t:
        raise ValueError("source equals sink")
    value, level = dinic_search(n, *_dinic_py.arcs(n, edges), s, t)
    return value, frozenset(v for v in range(n) if level[v] >= 0)


def all_pairs_min_cut(n, edges, limit=64):
    """Exact min-cut value and source side for every vertex pair."""
    if n > limit:
        raise ValueError(f"n={n} above the oracle limit {limit}")
    table = {}
    for x in range(n):
        for y in range(x + 1, n):
            table[(x, y)] = dinic_min_cut(n, edges, x, y)
    return table


def brute_force_min_cut(n, edges, s, t):
    """Minimum st-cut by enumerating all bipartitions (n <= ~16)."""
    best = None
    rest = [v for v in range(n) if v not in (s, t)]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            side = {s, *extra}
            w = sum(wt for u, v, wt in edges if (u in side) != (v in side))
            if best is None or w < best[0]:
                best = (w, frozenset(side))
    return best


def path_min(t: CutTree, x, y):
    """Minimum edge weight on the x-to-y path of cut tree ``t`` (linear
    scan); the reference for ``query.min_cut_query``."""
    adj = t.adjacency()
    stack = [(x, None)]
    seen = {x}
    while stack:
        u, m = stack.pop()
        if u == y:
            return m
        for v, w, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append((v, w if m is None else min(m, w)))
    raise KeyError(f"{y} not in tree")


def region_cuts(lt: LeafTree):
    """The cuts of region tree ``lt`` as a frozenset of (leaf side, weight):
    equal for trees that hold the same cuts."""
    return frozenset((lt.leaves_under(node), p[1])
                     for node, p in lt.parent.items()
                     if p is not None and p[1] is not None)


def min_cut(lt: LeafTree, a, b):
    """Minimum internal edge weight on the leaf-to-leaf path of region tree
    ``lt``, with the child node of the witnessing edge; None if no weighted
    edge lies on the path or a leaf is absent."""
    if a not in lt.parent or b not in lt.parent:
        return None
    up_a = [a]
    while lt.parent[up_a[-1]] is not None:
        up_a.append(lt.parent[up_a[-1]][0])
    in_a = set(up_a)
    up_b = []
    x = b
    while x not in in_a:
        up_b.append(x)
        x = lt.parent[x][0]
    best = None
    for side in (up_a[:up_a.index(x)], up_b):
        for node in side:
            w = lt.parent[node][1]
            if w is not None and (best is None or w < best[0]):
                best = (w, node)
    return best


def collection_min_cut(collection: Collection, trees, a: int, b: int):
    """Minimum separating-subgraph weight between two original faces.

    Returns ``(weight, member index)``; ties go to the lowest member index.
    """
    if a == b:
        raise ValueError("the two faces must differ")
    faces = range(collection.face_count)
    if a not in faces or b not in faces:
        raise KeyError(f"face {a if a not in faces else b} is not an "
                       f"ordinary face of the original graph")
    best = None
    for i, t in enumerate(trees):
        w = path_min(t, a, b)
        if best is None or w < best[0]:
            best = (w, i)
    if best is None:
        raise ValueError("empty collection")
    return best


def lifted_witness(member: AnnotatedPlanar, a: int, b: int):
    """The member's minimum separating subgraph for original faces (a, b),
    lifted back to an edge set of the original graph (member cut edges plus
    all annotation cycles).

    The face side is the residual source side of one max-flow on the
    member's dual, which is the unique minimum cut under the perturbation.
    """
    n = 1 + max(max(x, y) for x, y, _, _ in member.dual)
    _, side = dinic_min_cut(
        n, [(x, y, w) for x, y, w, _ in member.dual], a, b)
    lifted = {e for x, y, _, e in member.dual if (x in side) != (y in side)}
    for cyc in member.annotation:
        lifted |= cyc
    return frozenset(lifted)


def dual_path(basis: HomologyBasis, a: int, b: int) -> frozenset:
    """Fixed a-to-b path between faces, through the basis's dual spanning
    tree."""
    g = basis.graph
    parent = _tree_parents(
        _adjacency(g.face_count, dual(g), basis.cotree_edges), a)
    return frozenset(_tree_path(parent, a, b))


def subgraph_signature(x, basis: HomologyBasis, ab=None):
    """Signature of an edge set, the XOR of its edges' signatures; with
    ``ab = (face_a, face_b)`` also returns the extended path-crossing bit."""
    bits = 0
    for e in x:
        bits ^= basis.edge_signature[e]
    if ab is None:
        return bits
    a, b = ab
    return bits, len(frozenset(x) & dual_path(basis, a, b)) % 2


def min_even_subgraph_oracle(g: EmbeddedGraph, basis: HomologyBasis, h: int):
    """Exhaustive reference: best even subset with signature h (small graphs)."""
    m = g.edge_count
    if m > 20:
        raise ValueError("oracle limited to small graphs")
    best = None
    for mask in range(1 << m):
        x = [e for e in range(m) if mask >> e & 1]
        deg = [0] * g.vertex_count
        for e in x:
            u, v, _ = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        if any(dg % 2 for dg in deg):
            continue
        if subgraph_signature(x, basis) != h:
            continue
        w = sum(g.weight(e) for e in x)
        if best is None or w < best[1]:
            best = (frozenset(x), w)
    if best is None:
        raise NoPathError(f"no even subgraph with signature {h}")
    return best


def even_subgraphs(g: EmbeddedGraph):
    """All even edge subsets, enumerated as the cycle space (tree + chords)."""
    adj = [[] for _ in range(g.vertex_count)]
    for e, (u, v, _) in enumerate(g.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    parent = {0: None}
    order = [0]
    for u in order:
        for v, e in adj[u]:
            if v not in parent:
                parent[v] = (u, e)
                order.append(v)
    tree = {p[1] for p in parent.values() if p}
    chords = [e for e in range(g.edge_count) if e not in tree]

    def tree_path(v):
        out = set()
        while parent[v] is not None:
            u, e = parent[v]
            out.add(e)
            v = u
        return out

    fundamental = []
    for e in chords:
        u, v, _ = g.edges[e]
        fundamental.append(frozenset({e} ^ (tree_path(u) ^ tree_path(v))))
    for mask in range(1 << len(chords)):
        x = frozenset()
        for i, cyc in enumerate(fundamental):
            if mask >> i & 1:
                x = x ^ cyc
        yield x


def min_separating_subgraph_exhaustive(g: EmbeddedGraph, a: int, b: int):
    """Minimum even null-homologous edge set separating faces a and b.

    Exhaustive over the cycle space; returns (edge set, weight).
    """
    basis = homology_basis(g)
    best = None
    for x in even_subgraphs(g):
        bits, ext = subgraph_signature(x, basis, ab=(a, b))
        if bits != 0 or ext != 1:
            continue
        w = sum(g.weight(e) for e in x)
        if best is None or w < best[1]:
            best = (x, w)
    if best is None:
        raise NoPathError(f"no separating subgraph for faces {a}, {b}")
    return best


def min_face_cut(g: EmbeddedGraph, a: int, b: int):
    """Min cut between two faces of g, computed as max-flow in the dual."""
    return dinic_min_cut(g.face_count, dual(g), a, b)


def is_simple_cycle(x, g: EmbeddedGraph) -> bool:
    x = frozenset(x)
    if not x:
        return False
    deg = {}
    for e in x:
        u, v, _ = g.edges[e]
        if u == v:
            return len(x) == 1
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity over x only
    verts = sorted(deg)
    seen = {verts[0]}
    stack = [verts[0]]
    adj = {}
    for e in x:
        u, v, _ = g.edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(verts)


def separates_faces(x, g: EmbeddedGraph, a: int, b: int) -> bool:
    """True if removing the duals of x disconnects face a from face b."""
    x = frozenset(x)
    adj = [[] for _ in range(g.face_count)]
    for e, (u, v, _) in enumerate(dual(g)):
        if e not in x:
            adj[u].append(v)
            adj[v].append(u)
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return b not in seen


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
