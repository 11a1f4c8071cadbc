"""Instance generators: embedded grids, triangulations and random graphs."""

from __future__ import annotations

import random

from .embed import EmbeddedGraph, twin


def torus_grid(k: int, seed=None, weights=None) -> EmbeddedGraph:
    """k-by-k grid on the torus (genus 1), wrap-around in both directions.

    Vertex (r, c) has id ``r*k + c``; east edges are ids ``0..k*k-1``, south
    edges ``k*k..2*k*k-1``.  Unit weights unless ``weights`` or ``seed`` given.
    """
    if k < 2:
        raise ValueError("torus grid needs k >= 2")
    n = k * k
    if weights is None:
        if seed is None:
            weights = [1] * (2 * n)
        else:
            rng = random.Random(seed)
            weights = [rng.randint(1, 100) for _ in range(2 * n)]

    def vid(r, c):
        return (r % k) * k + (c % k)

    edges = []
    for v in range(n):
        r, c = divmod(v, k)
        edges.append((v, vid(r, c + 1), weights[v]))
    for v in range(n):
        r, c = divmod(v, k)
        edges.append((v, vid(r + 1, c), weights[n + v]))
    rotations = []
    for v in range(n):
        r, c = divmod(v, k)
        east = 2 * v
        south = 2 * (n + v)
        west = 2 * vid(r, c - 1) + 1
        north = 2 * (n + vid(r - 1, c)) + 1
        rotations.append((east, south, west, north))
    return EmbeddedGraph(n, tuple(edges), tuple(rotations))


def belt_torus(k: int, rows, seed=None) -> EmbeddedGraph:
    """``torus_grid(k)`` whose east edges in ``rows`` are light.

    The east edges of one row close a non-contractible cycle, a belt.  Belt
    edges weigh 1..2 and all others 50..100, drawn from ``random.Random(seed)``
    in edge-id order.  Two belts of one homology class bound a cylinder, so
    the minimum cut between faces on different sides of two belts is often
    that pair of belts: a cut that only a cycle member of the genus reduction
    holds, with the belt it was opened along as its annotation.
    """
    rows = set(rows)
    if not rows <= set(range(k)):
        raise ValueError(f"belt rows {sorted(rows)} outside 0..{k - 1}")
    rng = random.Random(seed)
    weights = [rng.randint(1, 2) if e < k * k and e // k in rows
               else rng.randint(50, 100) for e in range(2 * k * k)]
    return torus_grid(k, weights=weights)


def triangle(weights=(1, 1, 1)) -> EmbeddedGraph:
    """Triangle on the sphere: 3 vertices, 3 edges, 2 faces."""
    edges = ((0, 1, weights[0]), (1, 2, weights[1]), (2, 0, weights[2]))
    rotations = ((0, 5), (1, 2), (3, 4))
    return EmbeddedGraph(3, edges, rotations)


def planar_triangulation(n: int, seed: int, max_weight: int = 100) -> EmbeddedGraph:
    """Random stacked triangulation with ``n`` vertices on the sphere.

    Grown from a triangle by repeatedly placing a new vertex inside a random
    triangular face and joining it to the three corners.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    g = triangle()
    edges = [list(e) for e in g.edges]
    rotations = [list(r) for r in g.rotations]
    for w in range(3, n):
        g = EmbeddedGraph(w, tuple(tuple(e) for e in edges),
                          tuple(tuple(r) for r in rotations))
        faces = g.faces()
        d1, d2, d3 = faces[rng.randrange(len(faces))]
        corners = []
        for e_new, (d_prev, d_next) in enumerate(
                ((d3, d1), (d1, d2), (d2, d3))):
            v = g.dart_head(d_prev)
            eid = len(edges) + e_new
            rot = rotations[v]
            i = rot.index(twin(d_prev))
            rot.insert(i + 1, 2 * eid + 1)
            corners.append(eid)
        ea, eb, ec = corners
        edges.extend([[w, g.dart_head(d3), 1], [w, g.dart_head(d1), 1],
                      [w, g.dart_head(d2), 1]])
        rotations.append([2 * ea, 2 * ec, 2 * eb])
    wts = [rng.randint(1, max_weight) for _ in edges]
    final = tuple((u, v, wt) for (u, v, _), wt in zip(edges, wts))
    g = EmbeddedGraph(n, final, tuple(tuple(r) for r in rotations))
    assert g.genus == 0
    return g


def k4() -> EmbeddedGraph:
    """Complete graph on 4 vertices embedded in the sphere (4 faces)."""
    g = planar_triangulation(4, seed=0)
    return g.with_weights([1] * g.edge_count)


def cycle_graph(n: int, weights=None) -> EmbeddedGraph:
    """Cycle with a sphere embedding (2 faces)."""
    if n < 1:
        raise ValueError("cycle graph needs n >= 1")
    if weights is None:
        weights = [1] * n
    edges = tuple((i, (i + 1) % n, weights[i]) for i in range(n))
    rotations = tuple((2 * i, 2 * ((i - 1) % n) + 1) for i in range(n))
    return EmbeddedGraph(n, edges, rotations)


def add_edge_between_faces(g: EmbeddedGraph, f1: int, f2: int,
                           weight: int = 1) -> EmbeddedGraph:
    """Add one edge joining corners of two distinct faces, raising the genus."""
    if f1 == f2:
        raise ValueError("faces must differ")
    faces = g.faces()
    d1, d2 = faces[f1][0], faces[f2][0]
    v1, v2 = g.dart_head(d1), g.dart_head(d2)
    eid = g.edge_count
    rotations = [list(r) for r in g.rotations]
    rotations[v1].insert(rotations[v1].index(twin(d1)) + 1, 2 * eid)
    rotations[v2].insert(rotations[v2].index(twin(d2)) + 1, 2 * eid + 1)
    edges = g.edges + ((v1, v2, weight),)
    out = EmbeddedGraph(g.vertex_count, edges, tuple(tuple(r) for r in rotations))
    assert out.genus == g.genus + 1
    return out


def double_torus_one_vertex() -> EmbeddedGraph:
    """Smallest genus-2 map: one vertex, four loops, one octagonal face."""
    edges = tuple((0, 0, 1) for _ in range(4))
    rotations = ((0, 2, 1, 3, 4, 6, 5, 7),)
    return EmbeddedGraph(1, edges, rotations)


def random_connected_graph(n: int, seed: int, extra_edges=None,
                           max_weight: int = 100):
    """Random connected multigraph as ``(n, [(u, v, w), ...])`` (no embedding)."""
    rng = random.Random(seed)
    edges = []
    order = list(range(1, n))
    rng.shuffle(order)
    for v in order:
        u = rng.randrange(v) if v > 1 else 0
        edges.append((u, v, rng.randint(1, max_weight)))
    if extra_edges is None:
        extra_edges = rng.randrange(0, 2 * n)
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rng.randint(1, max_weight)))
    return n, edges
