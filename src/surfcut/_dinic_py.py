"""Dinic maximum flow, pure Python kernel.

Works on undirected edges with exact integer capacities.  Returns both the
flow value and the source side of the induced minimum cut (the vertices
reachable from the source in the residual network).

The network lives in four arc arrays: arc ``2i`` runs along edge i and arc
``2i + 1`` back, ``to[a]`` is an arc's head (so ``to[a ^ 1]`` is its tail),
``cap[a]`` its residual capacity, and ``first[u]``/``nxt[a]`` thread the arcs
leaving each vertex into a list ended by -1.  ``arcs`` writes them from an edge
list, and ``search`` runs the flow on them.  The compiled kernel, the
hand-written ``_dinic.c``, exports the same ``search`` and implements the same
algorithm, so the two are edited together; it reads the arrays and leaves
``cap`` as it was, while this ``search`` leaves it residual.  Both are called
through ``cuttree.max_flow_on_arcs``, which hands this one a copy of ``cap``.
"""

from __future__ import annotations


def arcs(n, edges):
    """The arc arrays ``(first, to, cap, nxt)`` of ``(u, v, capacity)``
    edges over vertices ``0..n-1``."""
    to = [x for u, v, _ in edges for x in (v, u)]
    cap = [c for _, _, c in edges for _ in (0, 1)]
    first = [-1] * n
    nxt = [0] * len(to)
    for a in range(len(to)):
        u = to[a ^ 1]
        nxt[a] = first[u]
        first[u] = a
    return first, to, cap, nxt


def search(n, first, to, cap, nxt, s, t):
    """Dinic's algorithm on threaded arc arrays; ``cap`` ends residual.

    Returns ``(value, level)``: ``level[v] >= 0`` exactly for the vertices
    residual-reachable from ``s``, the source side of a minimum cut.

    Each phase's level search stops once it has labelled the sink: by then
    every vertex below the sink's level is labelled, and the blocking flow
    only walks arcs one level up towards the sink, so no other vertex at or
    past its level plays a part.  The last search, which misses the sink,
    runs in full, so its levels mark the residual source side.
    """
    total = 0
    while True:
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
                    if v == t:
                        break
                    queue.append(v)
                a = nxt[a]
            else:
                continue
            break           # the sink is labelled
        else:
            return total, level
        # blocking flow: one depth-first walk along arcs one level up; ``cur``
        # keeps each vertex's next arc to try, a dead end loses its level,
        # and after each augmentation the walk backs up to the tail of the
        # first arc it saturated
        cur = first[:]
        path = []
        u = s
        want = 1
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
                want = k + 1
                del path[k:]
                continue
            a = cur[u]
            while a != -1 and not (cap[a] > 0 and level[to[a]] == want):
                a = nxt[a]
            cur[u] = a
            if a != -1:
                path.append(a)
                u = to[a]
                want += 1
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
                want -= 1
            else:
                break
