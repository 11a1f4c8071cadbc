"""Boykov-Kolmogorov maximum flow, pure Python kernel.

Works on undirected edges with exact integer capacities.  Returns both the
flow value and the source side of the induced minimum cut (the vertices
reachable from the source in the residual network).

The network lives in four arc arrays: arc ``2i`` runs along edge i and arc
``2i + 1`` back, ``to[a]`` is an arc's head (so ``to[a ^ 1]`` is its tail),
``cap[a]`` its residual capacity, and ``first[u]``/``nxt[a]`` thread the arcs
leaving each vertex into a list ended by -1.  ``arcs`` writes them from an edge
list, and ``search`` runs the flow on them.

``search`` is the two-tree algorithm of Boykov and Kolmogorov ("An
experimental comparison of min-cut/max-flow algorithms for energy
minimization in vision", IEEE TPAMI 26(9), 2004).  A source tree and a sink
tree are grown once per call, along residual arcs, and each augmenting path
runs from the source down its tree, across one arc that joins the trees, and
down the sink tree.  An augmentation saturates a few tree arcs; only the
subtrees those arcs cut off are repaired, where Dinic's algorithm would
relabel the whole network in its next phase.  Before any growth, and after
every augmentation, the source's arcs are checked: once none has residual
capacity left, the flow is maximum and the source side is ``{s}``, which is
how most Gomory-Hu cuts end.  Otherwise the call ends when no vertex is
active.  The source tree is then closed under residual arcs, and it holds
no sink-tree vertex, so it is exactly the set residual-reachable from ``s``:
the source side of the least minimum cut, the same for every maximum flow.
So every cut tree built on this kernel equals one built on any other exact
max-flow, ties included; ``oracle.dinic_search`` keeps Dinic's algorithm as
the independent reference that tests compare it with.

Augmenting paths here are not shortest paths, so unlike Dinic's algorithm
this one has no strongly polynomial bound; its paper gives O(m n^2 |C|) for
a minimum cut of weight |C|.  On 800 stress pairs in four families (random
sparse graphs on 200 vertices with weights up to 2^40, 15-by-15 grids with
weights 2^0..2^30, Pareto-weighted planar duals on 336 faces, chains of 200
vertices with shortcuts), this kernel made 1.01-1.16x the augmenting paths
of Dinic's algorithm per family, 113 against 74 at worst on one pair, in
0.56-0.72x its time.  The slowest single pair, on a Pareto-weighted planar
dual, took 1.34x Dinic's time, and whole Gomory-Hu trees on such duals
0.62-0.81x (pure Python, one process).

The compiled kernel, the hand-written ``_dinic.c``, exports the same
``search`` and implements the same algorithm, so the two are edited
together; it reads the arrays and leaves ``cap`` as it was, while this
``search`` leaves it residual.  Both are called through
``cuttree.max_flow_on_arcs``, which hands this one a copy of ``cap``.  The
module names ``_dinic_py`` and ``_dinic`` predate the algorithm and are kept,
so that the build, CI and the imports stay as they are.
"""

from __future__ import annotations

from collections import deque


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
    """Boykov-Kolmogorov max-flow on threaded arc arrays; ``cap`` ends
    residual.

    Returns ``(value, level)``: ``level[v] >= 0`` (it is 0) exactly for the
    vertices residual-reachable from ``s``, the source side of a minimum
    cut, and -1 elsewhere.

    ``tree[v]`` is 1 in the source tree, -1 in the sink tree and 0 for a
    free vertex, and ``par[v]`` is the arc from v to its parent: -2 at the
    two roots, -1 at a free vertex or an orphan.  A source-tree vertex is
    entered from its parent along ``par[v] ^ 1``, and a sink-tree vertex
    leaves along ``par[v]`` toward the sink, so that arc has residual
    capacity while v is attached.  A FIFO holds the active vertices, each
    at most once, and each keeps its current arc across augmentations; one
    that is made active again starts over at its first arc, since an arc it
    passed may now lead out of its tree.
    """
    a = first[s]
    while a != -1 and cap[a] <= 0:
        a = nxt[a]
    level = [-1] * n
    if a == -1:                 # every arc leaving s is saturated
        level[s] = 0
        return 0, level
    tree = [0] * n
    par = [-1] * n
    cur = first[:]
    queued = [False] * n
    tree[s], tree[t] = 1, -1
    par[s] = par[t] = -2
    queued[s] = queued[t] = True
    active = deque((s, t))
    orphans = []
    total = 0
    while active:
        v = active[0]
        side = tree[v]
        a = cur[v]
        # growth: scan v's arcs from its current arc; a free vertex joins
        # v's tree, and an arc into the other tree ends the scan
        if side > 0:
            while a != -1:
                if cap[a] > 0:
                    w = to[a]
                    x = tree[w]
                    if x == 0:
                        tree[w] = 1
                        par[w] = a ^ 1
                        cur[w] = first[w]
                        if not queued[w]:
                            queued[w] = True
                            active.append(w)
                    elif x < 0:
                        break
                a = nxt[a]
        elif side < 0:
            while a != -1:
                if cap[a ^ 1] > 0:
                    w = to[a]
                    x = tree[w]
                    if x == 0:
                        tree[w] = -1
                        par[w] = a ^ 1
                        cur[w] = first[w]
                        if not queued[w]:
                            queued[w] = True
                            active.append(w)
                    elif x > 0:
                        break
                a = nxt[a]
        else:
            a = -1              # v was freed while it waited
        if a == -1:
            active.popleft()
            queued[v] = False
            continue
        cur[v] = a
        # augmentation along the bridge b from the source tree to the sink
        # tree: the bottleneck, then the push, which orphans every vertex
        # whose arc from its parent saturates
        b = a if side > 0 else a ^ 1
        d = cap[b]
        u = to[b ^ 1]
        while par[u] >= 0:
            e = par[u]
            if cap[e ^ 1] < d:
                d = cap[e ^ 1]
            u = to[e]
        u = to[b]
        while par[u] >= 0:
            e = par[u]
            if cap[e] < d:
                d = cap[e]
            u = to[e]
        total += d
        cap[b] -= d
        cap[b ^ 1] += d
        u = to[b ^ 1]
        while par[u] >= 0:
            e = par[u]
            cap[e] += d
            cap[e ^ 1] -= d
            if cap[e ^ 1] == 0:
                par[u] = -1
                orphans.append(u)
            u = to[e]
        u = to[b]
        while par[u] >= 0:
            e = par[u]
            cap[e] -= d
            cap[e ^ 1] += d
            if cap[e] == 0:
                par[u] = -1
                orphans.append(u)
            u = to[e]
        a = first[s]
        while a != -1 and cap[a] <= 0:
            a = nxt[a]
        if a == -1:             # the source exit
            level[s] = 0
            return total, level
        # adoption: an orphan takes a same-tree neighbour, with a residual
        # arc on the tree's side, whose parent chain reaches the root, or
        # else it is freed, its children become orphans and the neighbours
        # that could grow into it again become active
        while orphans:
            u = orphans.pop()
            side = tree[u]
            a = first[u]
            while a != -1:
                w = to[a]
                if tree[w] == side and cap[a ^ 1 if side > 0 else a] > 0:
                    x = w
                    while par[x] >= 0:
                        x = to[par[x]]
                    if par[x] == -2:
                        par[u] = a
                        break
                a = nxt[a]
            if a != -1:
                continue
            tree[u] = 0
            a = first[u]
            while a != -1:
                w = to[a]
                if tree[w] == side:
                    e = par[w]
                    if e >= 0 and to[e] == u:
                        par[w] = -1
                        orphans.append(w)
                    if cap[a ^ 1 if side > 0 else a] > 0:
                        cur[w] = first[w]
                        if not queued[w]:
                            queued[w] = True
                            active.append(w)
                a = nxt[a]
    for v in range(n):
        if tree[v] > 0:
            level[v] = 0
    return total, level
