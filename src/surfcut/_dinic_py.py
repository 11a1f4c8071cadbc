"""Dinic maximum flow, pure Python reference implementation.

Works on undirected edges with exact integer capacities.  Returns both the
flow value and the source side of the induced minimum cut (the vertices
reachable from the source in the residual network).
"""

from __future__ import annotations

from collections import deque


def max_flow(n, edges, s, t):
    """Maximum s-t flow in an undirected graph.

    ``edges`` is a list of ``(u, v, capacity)``; returns ``(value, side)``
    where ``side`` is the frozenset of vertices residual-reachable from ``s``.
    """
    if s == t:
        raise ValueError("source equals sink")
    first = [-1] * n
    to, cap, nxt = [], [], []

    def add(u, v, c):
        to.append(v)
        cap.append(c)
        nxt.append(first[u])
        first[u] = len(to) - 1

    for u, v, c in edges:
        add(u, v, c)
        add(v, u, c)

    total = 0
    level = [0] * n
    while True:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            a = first[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
                a = nxt[a]
        if level[t] < 0:
            break
        cur = list(first)
        # iterative blocking-flow DFS
        while True:
            pushed = _augment(s, t, first, to, cap, nxt, level, cur)
            if pushed == 0:
                break
            total += pushed

    # the last level BFS, which missed t, labelled exactly the vertices
    # residual-reachable from s
    return total, frozenset(v for v in range(n) if level[v] >= 0)


def _augment(s, t, first, to, cap, nxt, level, cur):
    path = []
    u = s
    while True:
        if u == t:
            bottleneck = min(cap[a] for a in path)
            for a in path:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
            return bottleneck
        a = cur[u]
        advanced = False
        while a != -1:
            v = to[a]
            if cap[a] > 0 and level[v] == level[u] + 1:
                cur[u] = a
                path.append(a)
                u = v
                advanced = True
                break
            a = nxt[a]
        if advanced:
            continue
        cur[u] = -1
        level[u] = -1
        if not path:
            return 0
        u = to[path.pop() ^ 1]
