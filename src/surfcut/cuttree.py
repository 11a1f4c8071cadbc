"""Exact max-flow, Gomory-Hu cut trees, region trees, planar specialization.

Graphs here are plain weighted edge lists over integer vertex ids; the
embedded structure is only needed upstream.  The max-flow kernel is the
compiled Dinic extension when available, with a pure Python fallback
(``SURFCUT_PURE=1`` forces the fallback).  Capacities too large for the
compiled kernel's 64-bit arithmetic go to the fallback as well.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from . import _dinic_py
from .embed import EmbeddedGraph, dual
from .errors import DisconnectedGraphError

if os.environ.get("SURFCUT_PURE"):
    _dinic = _dinic_py
    KERNEL = "pure"
else:
    try:
        from . import _dinic
        KERNEL = "compiled"
    except ImportError:
        _dinic = _dinic_py
        KERNEL = "pure"


def max_flow_min_cut(n, edges, s, t):
    """Exact min st-cut: ``(value, side_of_s)`` with the residual source side."""
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("terminal out of range")
    arcs = [(u, v, w) for u, v, w in edges if w > 0]
    if any(not (0 <= u < n and 0 <= v < n) for u, v, _ in arcs):
        raise ValueError("edge endpoint out of range")
    # The compiled kernel holds capacities in signed 64-bit ints.  A residual
    # capacity is at most twice an edge's and the flow at most the total, so
    # twice the total must stay below 2**63.
    if 2 * sum(w for _, _, w in arcs) >= 2 ** 63:
        return _dinic_py.max_flow(n, arcs, s, t)
    return _dinic.max_flow(n, arcs, s, t)


@dataclass(frozen=True)
class CutTree:
    """Spanning tree whose edges carry the weights of nested minimum cuts."""

    nodes: tuple
    edges: tuple            # (u, v, weight) over node ids
    host_checksum: str = ""

    def __post_init__(self):
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("cut tree must be a spanning tree")

    def adjacency(self):
        adj = {v: [] for v in self.nodes}
        for i, (u, v, w) in enumerate(self.edges):
            adj[u].append((v, w, i))
            adj[v].append((u, w, i))
        return adj

    def path_min(self, x, y):
        """Minimum edge weight on the x-to-y tree path (linear scan)."""
        adj = self.adjacency()
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

    def path_min_edge(self, x, y):
        """Index of the minimum-weight edge on the x-to-y tree path."""
        adj = self.adjacency()
        parent = {x: None}
        stack = [x]
        while stack:
            u = stack.pop()
            if u == y:
                break
            for v, w, i in adj[u]:
                if v not in parent:
                    parent[v] = (u, w, i)
                    stack.append(v)
        best = None
        v = y
        while parent[v] is not None:
            u, w, i = parent[v]
            if best is None or w < best[0]:
                best = (w, i)
            v = u
        if best is None:
            raise KeyError("trivial path")
        return best[1]

    def bipartition(self, edge_index):
        """Node set on the first-endpoint side of the given tree edge."""
        u, v, _ = self.edges[edge_index]
        adj = self.adjacency()
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, _, i in adj[x]:
                if i != edge_index and y not in side:
                    side.add(y)
                    stack.append(y)
        return frozenset(side)

    def bipartitions(self):
        """``bipartition(i)`` for every edge, in edge order, from one rooted
        pass that collects the node set under every node."""
        adj = self.adjacency()
        root = self.nodes[0]
        up = {root: None}           # node -> index of the edge to its parent
        order = [root]
        for x in order:
            for y, _, i in adj[x]:
                if y not in up:
                    up[y] = i
                    order.append(y)
        under = {}
        for x in reversed(order):
            under[x] = frozenset((x,)).union(
                *(under[y] for y, _, i in adj[x] if up[y] == i))
        everything = frozenset(self.nodes)
        return [under[u] if up[u] == i else everything - under[v]
                for i, (u, v, _) in enumerate(self.edges)]

    def with_weights(self, weights):
        edges = tuple((u, v, w) for (u, v, _), w in zip(self.edges, weights))
        return CutTree(self.nodes, edges, self.host_checksum)

    def to_json(self) -> str:
        payload = {"nodes": list(self.nodes),
                   "edges": [[u, v, w] for u, v, w in self.edges],
                   "host_checksum": self.host_checksum}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CutTree":
        payload = json.loads(text)
        return cls(tuple(payload["nodes"]),
                   tuple((u, v, w) for u, v, w in payload["edges"]),
                   payload.get("host_checksum", ""))


def host_checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gomory_hu(n, edges, vertices=None, checksum="") -> CutTree:
    """Gomory-Hu tree by the classic contraction scheme.

    ``vertices`` relabels node ids in the output (defaults to range(n)).
    Exactly n-1 max-flow calls; intermediate cuts are nested by construction.
    """
    if vertices is None:
        vertices = tuple(range(n))
    if n == 1:
        return CutTree((vertices[0],), (), checksum)
    # tree over groups of vertices
    groups = [sorted(range(n))]
    tree_edges = []                      # (group_i, group_j, weight)
    while True:
        gi = next((i for i, grp in enumerate(groups) if len(grp) > 1), None)
        if gi is None:
            break
        s, t = groups[gi][0], groups[gi][1]
        cid, nc, group_cid = _contract(n, groups, tree_edges, gi)
        cedges = {}
        for u, v, w in edges:
            a, b = cid[u], cid[v]
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            cedges[key] = cedges.get(key, 0) + w
        value, side = max_flow_min_cut(
            nc, [(a, b, w) for (a, b), w in cedges.items()],
            cid[s], cid[t])
        in_a = [v for v in groups[gi] if cid[v] in side]
        in_b = [v for v in groups[gi] if cid[v] not in side]
        if not in_a or not in_b:
            raise DisconnectedGraphError("cut failed to split the group")
        groups[gi] = in_a
        bi = len(groups)
        groups.append(in_b)
        moved = []
        for k, (x, y, w) in enumerate(tree_edges):
            other = y if x == gi else (x if y == gi else None)
            if other is None:
                continue
            if group_cid[other] not in side:
                moved.append(k)
        for k in moved:
            x, y, w = tree_edges[k]
            other = y if x == gi else x
            tree_edges[k] = (bi, other, w)
        tree_edges.append((gi, bi, value))
    label = {i: vertices[grp[0]] for i, grp in enumerate(groups)}
    out = tuple(sorted((min(label[a], label[b]), max(label[a], label[b]), w)
                       for a, b, w in tree_edges))
    return CutTree(tuple(sorted(vertices)), out, checksum)


def _contract(n, groups, tree_edges, gi):
    """Map each vertex to a contracted id: members of group gi keep their own
    ids (0..k-1 within the contracted graph); each subtree hanging off gi in
    the current tree becomes one contracted vertex.

    Returns (vertex -> contracted id, contracted vertex count,
    group -> contracted id)."""
    adj = {i: [] for i in range(len(groups))}
    for a, b, _ in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    comp = {}               # group index -> component id (contracted)
    members = groups[gi]
    local = {v: i for i, v in enumerate(members)}
    nxt = len(members)
    for start in sorted(adj):
        if start == gi or start in comp:
            continue
        # flood this side without passing through gi
        stack = [start]
        found = [start]
        seen = {start, gi}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    found.append(y)
                    stack.append(y)
        for x in found:
            comp[x] = nxt
        nxt += 1
    cid = {}
    for i, grp in enumerate(groups):
        for v in grp:
            cid[v] = local[v] if i == gi else comp[i]
    group_cid = {}
    for i in range(len(groups)):
        group_cid[i] = local[groups[i][0]] if i == gi else comp[i]
    return cid, nxt, group_cid


def embedded_host_edges(g: EmbeddedGraph):
    return [(u, v, w) for u, v, w in g.edges]


def dual_cut_tree(g: EmbeddedGraph, annotation_weight: int = 0,
                  checksum: str = "") -> CutTree:
    """Cut tree over the faces of ``g``: Gomory-Hu on the dual graph, then a
    uniform annotation offset added to every tree edge."""
    d = dual(g)
    t = gomory_hu(d.vertex_count, embedded_host_edges(d), checksum=checksum)
    if annotation_weight:
        t = t.with_weights([w + annotation_weight for _, _, w in t.edges])
    return t


def validate_cut_tree(t: CutTree, n, edges, pair_check=True):
    """Check both cut tree invariants exactly; returns a list of violations."""
    report = []
    if sorted(t.nodes) != sorted(set(t.nodes)) or len(t.nodes) != n:
        report.append(f"node set mismatch: {len(t.nodes)} nodes for host n={n}")
        return report
    for i, (u, v, w) in enumerate(t.edges):
        side = t.bipartition(i)
        cut = sum(wt for a, b, wt in edges if (a in side) != (b in side))
        if cut != w:
            report.append(f"edge {u}-{v}: tree weight {w} but cut weight {cut}")
    if pair_check:
        nodes = list(t.nodes)
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                want, _ = max_flow_min_cut(n, edges, x, y)
                got = t.path_min(x, y)
                if got != want:
                    report.append(f"pair {x},{y}: tree {got} oracle {want}")
    return report
