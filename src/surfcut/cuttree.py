"""Exact max-flow, Gomory-Hu cut trees and the dual cut tree of a planar graph.

Graphs here are plain weighted edge lists over integer vertex ids; the
embedded structure is only needed upstream.  The max-flow kernel is
``search(n, first, to, cap, nxt, s, t)`` on Dinic arc arrays (see
``_dinic_py``): the compiled extension ``_dinic`` when it is built, else the
pure Python ``_dinic_py`` (``SURFCUT_PURE=1`` forces the latter).
Capacities too large for the compiled kernel's 64-bit arithmetic go to the
pure one as well.  ``max_flow_on_arcs`` is the one entry to either kernel:
``max_flow_min_cut`` writes an edge list's arrays and calls it, and each
Gomory-Hu step calls it on its group's arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from . import _dinic_py
from .embed import EmbeddedGraph, dual
from .errors import QueryInputError

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
    if s == t:
        raise ValueError("source equals sink")
    positive = [(u, v, w) for u, v, w in edges if w > 0]
    if any(not (0 <= u < n and 0 <= v < n) for u, v, _ in positive):
        raise ValueError("edge endpoint out of range")
    value, level = max_flow_on_arcs(n, *_dinic_py.arcs(n, positive), s, t)
    return value, frozenset(v for v in range(n) if level[v] >= 0)


def max_flow_on_arcs(n, first, to, cap, nxt, s, t):
    """Max s-t flow on a network in the kernel's arc arrays (see
    ``_dinic_py``): ``(value, level)`` with ``level[v] >= 0`` exactly for the
    residual source side.  ``cap`` is left as it was."""
    if _fits_compiled(cap):
        return _dinic.search(n, first, to, cap, nxt, s, t)
    return _dinic_py.search(n, first, to, cap[:], nxt, s, t)


def _fits_compiled(cap):
    """Whether the compiled kernel is loaded and safe for the arc capacities
    ``cap``, which hold every edge's capacity twice, once per direction.
    That kernel holds capacities in signed 64-bit ints; a residual capacity
    is at most twice an edge's and the flow at most the total, so twice the
    total must stay below 2**63.  The kernel is checked first, so the pure
    kernel never sums."""
    return _dinic is not _dinic_py and sum(cap) < 2 ** 63


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

    def bipartitions(self):
        """The node set on the first-endpoint side of every edge, in edge
        order, from one rooted pass that collects the node set under every
        node."""
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
        """Parse ``to_json`` output.  Raises QueryInputError unless the
        payload holds distinct integer nodes and integer ``[u, v, w]`` edges,
        ``w >= 0``, that form a spanning tree over them, and a string
        ``host_checksum`` if it holds one."""
        payload = json.loads(text)
        if not (isinstance(payload, dict)
                and isinstance(payload.get("nodes"), list)
                and isinstance(payload.get("edges"), list)):
            raise QueryInputError(
                'cut tree must be an object with "nodes" and "edges" lists')
        comp = {v: v for v in payload["nodes"] if type(v) is int}
        if len(comp) != len(payload["nodes"]):
            raise QueryInputError("cut tree nodes must be distinct integers")

        def find(v):
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for e in payload["edges"]:
            if not (isinstance(e, list) and len(e) == 3
                    and all(type(x) is int for x in e)):
                raise QueryInputError(
                    f"cut tree edge {e!r} is not an integer [u, v, w]")
            if e[2] < 0:
                raise QueryInputError(
                    f"cut tree edge {e!r} has a negative weight")
            if e[0] not in comp or e[1] not in comp:
                raise QueryInputError(
                    f"cut tree edge {e!r} names a node the tree does not hold")
            a, b = find(e[0]), find(e[1])
            if a == b:
                raise QueryInputError(f"cut tree edge {e!r} closes a cycle")
            comp[a] = b
        if len(payload["edges"]) != len(comp) - 1:
            raise QueryInputError("cut tree edges do not span its nodes")
        checksum = payload.get("host_checksum", "")
        if not isinstance(checksum, str):
            raise QueryInputError(
                f'cut tree "host_checksum" {checksum!r} is not a string')
        return cls(tuple(payload["nodes"]),
                   tuple((u, v, w) for u, v, w in payload["edges"]),
                   checksum)


def host_checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gomory_hu(n, edges, terminals=None) -> CutTree:
    """Gomory-Hu tree over ``terminals`` (default: every vertex) by the
    contraction scheme of Gomory and Hu ("Multi-terminal network flows",
    1961).

    The vertices are kept in groups joined by a tree, and the groups holding
    two or more terminals wait in a queue.  Each step splits the first one
    by a minimum cut between its two smallest terminals, in the network
    where every subtree hanging off the group is contracted to one vertex.
    The part holding the smaller terminal keeps the group's place in the
    queue and the other part joins at the end.  So exactly |T|-1 max-flow
    calls are made, the cuts are nested by construction, and each finished
    group is labelled by its one terminal; the other vertices only carry
    flow.

    Each unfinished group keeps that contracted network itself, in the
    kernel's arc arrays (``max_flow_on_arcs``) over positions: one per
    member, and one super-vertex per tree edge leaving the group, standing
    for the subtree across that edge.  When the cut takes one terminal off
    alone, as most cuts do, that terminal's position becomes the new tree
    edge's super-vertex and the rest keeps the network as it is.  Any other
    cut partitions the network in one pass over it: each side keeps the
    edges with both ends on it and sees the other side as one new
    super-vertex, keyed by the new tree edge, that takes the cut edges
    summed per endpoint.  The super-vertices on the new group's side take
    their tree edges along, re-pointed to it; the networks across those
    edges stand for the same vertices as before and do not change.  A group
    left with one terminal keeps no network.  So a step costs time in its
    own network only: the input edges are read once, before the first step,
    and no step visits another group's network.

    The total capacity between every two positions is that of the
    contraction of the input, so the cut is too: the side is the set of
    positions residual-reachable from the source, which is the source side
    of the least minimum cut, the same for every maximum flow and every way
    of writing the network.  Hence the groups, and the tree, are those of
    rebuilding the contraction from the input at every step, ties included.

    Each max-flow runs from the split pair's lighter terminal, by weighted
    degree (the first one on a tie), and the group's side is the complement
    when it ran from the second.  Members are never contracted, so their
    degrees in a group's network are their degrees in the input.  Most
    splits cut off one light face, so the flow ends once every arc leaving
    that face is saturated, and the kernel labels the face alone without a
    last search.  Where every minimum cut is unique, as under the
    weight perturbation, the tree does not depend on the direction; with
    tied cuts it may hold other (equally minimum) sides.
    """
    degree = [0] * n
    net = []
    for u, v, w in edges:
        if u != v:
            degree[u] += w
            degree[v] += w
            net.append((u, v, w))
    terms = [sorted(set(range(n) if terminals is None else terminals))]
    # group -> None once it holds one terminal, else its network: the tree
    # edge at every position (-1 at a member) and the arc arrays
    nets = [([-1] * n, *_dinic_py.arcs(n, net)) if len(terms[0]) > 1
            else None]
    order = [0]                 # the queue, finished groups left in place
    where = list(range(n))      # terminal -> its position in its group
    tree = []                   # tree edge -> (group, group, weight)
    i = 0
    while True:
        # order[:i] is final: only order[i] splits, and new groups go last
        while i < len(order) and nets[order[i]] is None:
            i += 1
        if i == len(order):
            break
        g, b = order[i], len(terms)     # the group to split, the new one
        edge_at, first, to, cap, nxt = nets[g]
        ts = terms[g]
        s0 = s = ts[0]
        t = ts[1]
        flip = degree[t] < degree[s]
        if flip:
            s, t = t, s
        nc = len(first)
        value, level = max_flow_on_arcs(nc, first, to, cap, nxt,
                                        where[s], where[t])
        reach = nc - level.count(-1)
        if reach == 1 or reach == nc - 1:
            # one terminal cut off alone: its position becomes the new edge's
            # super-vertex, and the rest of the network stays as it is
            x = s if reach == 1 else t
            terms.append([x])
            ts.remove(x)
            edge_at[where[x]] = len(tree)
            nets.append(None)
            if len(ts) < 2:
                nets[g] = None
        else:
            side = [(y >= 0) != flip for y in level]   # True: s0's side
            new, size = [], [0, 0]  # position -> its position on its side
            for z in side:
                new.append(size[z])
                size[z] += 1
            inner, cut = ([], []), ({}, {})
            for y, x, w in zip(to[::2], to[1::2], cap[::2]):
                z, zy = side[x], side[y]
                x, y = new[x], new[y]
                if z == zy:
                    inner[z].append((x, y, w))
                else:
                    cut[z][x] = cut[z].get(x, 0) + w
                    cut[zy][y] = cut[zy].get(y, 0) + w
            for e, z in zip(edge_at, side):
                if e >= 0 and not z:
                    u, v, w = tree[e]
                    tree[e] = (b if u == g else u, b if v == g else v, w)
            terms[g] = [x for x in ts if side[where[x]]]
            terms.append([x for x in ts if not side[where[x]]])
            for x in ts:
                where[x] = new[where[x]]
            nets[g], net = [
                ([e for e, y in zip(edge_at, side) if y == z] + [len(tree)],
                 *_dinic_py.arcs(size[z] + 1, inner[z] + [
                     (x, size[z], w) for x, w in cut[z].items()]))
                if len(terms[h]) > 1 else None
                for z, h in ((True, g), (False, b))]
            nets.append(net)
        order.append(b)
        if terms[b][0] == s0:       # s0's group keeps the slot
            order[i], order[-1] = b, g
        tree.append((g, b, value))
    label = [ts[0] for ts in terms]
    out = sorted((min(label[a], label[b]), max(label[a], label[b]), w)
                 for a, b, w in tree)
    return CutTree(tuple(sorted(label)), tuple(out))


def dual_cut_tree(g: EmbeddedGraph) -> CutTree:
    """Cut tree over the ordinary faces of ``g``: Gomory-Hu on the dual graph
    with those faces as terminals.  Boundary faces only carry flow, so a
    graph with F ordinary faces costs F-1 max-flows."""
    d = dual(g)
    return gomory_hu(d.vertex_count, d.edges, terminals=g.ordinary_faces())


def validate_cut_tree(t: CutTree, n, edges):
    """Certify a Gomory-Hu tree exactly; returns a list of violations.

    Each tree edge's weight must equal the cut of its bipartition, and one
    max-flow per edge (F-1 in all) must find that cut minimum between the
    edge's endpoints.  Then every pair's minimum cut is the lightest edge on
    its tree path: that edge's side separates the pair, and a minimum cut of
    the pair separates some consecutive endpoints on the path.  An edge whose
    side is no minimum cut gives its own endpoints a wrong path minimum, so
    the report is empty exactly when every edge weight is its side's cut and
    every pair's path minimum equals the max-flow oracle.
    """
    report = []
    if sorted(t.nodes) != sorted(set(t.nodes)) or len(t.nodes) != n:
        report.append(f"node set mismatch: {len(t.nodes)} nodes for host n={n}")
        return report
    for (u, v, w), side in zip(t.edges, t.bipartitions()):
        cut = sum(wt for a, b, wt in edges if (a in side) != (b in side))
        if cut != w:
            report.append(f"edge {u}-{v}: tree weight {w} but cut weight {cut}")
        want, _ = max_flow_min_cut(n, edges, u, v)
        if want != w:
            report.append(f"edge {u}-{v}: tree weight {w} but min cut {want}")
    return report
