"""Exact max-flow, Gomory-Hu cut trees and the dual cut tree of a planar graph.

Graphs here are plain weighted edge lists over integer vertex ids; the
embedded structure is only needed upstream, and ``dual_cut_tree`` reads the
dual's edge list from ``embed.dual``.  The max-flow kernel is
``search(n, first, to, cap, nxt, s, t)`` on threaded arc arrays, Boykov and
Kolmogorov's two-tree algorithm (see ``_dinic_py``): the compiled extension
``_dinic`` when it is built, else the pure Python ``_dinic_py``
(``SURFCUT_PURE=1`` forces the latter).
A network whose capacities sum past the compiled kernel's 64-bit range goes
to the pure one as well, on that kernel's own OverflowError.
``max_flow_on_arcs`` is the one entry to either kernel:
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
    residual source side.  ``cap`` is left as it was.  The compiled kernel
    raises OverflowError when the capacities sum past its 64-bit range, and
    the pure kernel then takes the network."""
    if _dinic is not _dinic_py:
        try:
            return _dinic.search(n, first, to, cap, nxt, s, t)
        except OverflowError:
            pass
    return _dinic_py.search(n, first, to, cap[:], nxt, s, t)


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
    cut is paid for by its smaller side, counted in live positions.  That
    side becomes the new group: it gets arc arrays of its own, with the
    other side as one super-vertex keyed by the new tree edge that takes the
    cut edges summed per endpoint, and only its own super-vertices' tree
    edges are re-pointed to it.  The larger side keeps the group and its
    arrays, and the smaller side is contracted in place into one new
    position: the arcs between the two sides are re-threaded onto it, and
    the old positions stay behind, dead, with no arcs.  Once a network's
    dead positions would outnumber its live ones, the larger side is
    written out afresh instead, so both kernels' per-call cost stays in
    proportion to the live network.  A position is copied only when it
    lands on a smaller side, or in a rewrite that the dead positions before
    it pay for; so all partitions together cost O((n+m) log n), not O(n+m)
    each.  The networks across the re-pointed edges stand for the same
    vertices as before and do not change, and a group left with one
    terminal keeps no network.  So a step costs time in its own network
    only: the input edges are read once, before the first step, and no step
    visits another group's network.

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
    splits cut off one light face, so the flow ends at the kernel's source
    exit, once every arc leaving that face is saturated, with the face alone
    as its side.  Where every minimum cut is unique, as under the
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
    # group -> its terminals, largest first; a terminal that left the group
    # stays in the list until it comes last
    terms = [sorted(set(range(n) if terminals is None else terminals),
                    reverse=True)]
    owner = [-1] * n            # terminal -> its group
    for x in terms[0]:
        owner[x] = 0
    count = [len(terms[0])]     # group -> its number of terminals
    # group -> None once it holds one terminal, else its network: at every
    # position its vertex, ~e for the super-vertex of tree edge e or None
    # once dead, then the arc arrays and the number of live positions
    nets = [(list(range(n)), *_dinic_py.arcs(n, net), n) if count[0] > 1
            else None]
    order = [0]                 # the queue, finished groups left in place
    where = list(range(n))      # member -> its position in its group
    tree = []                   # tree edge -> (group, group, weight)
    i = 0
    while True:
        # order[:i] is final: only order[i] splits, and new groups go last
        while i < len(order) and nets[order[i]] is None:
            i += 1
        if i == len(order):
            break
        g, b, e = order[i], len(terms), len(tree)  # the new group and edge
        at, first, to, cap, nxt, live = nets[g]
        ts = terms[g]
        while owner[ts[-1]] != g:
            ts.pop()
        while owner[ts[-2]] != g:
            del ts[-2]
        s0 = s = ts[-1]
        t = ts[-2]
        flip = degree[t] < degree[s]
        if flip:
            s, t = t, s
        value, level = max_flow_on_arcs(len(first), first, to, cap, nxt,
                                        where[s], where[t])
        reach = len(level) - level.count(-1)
        if reach == 1 or reach == live - 1:
            # one terminal cut off alone: its position becomes the new edge's
            # super-vertex, and the rest of the network stays as it is
            x = s if reach == 1 else t
            at[where[x]] = ~e
            part = [x]
            nets.append(None)
        else:
            # the smaller side: the source side (level >= 0) when ``inside``
            inside = 2 * reach <= live
            small = [p for p, y in enumerate(level)
                     if (y >= 0) == inside and at[p] is not None]
            part = []
            for p in small:
                x = at[p]
                if x < 0:
                    u, v, w = tree[~x]
                    tree[~x] = (b if u == g else u, b if v == g else v, w)
                elif owner[x] == g:
                    part.append(x)
            part.sort(reverse=True)
            nets.append(_side_network(nets[g], small, e, where)
                        if len(part) > 1 else None)
            live -= len(small) - 1
            if count[g] - len(part) < 2:
                pass                # the larger side is finished too
            elif len(at) + 1 - live > live:
                # dead positions would outnumber live ones: write the larger
                # side afresh
                nets[g] = _side_network(nets[g], [
                    p for p, y in enumerate(level)
                    if (y >= 0) != inside and at[p] is not None], e, where)
            else:
                # contract the smaller side in place into position q
                q = len(at)
                at.append(~e)
                first.append(-1)
                for p in small:
                    a = first[p]
                    while a != -1:
                        a_next = nxt[a]
                        if (level[to[a]] >= 0) != inside:
                            to[a ^ 1] = q
                            nxt[a] = first[q]
                            first[q] = a
                        a = a_next
                    first[p] = -1
                    at[p] = None
                nets[g] = (at, first, to, cap, nxt, live)
        terms.append(part)
        count.append(len(part))
        count[g] -= len(part)
        for x in part:
            owner[x] = b
        if count[g] < 2:
            nets[g] = None
        order.append(b)
        if owner[s0] == b:          # s0's group keeps the slot
            order[i], order[-1] = b, g
        tree.append((g, b, value))
    label = []
    for h, ts in enumerate(terms):
        while owner[ts[-1]] != h:
            ts.pop()
        label.append(ts[-1])
    out = sorted((min(label[a], label[b]), max(label[a], label[b]), w)
                 for a, b, w in tree)
    return CutTree(tuple(sorted(label)), tuple(out))


def _side_network(net, positions, e, where):
    """The network of ``positions`` of a group's ``net`` in arc arrays of
    their own, the rest of it contracted into one super-vertex for tree
    edge ``e``, which takes the edges to it summed per endpoint.  Each
    member's ``where`` becomes its new position."""
    at, first, to, cap, nxt, _ = net
    new = {p: j for j, p in enumerate(positions)}
    k = len(positions)
    inner, cut = [], {}
    for j, p in enumerate(positions):
        x = at[p]
        if x >= 0:
            where[x] = j
        a = first[p]
        while a != -1:
            y = new.get(to[a])
            if y is None:
                cut[j] = cut.get(j, 0) + cap[a]
            elif a & 1:             # each inner edge once, from its odd arc
                inner.append((j, y, cap[a]))
            a = nxt[a]
    inner += [(j, k, w) for j, w in cut.items()]
    return ([at[p] for p in positions] + [~e],
            *_dinic_py.arcs(k + 1, inner), k + 1)


def dual_cut_tree(g: EmbeddedGraph) -> CutTree:
    """Cut tree over the ordinary faces of ``g``: Gomory-Hu on the dual's
    edge list (``embed.dual``, cached on ``g``) with those faces as
    terminals.  Boundary faces only carry flow, so a graph with F ordinary
    faces costs F-1 max-flows."""
    return gomory_hu(g.face_count, dual(g), terminals=g.ordinary_faces())


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
