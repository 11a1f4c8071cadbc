"""Constant-time min-cut queries over a cut tree.

The cut tree's nodes are put in Kruskal order: components are merged along
the edges from the heaviest ``(weight, index)`` down, and each merge appends
one component's node sequence to the other's, so the merging edge sits in
the gap between the two runs.  The lightest edge on the x-to-y path is the
last merge that joined x and y, which is the lightest gap between their
positions (the Cartesian-tree/RMQ correspondence of Bender and
Farach-Colton).  One sparse table of least edge ranks over the F-1 gaps
answers it in O(1) (O(F log F) space).  Only the cut tree is stored; the
index is rebuilt from it in linearithmic time when queries are made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuttree import CutTree


@dataclass
class KruskalIndex:
    """A cut tree's nodes in Kruskal order plus an O(1) range-minimum table.

    ``by_weight`` holds the edge indices sorted by ``(weight, index)``; an
    edge's rank is its place there, and ``weight[r]`` is the weight of the
    edge of rank ``r``.  ``table[0][p]`` is the rank of the edge in the gap
    between positions ``p`` and ``p + 1``, and ``table[k][p]`` is the least
    rank among the gaps ``p`` to ``p + 2**k - 1``.
    """

    tree: CutTree
    position: dict       # cut-tree node -> position in Kruskal order
    by_weight: list
    weight: list
    table: list

    def lightest(self, x, y):
        """Rank of the lightest ``(weight, index)`` edge on the x-to-y path."""
        if x == y:
            raise ValueError("query endpoints must differ")
        i, j = self.position[x], self.position[y]
        if i > j:
            i, j = j, i
        k = (j - i).bit_length() - 1
        row = self.table[k]
        a, b = row[i], row[j - (1 << k)]
        return a if a < b else b    # cheaper than min()


def build_index(t: CutTree) -> KruskalIndex:
    """Preprocess a cut tree for O(1) min-cut queries.

    Weight ties are broken by edge index.
    """
    by_weight = sorted(range(len(t.edges)), key=lambda i: (t.edges[i][2], i))
    run = {v: ([v], []) for v in t.nodes}   # node -> its (nodes, gaps)
    for rank in reversed(range(len(by_weight))):
        u, v, _ = t.edges[by_weight[rank]]
        a, b = run[u], run[v]
        if len(a[0]) < len(b[0]):   # move the smaller run: O(F log F)
            a, b = b, a
        a[0].extend(b[0])
        a[1].append(rank)
        a[1].extend(b[1])
        for x in b[0]:
            run[x] = a
    nodes, gaps = run[t.nodes[0]]
    table = [gaps]
    half = 1
    while 2 * half <= len(gaps):
        prev = table[-1]
        table.append(list(map(min, prev, prev[half:])))
        half *= 2
    return KruskalIndex(t, {v: p for p, v in enumerate(nodes)}, by_weight,
                        [t.edges[i][2] for i in by_weight], table)


def min_cut_query(idx: KruskalIndex, x, y):
    """Minimum edge weight on the cut-tree path between x and y, in O(1)."""
    return idx.weight[idx.lightest(x, y)]


def cut_partition(idx: KruskalIndex, x, y):
    """The two sides of the minimum cut separating x and y, as
    (side of x, side of y): the nodes a walk from x reaches without crossing
    the lightest edge on the x-to-y path, and the rest."""
    cut = idx.by_weight[idx.lightest(x, y)]
    adj = idx.tree.adjacency()
    side = {x}
    stack = [x]
    while stack:
        for v, _, i in adj[stack.pop()]:
            if i != cut and v not in side:
                side.add(v)
                stack.append(v)
    side = frozenset(side)
    return side, frozenset(idx.tree.nodes) - side
