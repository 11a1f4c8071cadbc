"""Constant-time min-cut queries over a cut tree.

A Cartesian tree is built over the cut tree's edges (lightest edge at the
root, built by merging components in decreasing weight order); the minimum
edge weight on any tree path is then the weight at the lowest common
ancestor of the two endpoint leaves.  LCA is answered in O(1) by one
Euler-tour sparse table (O(n log n) space).  Only the cut tree is stored;
the index is rebuilt from it in linearithmic time when queries are made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuttree import CutTree


@dataclass
class CartesianIndex:
    """Cartesian tree over a cut tree's edges plus an O(1) LCA table.

    ``table[k][i]`` is the shallowest node among ``euler[i : i + 2**k]``.
    """

    tree: CutTree
    children: list       # per cartesian node: () for leaves, (a, b) else
    weight: list         # per node: None for leaves, cut weight else
    edge_index: list     # per node: None for leaves, cut-tree edge index else
    leaf_of: dict        # cut-tree node -> cartesian leaf id
    root: int
    first: list          # node -> first position in the Euler tour
    depth: list          # node -> depth in the cartesian tree
    table: list

    def lca(self, x, y):
        i, j = self.first[x], self.first[y]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        a = self.table[k][i]
        b = self.table[k][j - (1 << k) + 1]
        return a if self.depth[a] <= self.depth[b] else b


def build_index(t: CutTree) -> CartesianIndex:
    """Preprocess a cut tree for O(1) min-cut queries.

    Weight ties are broken by edge index.
    """
    nodes = sorted(t.nodes)
    n = len(nodes)
    leaf_of = {v: i for i, v in enumerate(nodes)}
    children = [() for _ in range(n)]
    weight = [None] * n
    edge_index = [None] * n
    comp = list(range(n))        # union-find over cartesian roots

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    root_of = list(range(n))     # component id -> cartesian root node
    order = sorted(range(len(t.edges)),
                   key=lambda i: (t.edges[i][2], i), reverse=True)
    node = n - 1
    for i in order:
        u, v, w = t.edges[i]
        a, b = find(leaf_of[u]), find(leaf_of[v])
        node += 1
        children.append((root_of[a], root_of[b]))
        weight.append(w)
        edge_index.append(i)
        comp[b] = a
        root_of[a] = node
    root = root_of[find(0)] if n > 1 else 0

    euler = [root]
    depth = [None] * len(children)
    first = [None] * len(children)
    depth[root] = first[root] = 0
    stack = [(root, iter(children[root]))]
    while stack:
        x, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            if stack:
                euler.append(stack[-1][0])
            continue
        depth[child] = depth[x] + 1
        first[child] = len(euler)
        euler.append(child)
        stack.append((child, iter(children[child])))

    table = [euler]
    half = 1
    while 2 * half <= len(euler):
        prev = table[-1]
        table.append([a if depth[a] <= depth[b] else b
                      for a, b in zip(prev, prev[half:])])
        half *= 2
    return CartesianIndex(t, children, weight, edge_index, leaf_of, root,
                          first, depth, table)


def min_cut_query(idx: CartesianIndex, x, y):
    """Minimum edge weight on the cut-tree path between x and y, in O(1)."""
    if x == y:
        raise ValueError("query endpoints must differ")
    node = idx.lca(idx.leaf_of[x], idx.leaf_of[y])
    return idx.weight[node]


def cut_partition(idx: CartesianIndex, x, y):
    """The two sides of the minimum cut separating x and y, as
    (side of x, side of y)."""
    if x == y:
        raise ValueError("query endpoints must differ")
    node = idx.lca(idx.leaf_of[x], idx.leaf_of[y])
    side = idx.tree.bipartitions()[idx.edge_index[node]]
    rest = frozenset(idx.tree.nodes) - side
    return (side, rest) if x in side else (rest, side)
