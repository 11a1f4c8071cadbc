"""Spans around calls into surfcut's modules, recorded from outside.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
at the place its caller looks it up (``cli.planar_collection``,
``reduction.homology_basis``, ...), so no source file changes.  A span is
``[name, start, end, parent]``; a layer is the module prefix of the name, and
a layer's self time is the time of its spans minus the time of their child
spans.  To keep tracing light, the hottest leaf calls (``max_flow_min_cut``,
``min_cut_query``) add their time to per-name totals and to the enclosing
span's covered time instead of recording a span each, and
``LeafTree.leaves_under`` / ``LeafTree.restrict`` are only counted.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "embed", "weights", "reduction", "homology", "cuttree",
          "merge", "query")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.flat = defaultdict(lambda: [0, 0.0])   # name -> [calls, s]
        self.covered = defaultdict(float)           # span -> flat time inside
        self.projected = []         # LeafTrees returned by project_member_tree
        self.collections = []       # Collections returned by planar_collection
        self._undo = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
        self.spans.append(rec)
        self.stack.append(i)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _timed(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def _flat(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                row = tracer.flat[name]
                row[0] += 1
                row[1] += dt
                if tracer.stack:
                    tracer.covered[tracer.stack[-1]] += dt
                if after is not None:
                    after(tracer, args, None)
        return timed

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, wrapper):
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper(fn))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions; restore the originals on exit."""
        from surfcut import cli, cuttree, merge, reduction, weights

        timed = [
            (cli, "parse_graph", "embed.parse_graph", None),
            (cli, "format_graph", "embed.format_graph", None),
            (reduction, "cut_along_curves", "embed.cut_along_curves", None),
            (weights, "perturb_graph", "weights.perturb_graph", None),
            (cli, "planar_collection", "reduction.planar_collection",
             _keep_collection),
            (cli, "member_trees", "reduction.member_trees", None),
            (reduction, "homology_basis", "homology.homology_basis", None),
            (reduction, "tight_cycle_walk", "homology.tight_cycle_walk", None),
            (reduction, "tight_path", "homology.tight_path", None),
            (cli, "dual_cut_tree", "cuttree.dual_cut_tree", None),
            (cuttree, "dual_cut_tree", "cuttree.dual_cut_tree", None),
            (cuttree, "gomory_hu", "cuttree.gomory_hu", None),
            (cli, "host_checksum", "cuttree.host_checksum", None),
            (cli, "merged_collection_tree", "merge.merged_collection_tree",
             None),
            (merge, "project_member_tree", "merge.project_member_tree",
             _keep_projection),
            (merge, "detect_crossing_minimum_cuts",
             "merge.detect_crossing_minimum_cuts", None),
            (merge, "merge_leaf_trees", "merge.merge_leaf_trees", None),
            (cli, "build_index", "query.build_index", None),
        ]
        flat = [
            (cuttree, "max_flow_min_cut", "cuttree.max_flow_min_cut",
             _count_arcs),
            (cli, "min_cut_query", "query.min_cut_query", None),
        ]
        counted = [
            (merge.LeafTree, "leaves_under", "merge.leaves_under_calls"),
            (merge.LeafTree, "restrict", "merge.restrict_calls"),
        ]
        try:
            for owner, attr, name, after in timed:
                self._patch(owner, attr,
                            lambda fn, n=name, a=after: self._timed(fn, n, a))
            for owner, attr, name, after in flat:
                self._patch(owner, attr,
                            lambda fn, n=name, a=after: self._flat(fn, n, a))
            for owner, attr, name in counted:
                self._patch(owner, attr,
                            lambda fn, n=name: self._counted(fn, n))
            yield self
        finally:
            while self._undo:
                owner, attr, fn = self._undo.pop()
                setattr(owner, attr, fn)

    # -- reporting -------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        covered = [self.covered.get(i, 0.0) for i in range(len(self.spans))]
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def summary(self):
        """Per-name totals ``{name: (calls, inclusive s, self s)}`` and
        per-layer self time ``{layer: s}``."""
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = by_name[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
            by_layer[name.split(".")[0]] += own
        for name, (calls, seconds) in self.flat.items():
            by_name[name] = [calls, seconds, seconds]
            by_layer[name.split(".")[0]] += seconds
        return dict(by_name), by_layer


def _count_arcs(tracer, args, result):
    tracer.counts["cuttree.maxflow_arcs"] += len(args[1])


def _keep_collection(tracer, args, result):
    tracer.collections.append(result)


def _keep_projection(tracer, args, result):
    tracer.projected.append(result)
