"""Reduce a positive-genus instance to a collection of annotated planar ones.

Each member is produced by a sequence of surgeries: cutting along a tight
cycle (which drops the genus and records the cycle as an annotation), or
cutting along a tight cycle together with a tight path between the two fresh
boundary faces (which also drops the genus but leaves the annotation alone).
A member is kept as its dual over the original face ids, and a pair
member's last cut is read off the cycle cut's dual instead of being made.
Queries take the minimum over the members' dual cut trees, each offset by
its annotation weight.  Members with the same dual capacities, summed per
face pair, share one Gomory-Hu tree.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from dataclasses import dataclass

from . import cuttree
from .cuttree import max_flow_min_cut
from .embed import (
    EmbeddedGraph,
    OpenCurve,
    check_curves,
    cut_along_curves,
    dual,
)
from .errors import (
    CurveShapeError,
    GenusLimitError,
    SeparatingCutError,
    WorkerError,
)
from .homology import homology_basis, tight_cycle_walk, tight_path

# Highest genus a build accepts.  A genus-3 input would open
# expected_size(3) = 22,630,400 member slots.
GENUS_MAX = 2


@dataclass(frozen=True)
class AnnotatedPlanar:
    """A genus-0 member of the collection.

    ``dual`` has one ``(x, y, w, e)`` per member edge: its two faces (the
    original ids 0..F-1, or F up for boundary faces), weight and original
    edge.  ``annotation`` holds the cycles cut away on the way down, as
    original edge sets; ``annotation_weight`` is their total weight.
    """

    dual: tuple
    annotation: tuple
    annotation_weight: int
    provenance: tuple
    cuts: tuple = ()        # per level: ("cycle", C) or ("pair", C, P), original ids


@dataclass(frozen=True)
class Collection:
    members: tuple
    attempted: int          # member slots before pruning
    skipped: tuple          # human-readable reasons for pruned slots
    face_count: int         # F: the input's ordinary faces are 0..F-1

    def __len__(self):
        return len(self.members)


def expected_size(genus: int) -> int:
    """Member slots the recursion opens for a given genus."""
    n = 1
    for g in range(1, genus + 1):
        n *= (1 << (2 * g)) + (1 << (4 * g))
    return n


def tight_cycles_all(g: EmbeddedGraph):
    """One tight cycle per nonzero homology class, as edge sets (empty for
    genus 0)."""
    if g.genus == 0:
        return []
    walks, _ = tight_cycle_walk(g, homology_basis(g))
    return [walks[h].edge_set() for h in sorted(walks)]


def _inherited_signatures(child, basis):
    """Pull the parent's edge signatures through the surgery's edge map."""
    return [basis.edge_signature[child.origin_edge_map.get(e, e)]
            for e in range(child.edge_count)]


def _cut_cycle(g, walk):
    """Cut along one tight cycle; returns the cut graph and its two fresh
    boundary faces."""
    h = cut_along_curves(g, [walk])
    fresh = sorted(h.new_boundary_faces)
    if len(fresh) != 2:
        raise CurveShapeError(f"cycle cut opened {len(fresh)} boundary faces")
    return h, fresh[0], fresh[1]


def labelled_dual(h: EmbeddedGraph, edge_map, face_map, split=None):
    """``h``'s dual edges ``(x, y, w, e)`` in edge id order: ordinary faces
    under ``face_map``'s original ids, boundary faces in id order from
    ``len(face_map)``, ``e`` from ``edge_map``.  With ``split = (b1, b2, path)``, the dual after
    cutting along ``path`` (edge ids) from boundary face b1 to b2, without
    the surgery: the cut merges b1 and b2 into one face B and turns each path
    edge (x, y) into two copies, (x, B) and (B, y)."""
    b1, b2, path = split or (None, None, ())
    label = dict(face_map)
    boundary = sorted(h.boundary_faces - {b2})
    label.update((f, len(face_map) + i) for i, f in enumerate(boundary))
    if split:
        label[b2] = b = label[b1]
    out = []
    for i, (_, _, w) in enumerate(h.edges):
        x, y = label[h.face_of(2 * i)], label[h.face_of(2 * i + 1)]
        e = edge_map[i]
        out += [(x, b, w, e), (b, y, w, e)] if i in path else [(x, y, w, e)]
    return tuple(out)


def answer_bound(g: EmbeddedGraph):
    """An upper bound on every face-to-face minimum cut of ``g``: the
    second-largest weighted degree among its ordinary faces, leaving out dual
    self-loops, since lambda(a, b) <= min(deg a, deg b).  Infinite with fewer
    than two ordinary faces."""
    deg = dict.fromkeys(g.ordinary_faces(), 0)
    for fu, fv, w in dual(g).edges:
        if fu != fv:
            for f in (fu, fv):
                if f in deg:
                    deg[f] += w
    if len(deg) < 2:
        return float("inf")
    return sorted(deg.values())[-2]


def planar_collection(g: EmbeddedGraph) -> Collection:
    """Recursively cut ``g`` down to a collection of annotated planar members.

    Each surgery keeps composed face and edge maps back to ``g``; a pair
    member of a genus-0 cycle cut needs none, only ``check_curves`` on its
    path and a split ``labelled_dual``.  A cycle child whose annotation
    weight exceeds ``answer_bound(g)`` is not opened: every cut of its
    subtree's members outweighs every answer, so none of them can win a
    query or be a minimum cut.  Its slots still count in ``attempted`` and
    it leaves one skip line.  Raises GenusLimitError above ``GENUS_MAX``.
    """
    if g.genus > GENUS_MAX:
        raise GenusLimitError(
            f"genus {g.genus} exceeds the maximum {GENUS_MAX}")
    members = []
    skipped = []
    attempted = [0]
    ordinary = frozenset(g.ordinary_faces())
    bound = answer_bound(g)

    def compose(parent_edge_map, parent_face_map, child):
        edge_map = tuple(parent_edge_map[child.origin_edge_map.get(e, e)]
                         for e in range(child.edge_count))
        face_map = {f: parent_face_map[p]
                    for f, p in child.origin_face_map.items()
                    if p in parent_face_map}
        return edge_map, face_map

    def recurse(h, edge_map, face_map, annotation, weight, prov, cuts,
                split=None):
        if h.genus == 0:
            attempted[0] += 1
            if frozenset(face_map.values()) != ordinary:
                raise AssertionError("member lost an original face")
            members.append(AnnotatedPlanar(
                labelled_dual(h, edge_map, face_map, split),
                tuple(annotation), weight, tuple(prov), tuple(cuts)))
            return
        slot = expected_size(h.genus - 1)
        where = "/".join(prov) or "root"
        basis = homology_basis(h)
        walks, missing = tight_cycle_walk(h, basis)
        classes = 1 << (2 * h.genus)
        for c, reason in missing.items():
            attempted[0] += slot * (1 + classes)
            skipped.append(f"{where}: cycle class {c}: {reason}")
        for c in sorted(walks):
            walk = walks[c]
            try:
                cut, b1, b2 = _cut_cycle(h, walk)
            except (SeparatingCutError, CurveShapeError) as exc:
                attempted[0] += slot * (1 + classes)
                skipped.append(f"{where}: cycle class {c} cut: {exc}")
                continue
            cyc_orig = frozenset(edge_map[e] for e in walk.edge_set())
            em, fm = compose(edge_map, face_map, cut)
            child_weight = weight + sum(g.weight(e) for e in cyc_orig)
            if child_weight > bound:
                attempted[0] += slot
                skipped.append(f"{where}: cycle class {c}: annotation "
                               f"{child_weight} exceeds answer bound {bound}")
            else:
                recurse(cut, em, fm, annotation + [cyc_orig], child_weight,
                        prov + [f"cycle h={c}"], cuts + [("cycle", cyc_orig)])
            leaf = cut.genus == 0
            sigs = _inherited_signatures(cut, basis)
            paths, no_path = tight_path(cut, b1, b2, sigs, range(classes))
            for target in range(classes):
                reason = no_path.get(target)
                if reason is None:
                    darts, _ = paths[target]
                    curve = [OpenCurve(darts, b1, b2)]
                    try:
                        if leaf:
                            check_curves(cut, curve)
                        else:
                            both = cut_along_curves(cut, curve)
                    except (SeparatingCutError, CurveShapeError) as exc:
                        reason = exc
                if reason is not None:
                    attempted[0] += slot
                    skipped.append(f"{where}: pair h={c} p={target}: {reason}")
                    continue
                path = {x // 2 for x in darts}
                args = (annotation, weight, prov + [f"pair h={c} p={target}"],
                        cuts + [("pair", cyc_orig,
                                 frozenset(em[e] for e in path))])
                if leaf:    # the cut graph stands in, split along the path
                    recurse(cut, em, fm, *args, (b1, b2, path))
                else:
                    recurse(both, *compose(em, fm, both), *args)

    identity = tuple(range(g.edge_count))
    recurse(g, identity, {f: f for f in ordinary}, [], 0, [], [])
    return Collection(tuple(members), attempted[0], tuple(skipped),
                      len(ordinary))


def member_key(m: AnnotatedPlanar):
    """``m``'s dual capacities as a sorted ``(x, y, w)`` tuple, ``x < y``:
    its edge weights summed per pair of faces, self-loops dropped."""
    caps = {}
    for x, y, w, _ in m.dual:
        if x != y:
            pair = (x, y) if x < y else (y, x)
            caps[pair] = caps.get(pair, 0) + w
    return tuple(sorted((x, y, w) for (x, y), w in caps.items()))


def available_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, otherwise every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(keys, count):
    """``keys`` dealt into ``count`` shares of similar size: largest key
    first, each to the share with the fewest capacity entries so far."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for key in sorted(keys, key=len, reverse=True):
        i = loads.index(min(loads))
        shares[i].append(key)
        loads[i] += len(key)
    return shares


def _in_child(fn, share, r, w):
    """Forked child: pickle ``fn(share)``, or the exception it raised, into
    pipe ``w`` and exit without returning.  If that does not pickle, a
    WorkerError naming the pickling failure goes in its place."""
    code = 1
    try:
        os.close(r)
        try:
            out = fn(share)
        except Exception as exc:
            out = exc
        try:
            data = pickle.dumps(out)
        except Exception as exc:
            what = (f"the {type(out).__name__} it raised"
                    if isinstance(out, Exception) else "its result")
            data = pickle.dumps(WorkerError(
                f"member-tree worker {os.getpid()} could not pickle {what}: "
                f"{type(exc).__name__}: {exc}"))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _forked_map(fn, shares):
    """``[fn(s) for s in shares]``: share 0 in this process and every other
    share in a child forked with one pipe.  A child's exception is raised
    here with its type; a child that ends without a result raises
    WorkerError.  Every child is reaped before this returns or raises, and
    killed first if this process fails.  The build runs no threads, so a
    plain fork is safe."""
    children = []                       # [pid or None once reaped, read end]
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _in_child(fn, share, r, w)
            os.close(w)
            children.append([pid, r])
        results = [fn(shares[0])]
        for child in children:
            pid, r = child
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if status != 0 or not chunks:
                how = (f"was killed by signal {-status}" if status < 0
                       else f"exited with status {status}")
                raise WorkerError(f"member-tree worker {pid} {how} "
                                  f"without sending its trees")
            out = pickle.loads(b"".join(chunks))
            if isinstance(out, Exception):
                raise out
            results.append(out)
        return results
    finally:
        for pid, r in children:
            os.close(r)
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def member_trees(collection: Collection):
    """One cut tree per member over the original faces, annotation offset
    already applied.

    Members with equal ``member_key`` have the same dual up to parallel
    edges and self-loops, so they have the same minimum cuts.  One
    Gomory-Hu tree is built per key, on the key's capacities with the
    original faces as terminals, and each member of the key gets it with its
    annotation weight added to every edge (a member of annotation weight 0
    gets the key's tree itself).  The keys are dealt to one worker per
    available CPU (at most one per key), forked where ``os.fork`` exists;
    the trees are put back by key, so the result does not depend on the
    number of workers.
    """
    base = collection.face_count
    first = {}          # each key once, so that equal keys share one tuple
    keys = [first.setdefault(k, k)
            for k in map(member_key, collection.members)]
    distinct = list(first)
    workers = 1
    if hasattr(os, "fork"):
        workers = max(1, min(available_cpus(), len(distinct)))
    shares = _deal(distinct, workers)

    def build(share):
        return [cuttree.gomory_hu(max([base] + [y + 1 for _, y, _ in key]),
                                  key, terminals=range(base))
                for key in share]

    by_key = {}
    for share, trees in zip(shares, _forked_map(build, shares)):
        by_key.update(zip(share, trees))
    trees = []
    for m, key in zip(collection.members, keys):
        t = by_key[key]
        offset = m.annotation_weight
        trees.append(t.with_weights([w + offset for _, _, w in t.edges])
                     if offset else t)
    return trees


def collection_min_cut(collection: Collection, trees, a: int, b: int):
    """Minimum separating-subgraph weight between two original faces.

    Returns ``(weight, member index)``; ties go to the lowest member index.
    """
    if a == b:
        raise ValueError("the two faces must differ")
    faces = range(collection.face_count)
    if a not in faces or b not in faces:
        raise KeyError(f"face {a if a not in faces else b} is not an "
                       f"ordinary face of the original graph")
    best = None
    for i, t in enumerate(trees):
        w = t.path_min(a, b)
        if best is None or w < best[0]:
            best = (w, i)
    if best is None:
        raise ValueError("empty collection")
    return best


def lifted_witness(member: AnnotatedPlanar, a: int, b: int):
    """The member's minimum separating subgraph for original faces (a, b),
    lifted back to an edge set of the original graph (member cut edges plus
    all annotation cycles).

    The face side is the residual source side of one max-flow on the
    member's dual, which is the unique minimum cut under the perturbation.
    """
    n = 1 + max(max(x, y) for x, y, _, _ in member.dual)
    _, side = max_flow_min_cut(
        n, [(x, y, w) for x, y, w, _ in member.dual], a, b)
    lifted = {e for x, y, _, e in member.dual if (x in side) != (y in side)}
    for cyc in member.annotation:
        lifted |= cyc
    return frozenset(lifted)
