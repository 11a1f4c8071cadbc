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
from dataclasses import dataclass, field

from . import cuttree
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


@dataclass
class _Tally:
    """What one part of the recursion opened: members and skip lines in
    order, and its member slots."""
    members: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    attempted: int = 0

    def add(self, other):
        self.members += other.members
        self.skipped += other.skipped
        self.attempted += other.attempted


def expected_size(genus: int) -> int:
    """Member slots the recursion opens for a given genus."""
    n = 1
    for g in range(1, genus + 1):
        n *= (1 << (2 * g)) + (1 << (4 * g))
    return n


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
    """``dual(h)`` relabelled, as ``(x, y, w, e)`` in edge id order:
    ordinary faces under ``face_map``'s original ids, boundary faces in id
    order from ``len(face_map)``, ``e`` from ``edge_map``.  With ``split =
    (b1, b2, path)``, the dual after cutting along ``path`` (edge ids) from
    boundary face b1 to b2, without the surgery: the cut merges b1 and b2
    into one face B and turns each path edge (x, y) into two copies, (x, B)
    and (B, y)."""
    b1, b2, path = split or (None, None, ())
    label = dict(face_map)
    boundary = sorted(h.boundary_faces - {b2})
    label.update((f, len(face_map) + i) for i, f in enumerate(boundary))
    if split:
        label[b2] = b = label[b1]
    out = []
    for i, (x, y, w) in enumerate(dual(h)):
        x, y, e = label[x], label[y], edge_map[i]
        out += [(x, b, w, e), (b, y, w, e)] if i in path else [(x, y, w, e)]
    return tuple(out)


def answer_bound(g: EmbeddedGraph):
    """An upper bound on every face-to-face minimum cut of ``g``: the
    second-largest weighted degree among its ordinary faces, leaving out dual
    self-loops, since lambda(a, b) <= min(deg a, deg b).  Infinite with fewer
    than two ordinary faces."""
    deg = dict.fromkeys(g.ordinary_faces(), 0)
    for fu, fv, w in dual(g):
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

    The root's nonzero classes share nothing until their members are
    joined, so above genus 1 they are opened by ``_forked_map``'s worker
    pool.  Each class's members, skip lines and slots are put back in class
    order, so the collection does not depend on the number of workers or on
    which worker opened which class.  A genus-1 root's classes open only
    leaf members, which cost less than a fork, and below the root every
    class is opened in the process that holds its parent.
    """
    if g.genus > GENUS_MAX:
        raise GenusLimitError(
            f"genus {g.genus} exceeds the maximum {GENUS_MAX}")
    ordinary = frozenset(g.ordinary_faces())
    bound = answer_bound(g)

    def compose(parent_edge_map, parent_face_map, child):
        edge_map = tuple(parent_edge_map[child.origin_edge_map.get(e, e)]
                         for e in range(child.edge_count))
        face_map = {f: parent_face_map[p]
                    for f, p in child.origin_face_map.items()
                    if p in parent_face_map}
        return edge_map, face_map

    def recurse(out, h, edge_map, face_map, annotation, weight, prov, cuts,
                split=None, root=False):
        if h.genus == 0:
            out.attempted += 1
            if frozenset(face_map.values()) != ordinary:
                raise AssertionError("member lost an original face")
            out.members.append(AnnotatedPlanar(
                labelled_dual(h, edge_map, face_map, split),
                tuple(annotation), weight, tuple(prov), tuple(cuts)))
            return
        slot = expected_size(h.genus - 1)
        where = "/".join(prov) or "root"
        basis = homology_basis(h)
        walks, missing = tight_cycle_walk(h, basis)
        classes = 1 << (2 * h.genus)
        for c, reason in missing.items():
            out.attempted += slot * (1 + classes)
            out.skipped.append(f"{where}: cycle class {c}: {reason}")

        def open_class(c):
            out = _Tally()
            walk = walks[c]
            try:
                cut, b1, b2 = _cut_cycle(h, walk)
            except (SeparatingCutError, CurveShapeError) as exc:
                out.attempted += slot * (1 + classes)
                out.skipped.append(f"{where}: cycle class {c} cut: {exc}")
                return out
            cyc_orig = frozenset(edge_map[e] for e in walk.edge_set())
            em, fm = compose(edge_map, face_map, cut)
            child_weight = weight + sum(g.weight(e) for e in cyc_orig)
            if child_weight > bound:
                out.attempted += slot
                out.skipped.append(f"{where}: cycle class {c}: annotation "
                                   f"{child_weight} exceeds answer bound "
                                   f"{bound}")
            else:
                recurse(out, cut, em, fm, annotation + [cyc_orig],
                        child_weight, prov + [f"cycle h={c}"],
                        cuts + [("cycle", cyc_orig)])
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
                    out.attempted += slot
                    out.skipped.append(
                        f"{where}: pair h={c} p={target}: {reason}")
                    continue
                path = {x // 2 for x in darts}
                args = (annotation, weight, prov + [f"pair h={c} p={target}"],
                        cuts + [("pair", cyc_orig,
                                 frozenset(em[e] for e in path))])
                if leaf:    # the cut graph stands in, split along the path
                    recurse(out, cut, em, fm, *args, (b1, b2, path))
                else:
                    recurse(out, both, *compose(em, fm, both), *args)
            return out

        order = sorted(walks)
        for opened in (_forked_map(open_class, order, worker="collection",
                                   sends="members") if root and h.genus > 1
                       else map(open_class, order)):
            out.add(opened)

    out = _Tally()
    recurse(out, g, tuple(range(g.edge_count)), {f: f for f in ordinary},
            [], 0, [], [], root=True)
    return Collection(tuple(out.members), out.attempted, tuple(out.skipped),
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


def _in_child(fn, r, w, worker):
    """Forked child: pickle ``fn()``, or the exception it raised, into pipe
    ``w`` and exit without returning.  If that does not pickle, a
    WorkerError naming the pickling failure and the ``worker`` kind goes in
    its place."""
    code = 1
    try:
        os.close(r)
        try:
            out = fn()
        except Exception as exc:
            out = exc
        try:
            data = pickle.dumps(out)
        except Exception as exc:
            what = (f"the {type(out).__name__} it raised"
                    if isinstance(out, Exception) else "its result")
            data = pickle.dumps(WorkerError(
                f"{worker} worker {os.getpid()} could not pickle {what}: "
                f"{type(exc).__name__}: {exc}"))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _forked_map(fn, items, *, worker, sends):
    """``[fn(x) for x in items]``, run by one process per available CPU, at
    most one per item, forked where ``os.fork`` exists; with one, all in
    this process.  An item's cost is unknown until it runs, so no process
    gets a fixed share: each, this one included, takes the next item index
    off one pipe until it is empty, and the results are put back by index.

    A child's exception is raised here with its type; a child that ends
    without its results raises WorkerError, naming the ``worker`` kind and
    what it ``sends``.  Every child is reaped before this returns or raises,
    and killed first if this process fails.  The build runs no threads, so a
    plain fork is safe."""
    count = min(available_cpus(), len(items)) if hasattr(os, "fork") else 1
    if count <= 1:
        return [fn(x) for x in items]
    tokens, fill = os.pipe()
    children = []                       # [pid or None once reaped, read end]
    try:
        # Every index goes in before the fork, 2 bytes each, while nothing
        # reads the pipe yet: a write past its buffer (64 KiB on Linux)
        # would hang the build here.  Items are at most one per member slot,
        # expected_size(GENUS_MAX) = 5440, so at most 10,880 bytes.
        with os.fdopen(fill, "wb") as fh:
            fh.write(b"".join(i.to_bytes(2, "big")
                              for i in range(len(items))))

        def take():
            done = []
            while token := os.read(tokens, 2):
                i = int.from_bytes(token, "big")
                done.append((i, fn(items[i])))
            return done

        for _ in range(count - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _in_child(take, r, w, worker)
            os.close(w)
            children.append([pid, r])
        done = take()
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
                raise WorkerError(f"{worker} worker {pid} {how} "
                                  f"without sending its {sends}")
            out = pickle.loads(b"".join(chunks))
            if isinstance(out, Exception):
                raise out
            done += out
        results = [None] * len(items)
        for i, out in done:
            results[i] = out
        return results
    finally:
        os.close(tokens)
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
    gets the key's tree itself).  The keys' trees are built by
    ``_forked_map``'s worker pool, largest key first, so that the costliest
    trees do not start last; they are put back by key, so the result does
    not depend on the number of workers.
    """
    base = collection.face_count
    first = {}          # each key once, so that equal keys share one tuple
    keys = [first.setdefault(k, k)
            for k in map(member_key, collection.members)]
    distinct = sorted(first, key=len, reverse=True)

    def build(key):
        return cuttree.gomory_hu(max([base] + [y + 1 for _, y, _ in key]),
                                 key, terminals=range(base))

    by_key = dict(zip(distinct, _forked_map(build, distinct,
                                            worker="member-tree",
                                            sends="trees")))
    trees = []
    for m, key in zip(collection.members, keys):
        t = by_key[key]
        offset = m.annotation_weight
        trees.append(t.with_weights([w + offset for _, _, w in t.edges])
                     if offset else t)
    return trees

