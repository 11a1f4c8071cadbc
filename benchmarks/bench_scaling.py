"""Time each build stage against the direct Gomory-Hu tree as instances grow.

Run from the repository root, once per max-flow kernel:

    PYTHONPATH=src python3 benchmarks/bench_scaling.py [--out BENCH_scaling.json]
        [--torus 10 14 18 22] [--handle 3 4 5 6 7 8] [--runs 3]
        [--parent COMMIT]

The torus ladder is ``gen.torus_grid(k, seed=7)``, k = 10, 14, 18 and 22,
plus 26 and 30 on the compiled kernel.  The handle ladder adds a genus-2
handle, ``gen.add_edge_between_faces(gen.torus_grid(k, seed=7), 0, k + 1)``,
for k = 3..8.  Every instance is parsed afresh from its text, as a build
reads it, and perturbed with seed 7.

Per point it times ``planar_collection``, ``member_trees`` and
``merged_collection_tree`` with every available CPU; the whole build again
on one CPU, pinned with ``os.sched_setaffinity``, so that it runs no
worker; and the direct baseline, ``dual_cut_tree`` of a fresh perturbed
copy, so that the dual is counted as the build counts it.  Each time is
taken in wall seconds and in CPU seconds (``os.times()`` user plus system,
reaped children included, 10 ms resolution), and the median over ``--runs``
runs is kept.  Every merged tree must equal the direct tree, or the script
exits 1 and writes nothing.  Per ladder and stage, a least-squares slope of
log time against log face count is fitted.

The output file holds one entry per kernel: a run replaces its own
kernel's entry and keeps the other's, so running the script once on each
kernel fills both.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time

from surfcut import gen, weights
from surfcut.cuttree import KERNEL, dual_cut_tree
from surfcut.embed import format_graph, parse_graph
from surfcut.merge import merged_collection_tree
from surfcut.reduction import member_key, member_trees, planar_collection

SEED = 7
STAGES = ("collection", "member_trees", "merge", "build", "build_one_cpu",
          "direct")


def instance(ladder, k):
    g = gen.torus_grid(k, seed=SEED)
    if ladder == "handle":
        g = gen.add_edge_between_faces(g, 0, k + 1)
    return format_graph(g)


def fresh(text):
    """The perturbed input of a build, with nothing traced or cached."""
    return weights.perturb_graph(parse_graph(text), SEED)


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed(fn, *args):
    """``(fn(*args), wall seconds, CPU seconds)``."""
    gc.collect()
    w0, c0 = time.perf_counter(), cpu_seconds()
    out = fn(*args)
    return out, time.perf_counter() - w0, cpu_seconds() - c0


def build(pg):
    return merged_collection_tree(member_trees(planar_collection(pg)))


def one_cpu_build(pg):
    """``build(pg)`` pinned to one CPU of this process's set, which makes
    the worker pools run everything in this process."""
    if not hasattr(os, "sched_setaffinity"):
        return build(pg)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return build(pg)
    finally:
        os.sched_setaffinity(0, cpus)


def run_once(text):
    """Wall and CPU seconds of every stage on one instance, with the
    collection's counts and whether the merged tree equals the direct
    tree."""
    wall, cpu = {}, {}
    coll, wall["collection"], cpu["collection"] = timed(
        planar_collection, fresh(text))
    trees, wall["member_trees"], cpu["member_trees"] = timed(
        member_trees, coll)
    merged, wall["merge"], cpu["merge"] = timed(merged_collection_tree, trees)
    for clock in (wall, cpu):
        clock["build"] = (clock["collection"] + clock["member_trees"]
                          + clock["merge"])
    one, wall["build_one_cpu"], cpu["build_one_cpu"] = timed(
        one_cpu_build, fresh(text))
    direct, wall["direct"], cpu["direct"] = timed(dual_cut_tree, fresh(text))
    counts = {"members": len(coll.members),
              "keys": len(set(map(member_key, coll.members)))}
    return wall, cpu, counts, merged == direct == one


def measure(ladder, k, runs):
    text = instance(ladder, k)
    samples = [run_once(text) for _ in range(runs)]
    if not all(ok for *_, ok in samples):
        raise SystemExit(f"bench_scaling: {ladder}{k}: a merged tree "
                         f"differs from the direct tree")
    point = {"ladder": ladder, "k": k,
             "faces": parse_graph(text).face_count, **samples[0][2],
             "merged_equals_direct": True}
    for i, clock in enumerate(("wall_s", "cpu_s")):
        point[clock] = {s: round(statistics.median(run[i][s]
                                                   for run in samples), 6)
                        for s in STAGES}
    return point


def slope(xs, ys):
    """Least-squares slope of log y against log x; None unless at least two
    distinct x and every y is positive."""
    if len(set(xs)) < 2 or min(ys) <= 0:
        return None
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def slopes(points):
    out = {}
    for ladder in dict.fromkeys(p["ladder"] for p in points):
        at = [p for p in points if p["ladder"] == ladder]
        out[ladder] = {clock: {s: slope([p["faces"] for p in at],
                                        [p[clock][s] for p in at])
                               for s in STAGES}
                       for clock in ("wall_s", "cpu_s")}
    return out


def fmt(x):
    return "-" if x is None else f"{x:.2f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_scaling.json")
    ap.add_argument("--torus", type=int, nargs="*", default=None,
                    help="torus sizes k (default 10 14 18 22, and 26 30 on "
                         "the compiled kernel)")
    ap.add_argument("--handle", type=int, nargs="*", default=[3, 4, 5, 6, 7, 8])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--parent", default=None,
                    help="the commit the measured tree builds on")
    args = ap.parse_args(argv)
    torus = args.torus
    if torus is None:
        torus = [10, 14, 18, 22] + ([26, 30] if KERNEL == "compiled" else [])

    print(f"kernel {KERNEL}, median of {args.runs} runs; wall s (CPU s)")
    print(f"{'instance':>10} {'F':>5} {'members/keys':>13} "
          + " ".join(f"{s:>17}" for s in STAGES))
    points = []
    for ladder, sizes in (("torus", torus), ("handle", args.handle)):
        for k in sizes:
            p = measure(ladder, k, args.runs)
            points.append(p)
            print(f"{ladder + str(k):>10} {p['faces']:>5} "
                  f"{p['members']:>6}/{p['keys']:<6} "
                  + " ".join(f"{p['wall_s'][s]:>8.4f} ({p['cpu_s'][s]:>5.2f})"
                             for s in STAGES), flush=True)
    fitted = slopes(points)
    for ladder, clocks in fitted.items():
        for clock, by_stage in clocks.items():
            print(f"slope {ladder} {clock}: " + ", ".join(
                f"{s} {fmt(v)}" for s, v in by_stage.items()))

    bench = {"kernels": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["kernels"][KERNEL] = {
        "provenance": {"parent": args.parent, "runs": args.runs,
                       "perturbation_seed": SEED,
                       "python": platform.python_version(),
                       "cpus": (len(os.sched_getaffinity(0))
                                if hasattr(os, "sched_getaffinity")
                                else os.cpu_count())},
        "points": points,
        "slopes": fitted,
    }
    bench["kernels"] = dict(sorted(bench["kernels"].items()))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
