"""surfcut benchmark: build and query workloads, with a traced variant.

Run from the repository root:

    python3 surfbench/run.py --workload torus --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process: every
``surfcut build`` / ``surfcut query`` is called in-process through
``cli.main`` on graph files generated from ``--seed``, and starts only after
the previous one finished.  A cycle of steps builds every rung of the
workload (small rungs several times); after each build come samples of the
direct baseline and query commands.  Steps go on while they fit in
``--seconds``, always at least one full cycle.  Every answer is checked
outside the timed calls.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json.  With ``--trace 1`` one cycle is followed by one more
build of every rung and one query of every queried rung with spans recorded
(see ``tracer.py``), and the metrics are the per-layer ones.  The line before
the result carries the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
from instances import Rung, make_graph, make_pairs  # noqa: E402

ORACLE_PAIRS = 6            # dual max-flow spot checks per instance and run
DIRECT_SLICE_S = 0.05       # one direct-baseline sample repeats this long
SAMPLE_SHARE = 0.2          # after a build, sample direct and query for up to
SAMPLE_CAP_S = 0.5          # this share of its time each, capped
SELF_TIME_TOLERANCE = 0.1   # |sum of layer self times - traced wall| / wall


@dataclass(frozen=True)
class Workload:
    """A cycle builds rung i ``reps[i]`` times.  After every build come
    direct-baseline samples (rungs in turn) and query commands (queried
    rungs in turn, once built), so every timing is sampled across the whole
    run and not in one burst: the CPU speed of a shared host drifts by up to
    1.5x between 5-second windows.  Some rung has ``reps >= 2``, so the
    determinism of rebuilds is always checked."""

    rungs: tuple
    reps: tuple
    query_rungs: tuple          # rungs whose artifacts are queried
    pairs: int                  # pairs per query command
    probe: Rung = None          # built once per run, outside the timed loop


WORKLOADS = {
    # Genus reduction at three sizes: collection and merge dominate; the only
    # ladder long enough for setup_slope and a direct baseline that is not
    # negligible.
    "torus": Workload(
        rungs=(Rung("torus", 10), Rung("torus", 8), Rung("torus", 6)),
        reps=(1, 2, 4), query_rungs=(0,), pairs=20000),
    # Genus 2 (torus grid plus a handle edge): ~2000 members that project to
    # few distinct trees, so member count, cross-check and many tiny max-flow
    # calls dominate.
    "genus2": Workload(
        rungs=(Rung("handle", 3), Rung("handle", 2)),
        reps=(1, 3), query_rungs=(0,), pairs=50000),
    # Planar triangulations just below the 512-edge ceiling: one large
    # Gomory-Hu tree per build, no reduction or merge, and heavy querying.
    # The probe is one size above the ceiling.
    "planar-query": Workload(
        rungs=(Rung("planar", 170), Rung("planar", 170, 1),
               Rung("planar", 170, 2), Rung("planar", 100),
               Rung("planar", 50)),
        reps=(1, 1, 1, 2, 4), query_rungs=(0, 1, 2), pairs=100000,
        probe=Rung("planar", 200)),
}


@dataclass
class Instance:
    rung: Rung
    graph: object               # parsed back from the written graph file
    path: str
    artifact: str
    reference: object = None
    first_artifact: bytes = None
    expected: str = None        # expected query output, if queried
    pairs_path: str = None
    direct_reps: int = 1        # repetitions in one direct-baseline sample
    build_s: list = field(default_factory=list)
    direct_s: list = field(default_factory=list)


class Run:
    """State of one benchmark run: counters, timings and gate findings."""

    def __init__(self, spec: Workload, seed: int, work: Path, trace: bool):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []          # gate findings, printed to stderr
        self.query_rates = []
        self.direct_turn = 0
        self.query_turn = 0
        self.traced_build_s = None
        self.traced_wall_s = None
        self.max_edges = 0
        self.probe = None
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer()

    # -- commands ----------------------------------------------------------

    def cli(self, argv, traced=False, root=None):
        """Call ``surfcut`` in-process; returns (ok, wall seconds)."""
        from surfcut import cli
        self.attempted += 1
        t0 = perf_counter()
        try:
            if traced:
                with self.tracer.installed(), self.tracer.span(root):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except Exception:       # a crash is a failed command, not a dead run
            traceback.print_exc(file=sys.stderr)
            rc = None
        dt = perf_counter() - t0
        if rc != 0:
            self.fail(f"surfcut {' '.join(argv)} -> exit {rc}")
        return rc == 0, dt

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def build(self, inst: Instance, traced=False):
        argv = ["--seed", str(self.seed), "build", inst.path,
                "-o", inst.artifact]
        ok, dt = self.cli(argv, traced, "cli.build")
        if ok:
            self.check_artifact(inst, Path(inst.artifact).read_bytes())
        return dt

    def query(self, inst: Instance, traced=False):
        out = str(self.work / f"{inst.rung.label}.answers")
        argv = ["query", inst.artifact, inst.pairs_path, "-o", out]
        ok, dt = self.cli(argv, traced, "cli.query")
        if ok:
            from gate import answer_mismatch
            bad = answer_mismatch(Path(out).read_text(), inst.expected)
            if bad:
                self.fail(f"{inst.rung.label}: wrong query answer {bad}")
        return dt

    # -- gate --------------------------------------------------------------

    def check_artifact(self, inst: Instance, data: bytes):
        """First build of an instance: every face pair against the reference.
        Later builds (repeats, traced builds): byte-identical."""
        from gate import tree_mismatches
        if inst.first_artifact is None:
            bad = tree_mismatches(data, inst.reference)
            if bad:
                self.fail(f"{inst.rung.label}: tree differs from the direct "
                          f"Gomory-Hu tree at {bad}")
                return
            inst.first_artifact = data
            self.max_edges = max(self.max_edges, inst.graph.edge_count)
        elif data != inst.first_artifact:
            self.fail(f"{inst.rung.label}: rebuild is not byte-identical")

    def reference(self, inst: Instance):
        """The direct baseline's tree, checked against max-flow on seeded
        pairs; also sizes one timing sample to about DIRECT_SLICE_S."""
        from surfcut.cuttree import dual_cut_tree
        from gate import Reference, oracle_mismatches
        t0 = perf_counter()
        tree = dual_cut_tree(inst.graph)
        once = perf_counter() - t0
        inst.direct_reps = max(1, round(DIRECT_SLICE_S / once))
        inst.reference = Reference(tree)
        bad = oracle_mismatches(inst.graph, inst.reference, ORACLE_PAIRS,
                                self.seed, inst.rung.label)
        if bad:
            self.problems.append(f"{inst.rung.label}: direct Gomory-Hu tree "
                                 f"disagrees with max-flow at {bad}")

    def sample_direct(self, inst: Instance):
        """One timing of the direct baseline, ``cuttree.dual_cut_tree`` on the
        unperturbed instance: the mean over ``direct_reps`` calls."""
        from surfcut.cuttree import dual_cut_tree
        t0 = perf_counter()
        for _ in range(inst.direct_reps):
            dual_cut_tree(inst.graph)
        spent = perf_counter() - t0
        inst.direct_s.append(spent / inst.direct_reps)
        return spent

    # -- workload ----------------------------------------------------------

    def setup(self):
        from surfcut.embed import format_graph, parse_graph
        from gate import expected_answers
        insts = []
        for rung in self.spec.rungs:
            path = self.work / f"{rung.label}.graph"
            path.write_text(format_graph(make_graph(rung, self.seed)))
            insts.append(Instance(rung, parse_graph(path.read_text()),
                                  str(path),
                                  str(self.work / f"{rung.label}.json")))
        for inst in insts:
            self.reference(inst)
        for i in self.spec.query_rungs:
            inst = insts[i]
            pairs = make_pairs(inst.graph.face_count, self.spec.pairs,
                               self.seed, inst.rung.label)
            inst.pairs_path = str(self.work / f"{inst.rung.label}.pairs")
            Path(inst.pairs_path).write_text(
                "".join(f"{x} {y}\n" for x, y in pairs))
            inst.expected = expected_answers(pairs, inst.reference)
        return insts

    def step(self, inst: Instance, insts, queried):
        """Build ``inst``; then direct-baseline samples and query commands,
        instances in turn, at least one of each and each kind for up to
        SAMPLE_SHARE of the build's time."""
        dt = self.build(inst)
        inst.build_s.append(dt)
        budget = min(SAMPLE_SHARE * dt, SAMPLE_CAP_S)
        spent = 0.0
        while not spent or spent < budget:
            spent += self.sample_direct(insts[self.direct_turn % len(insts)])
            self.direct_turn += 1
        ready = [q for q in queried if q.first_artifact is not None]
        spent = 0.0
        while ready and (not spent or spent < budget):
            dq = self.query(ready[self.query_turn % len(ready)])
            self.query_rates.append(self.spec.pairs / dq)
            self.query_turn += 1
            spent += dq

    def traced_pass(self, insts, queried):
        """Every build and query once more, with spans recorded."""
        traced_s = sum(self.build(inst, traced=True) for inst in insts)
        self.traced_build_s = traced_s
        self.traced_wall_s = traced_s + sum(
            self.query(inst, traced=True) for inst in queried)

    def run_probe(self):
        """Build once above the edge ceiling; on success the tree must match
        the reference like any other build."""
        from surfcut import cli
        from surfcut.embed import format_graph, parse_graph
        from gate import Reference, tree_mismatches
        from surfcut.cuttree import dual_cut_tree
        rung = self.spec.probe
        path = self.work / f"{rung.label}.graph"
        path.write_text(format_graph(make_graph(rung, self.seed)))
        graph = parse_graph(path.read_text())
        out = self.work / f"{rung.label}.json"
        try:
            rc = cli.main(["--seed", str(self.seed), "build", str(path),
                           "-o", str(out)])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
        self.probe = {"rung": rung.label, "edges": graph.edge_count,
                      "exit": rc}
        if rc == 0:
            bad = tree_mismatches(out.read_bytes(),
                                  Reference(dual_cut_tree(graph)))
            if bad:
                self.problems.append(f"probe {rung.label}: wrong tree {bad}")
            else:
                self.max_edges = max(self.max_edges, graph.edge_count)


def slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def setup_s(insts):
    """Median build time of every rung, summed: one pass over the ladder."""
    return sum(statistics.median(i.build_s) for i in insts)


def end_to_end(run: Run, insts):
    """Builds are long and few: setup_s and setup_slope use medians.  The
    direct baseline and the queries are many short samples: they report the
    best one, because CPU contention on a shared host comes in bursts (the
    median of 5-second windows moves by 1.5x, their minimum by under 10%)
    and whole runs can fall in a quiet or a busy stretch."""
    by_faces = {}
    for inst in insts:
        by_faces.setdefault(inst.graph.face_count, []).append(
            statistics.median(inst.build_s))
    points = [(f, statistics.median(ts)) for f, ts in sorted(by_faces.items())]
    artifact = sum(len(i.first_artifact or b"") for i in insts)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s(insts), "s"),
        "setup_slope": (slope(points), "1"),
        "direct_gh_s": (sum(min(i.direct_s) for i in insts), "s"),
        "query_per_s": (max(run.query_rates), "pairs/s"),
        "peak_rss_mb": (rss / 1024, "MB"),
        "artifact_kb": (artifact / 1024, "kB"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "1"),
        "max_edges": (run.max_edges, "count"),
    }


def per_layer(run: Run, insts):
    tracer = run.tracer
    by_name, by_layer = tracer.summary()

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    members = sum(len(c) for c in tracer.collections)
    attempted = sum(c.attempted for c in tracer.collections)
    skipped = sum(len(c.skipped) for c in tracer.collections)
    distinct = distinct_projections(tracer.projected, tracer.collections)
    traced = run.traced_build_s
    untraced = setup_s(insts)
    gap = abs(sum(by_layer.values()) - run.traced_wall_s) / run.traced_wall_s
    if gap > SELF_TIME_TOLERANCE:
        run.problems.append(f"layer self times cover {1 - gap:.3f} of the "
                            f"traced wall time")
    m = {
        "merge.merge_s": (incl("merge.merge_leaf_trees"), "s"),
        "merge.restrict_calls":
            (tracer.counts["merge.restrict_calls"], "count"),
        "merge.leaves_under_calls":
            (tracer.counts["merge.leaves_under_calls"], "count"),
        "merge.crosscheck_s":
            (incl("merge.detect_crossing_minimum_cuts"), "s"),
        "merge.project_s": (incl("merge.project_member_tree"), "s"),
        "merge.distinct_trees": (distinct, "count"),
        "merge.distinct_yield": (distinct / members if members else 0.0, "1"),
        "homology.basis_calls": (calls("homology.homology_basis"), "count"),
        "homology.basis_s": (incl("homology.homology_basis"), "s"),
        "homology.cycle_calls": (calls("homology.tight_cycle_walk"), "count"),
        "homology.cycle_s": (incl("homology.tight_cycle_walk"), "s"),
        "homology.path_calls": (calls("homology.tight_path"), "count"),
        "homology.path_s": (incl("homology.tight_path"), "s"),
        "reduction.collection_self_s":
            (own("reduction.planar_collection"), "s"),
        "reduction.members": (members, "count"),
        "reduction.attempted": (attempted, "count"),
        "reduction.skipped": (skipped, "count"),
        "reduction.member_yield":
            (members / attempted if attempted else 0.0, "1"),
        "embed.parse_s": (incl("embed.parse_graph"), "s"),
        "embed.surgery_calls": (calls("embed.cut_along_curves"), "count"),
        "embed.surgery_s": (incl("embed.cut_along_curves"), "s"),
        "cuttree.gomory_hu_calls": (calls("cuttree.gomory_hu"), "count"),
        "cuttree.gomory_hu_self_s": (own("cuttree.gomory_hu"), "s"),
        "cuttree.maxflow_calls": (calls("cuttree.max_flow_min_cut"), "count"),
        "cuttree.maxflow_s": (incl("cuttree.max_flow_min_cut"), "s"),
        "cuttree.maxflow_arcs":
            (tracer.counts["cuttree.maxflow_arcs"], "count"),
        "weights.perturb_s": (incl("weights.perturb_graph"), "s"),
        "query.index_s": (incl("query.build_index"), "s"),
        "query.answer_calls": (calls("query.min_cut_query"), "count"),
        "query.answer_s": (incl("query.min_cut_query"), "s"),
        "trace.build_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.selftime_gap": (gap, "1"),
    }
    for layer, seconds in by_layer.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return m


def distinct_projections(projected, collections):
    """Distinct projected trees summed over builds, keyed by their cuts."""
    total = 0
    start = 0
    for coll in collections:
        trees = projected[start:start + len(coll)]
        start += len(coll)
        keys = {frozenset((t.leaves_under(node), p[1])
                          for node, p in t.parent.items()
                          if p is not None and p[1] is not None)
                for t in trees}
        total += len(keys)
    return total


def provenance(args):
    from surfcut import cuttree, weights
    return {"workload": args.workload, "seed": args.seed,
            "kernel": cuttree.KERNEL, "scale": weights.SCALE,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_surfcut():
    """Import surfcut from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "surfcut" / "__init__.py").is_file():
        sys.exit(f"surfbench: no surfcut sources under {src}")
    sys.path.insert(0, str(src))
    import surfcut
    if Path(surfcut.__file__).resolve().parent != (src / "surfcut").resolve():
        sys.exit(f"surfbench: surfcut imported from {surfcut.__file__}")


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool,
                 work: Path):
    """One benchmark run; returns (Run, metrics)."""
    run = Run(spec, seed, work, trace)
    insts = run.setup()
    queried = [insts[i] for i in spec.query_rungs]
    cycle = [inst for inst, reps in zip(insts, spec.reps) for _ in range(reps)]
    start = perf_counter()
    for i in itertools.count():
        t0 = perf_counter()
        run.step(cycle[i % len(cycle)], insts, queried)
        # one full cycle always; then, untraced, steps while they fit
        upcoming = cycle[(i + 1) % len(cycle)].build_s
        expected = statistics.median(upcoming) if upcoming else \
            perf_counter() - t0
        if i + 1 >= len(cycle) and (
                trace or perf_counter() - start + expected > seconds):
            break
    if trace:
        run.traced_pass(insts, queried)
    if spec.probe is not None:
        run.run_probe()
    metrics = per_layer(run, insts) if trace else end_to_end(run, insts)
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_surfcut()
    work = ROOT / ".surfbench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run, metrics = run_workload(WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in run.problems:
        print(f"surfbench: {problem}", file=sys.stderr)
    prov = provenance(args)
    prov.update(probe=run.probe, trace=args.trace)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
