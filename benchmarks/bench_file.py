"""Summarise saved surfbench runs into a committed ``BENCH_<kernel>.json``.

Run from the repository root, after saving the standard output of several
``surfbench/run.py --trace 0`` runs per workload (one or more runs per log):

    python3 benchmarks/bench_file.py --parent <commit> BENCH_pure.json \
        runs/*.log

``--parent`` names the commit the measured tree builds on.  The file holds,
per workload and end-to-end metric, the median and quartiles over the runs,
and a provenance record: the max-flow kernel, the parent commit, the commits
the runs report, the seeds, the Python version and the CPU count.  Logs of
different kernels, and runs that were not correct or had failures, are
refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load_runs(paths):
    """``[(provenance, result)]`` of every run in the logs."""
    runs = []
    for path in paths:
        prov = None
        with open(path) as fh:
            for line in fh:
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "provenance" in record:
                    prov = record["provenance"]
                elif "metrics" in record and prov is not None:
                    runs.append((prov, record))
                    prov = None
    return runs


def summarise(runs, parent):
    kernels = {p["kernel"] for p, _ in runs}
    if len(kernels) != 1:
        raise SystemExit(f"bench_file: runs of kernels {sorted(kernels)}")
    if any(p["trace"] for p, _ in runs):
        raise SystemExit("bench_file: traced runs carry per-layer metrics")
    bad = [f"{p['workload']} seed {p['seed']}" for p, r in runs
           if not r["correct"] or r["failed"]]
    if bad:
        raise SystemExit(f"bench_file: incorrect or failed runs: {bad}")
    values = {}
    for p, r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(p["workload"], {}).setdefault(
                name, (m["unit"], []))[1].append(m["value"])
    workloads = {}
    for wl, metrics in sorted(values.items()):
        workloads[wl] = {}
        for name, (unit, xs) in sorted(metrics.items()):
            q1, median, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                              else (xs[0],) * 3)
            workloads[wl][name] = {"median": statistics.median(xs),
                                   "q1": q1, "q3": q3, "unit": unit,
                                   "runs": len(xs)}
    first = runs[0][0]
    return {
        "provenance": {
            "kernel": kernels.pop(),
            "parent": parent,
            "commits": sorted({p["commit"] for p, _ in runs}),
            "seeds": {wl: sorted(p["seed"] for p, _ in runs
                                 if p["workload"] == wl)
                      for wl in workloads},
            "python": first["python"],
            "nproc": first["nproc"],
        },
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="commit the measured tree builds on")
    parser.add_argument("output")
    parser.add_argument("logs", nargs="+")
    args = parser.parse_args(argv)
    runs = load_runs(args.logs)
    if not runs:
        raise SystemExit("bench_file: no runs in the logs")
    with open(args.output, "w") as fh:
        json.dump(summarise(runs, args.parent), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
