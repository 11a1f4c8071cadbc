"""Compare two sets of saved benchmark runs, metric by metric.

    python3 surfbench/compare.py base.log head.log

Each log holds the standard output of one or more ``run.py`` runs (the
provenance line followed by the result line).  Runs made with different
max-flow kernels (``cuttree.KERNEL``) are not comparable: the comparison is
refused when the two logs, or the runs inside one log, disagree on it.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path):
    """``(kernels, {(workload, metric): [values]})`` of one log."""
    kernels = set()
    values = {}
    prov = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "provenance" in record:
                prov = record["provenance"]
                kernels.add(prov["kernel"])
            elif "metrics" in record and prov is not None:
                for name, m in record["metrics"].items():
                    values.setdefault((prov["workload"], name), []).append(
                        m["value"])
                prov = None
    return kernels, values


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    (ka, a), (kb, b) = load(argv[0]), load(argv[1])
    if len(ka | kb) != 1:
        print(f"refusing to compare runs of kernels {sorted(ka)} and "
              f"{sorted(kb)}", file=sys.stderr)
        return 2
    for key in sorted(a.keys() & b.keys()):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{key[0]:13s} {key[1]:30s} {ma:12.6g} {mb:12.6g} {change:>8s}"
              f"  (n={len(a[key])}/{len(b[key])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
