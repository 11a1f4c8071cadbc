"""Compare the compiled max-flow kernel against the pure-Python fallback.

Run from the repository root:

    python3 benchmarks/bench_maxflow.py [--sizes 500 2000 8000] [--seed 0]

The table times each kernel's ``search`` on random graphs, whose arc arrays
are written before the timer starts, so that it times the kernel alone.
Two more lines per kernel time ``dual_cut_tree`` of the perturbed 10-by-10
torus grid (weights 1..100 from ``random.Random(7)``, seed 7) and of the
perturbed ``gen.planar_triangulation(170, 7)`` (seed 7).
"""

import argparse
import random
import time

from surfcut import _dinic_py, cuttree, gen, weights
from surfcut.cuttree import KERNEL

try:
    from surfcut import _dinic
    KERNELS = [("compiled", _dinic), ("pure", _dinic_py)]
except ImportError:
    KERNELS = [("pure", _dinic_py)]


def make_graph(n, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v, rng.randint(1, 1000)) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 1000))
              for _ in range(3 * n)]
    return [(u, v, w) for u, v, w in edges if u != v]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[500, 2000, 8000])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args(argv)

    print(f"kernel selected at import: {KERNEL}")
    print(f"{'n':>8} {'m':>8}" +
          "".join(f" {name + ' (s)':>14}" for name, _ in KERNELS) +
          f" {'speedup':>9}")
    for n in args.sizes:
        edges = make_graph(n, args.seed)
        row = [f"{n:>8} {len(edges):>8}"]
        times = []
        first, to, cap, nxt = _dinic_py.arcs(n, edges)
        for name, kernel in KERNELS:
            # one copy per pair: the pure kernel leaves ``cap`` residual
            caps = [cap[:] for _ in range(args.pairs)]
            t0 = time.perf_counter()
            for i, c in enumerate(caps):
                kernel.search(n, first, to, c, nxt, i % n, (n // 2 + i) % n)
            times.append(time.perf_counter() - t0)
            row.append(f" {times[-1]:>14.3f}")
        speedup = times[-1] / times[0] if len(times) == 2 else 1.0
        row.append(f" {speedup:>8.1f}x")
        print("".join(row))

    graphs = [("torus10", gen.torus_grid(10, seed=7)),
              ("planar170", gen.planar_triangulation(170, 7))]
    for label, g in graphs:
        g = weights.perturb_graph(g, 7)
        for name, kernel in KERNELS:
            saved, cuttree._dinic = cuttree._dinic, kernel
            try:
                t0 = time.perf_counter()
                cuttree.dual_cut_tree(g)
                print(f"dual_cut_tree {label} ({name}): "
                      f"{time.perf_counter() - t0:.3f} s")
            finally:
                cuttree._dinic = saved


if __name__ == "__main__":
    main()
