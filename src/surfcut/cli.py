"""Command-line frontend: generate, build, query, verify, benchmark.

Exit codes: 0 success, 2 input failure (a malformed graph, or a bad query
pair line), 3 genus above the configured maximum, 4 crossing minimum cuts
during merge, 5 too many edges for the weight perturbation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import gen, weights
from .cuttree import CutTree, dual_cut_tree, host_checksum, validate_cut_tree
from .embed import dual, format_graph, parse_graph
from .errors import (
    CrossingCutsError,
    GenusLimitError,
    InstanceTooLargeError,
    QueryInputError,
    SurfcutError,
)
from .merge import merged_collection_tree
from .oracle import min_face_cut
from .query import build_index, min_cut_query
from .reduction import member_trees, planar_collection

EXIT_PARSE = 2
EXIT_GENUS = 3
EXIT_CROSSING = 4
EXIT_TOO_LARGE = 5


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(args, payload, text_lines):
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = "".join(line + "\n" for line in text_lines)
    _write(getattr(args, "output", "-") or "-", out)


def build_tree(g, seed: int, genus_max: int):
    """Cut tree over the ordinary faces of ``g``: weight-perturbed pipeline,
    de-perturbed exact weights on the result."""
    pg = weights.perturb_graph(g, seed)
    checksum = host_checksum(format_graph(g))
    if g.genus == 0:
        tree = dual_cut_tree(pg, checksum=checksum)
    else:
        coll = planar_collection(pg, genus_max=genus_max)
        trees = member_trees(coll, checksum)
        tree = merged_collection_tree(coll, trees, checksum)
    return tree.with_weights([weights.restore(w) for _, _, w in tree.edges])


def cmd_build(args):
    g = parse_graph(_read(args.input))
    tree = build_tree(g, args.seed, args.genus_max)
    idx = build_index(tree, lca=args.lca)
    payload = {
        "tree": json.loads(tree.to_json()),
        "cartesian": {
            "children": [list(c) for c in idx.children],
            "weight": idx.weight,
            "edge_index": idx.edge_index,
            "root": idx.root,
            "lca": args.lca,
        },
        "seed": args.seed,
    }
    _write(args.output, json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    return 0


def cmd_query(args):
    payload = json.loads(_read(args.tree))
    tree = CutTree.from_json(json.dumps(payload["tree"]))
    idx = build_index(tree, lca=args.lca)
    results = []
    for lineno, line in enumerate(_read(args.pairs).splitlines(), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        try:
            x, y = (int(tok) for tok in line.split())
        except ValueError:
            raise QueryInputError(f"{args.pairs} line {lineno}: expected "
                                  f"'<x> <y>', got {line!r}") from None
        try:
            results.append((x, y, min_cut_query(idx, x, y)))
        except KeyError as exc:
            raise QueryInputError(f"{args.pairs} line {lineno}: face "
                                  f"{exc.args[0]} is not in the cut tree"
                                  ) from None
        except ValueError as exc:
            raise QueryInputError(
                f"{args.pairs} line {lineno}: {exc}") from None
    _emit(args, [list(r) for r in results],
          [f"{x} {y} {w}" for x, y, w in results])
    return 0


def cmd_verify(args):
    g = parse_graph(_read(args.input))
    report = []

    def check(name, ok):
        report.append((name, bool(ok)))

    tree = build_tree(g, args.seed, args.genus_max)
    faces = sorted(g.ordinary_faces())
    check("tree-spans-ordinary-faces", sorted(tree.nodes) == faces)
    d = dual(g)
    dedges = [(u, v, w) for u, v, w in d.edges]
    if g.genus == 0:
        check("tree-weights-and-pairs",
              not validate_cut_tree(tree, d.vertex_count, dedges))
    else:
        ok = all(tree.path_min(a, b) == min_face_cut(g, a, b)[0]
                 for i, a in enumerate(faces) for b in faces[i + 1:])
        check("pairs-match-dual-max-flow", ok)
    again = build_tree(g, args.seed, args.genus_max)
    check("deterministic-rebuild", again == tree)
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in report]
    _emit(args, {name: ok for name, ok in report}, lines)
    return 0 if all(ok for _, ok in report) else 1


def cmd_gen(args):
    rng = random.Random(args.seed)
    if args.kind == "torus":
        k = args.size
        ws = [rng.randint(1, args.max_weight) for _ in range(2 * k * k)]
        g = gen.torus_grid(k, weights=ws)
    elif args.kind == "planar":
        g = gen.planar_triangulation(args.size, args.seed, args.max_weight)
    elif args.kind == "cycle":
        ws = [rng.randint(1, args.max_weight) for _ in range(args.size)]
        g = gen.cycle_graph(args.size, weights=ws)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    _write(args.output, format_graph(g))
    return 0


def cmd_bench(args):
    from . import _dinic_py
    from .cuttree import KERNEL
    try:
        from . import _dinic
        kernels = [("compiled", _dinic.max_flow), ("pure", _dinic_py.max_flow)]
    except ImportError:
        kernels = [("pure", _dinic_py.max_flow)]
    rng = random.Random(args.seed)
    n = args.size
    edges = [(rng.randrange(v), v, rng.randint(1, 1000))
             for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 1000))
              for _ in range(3 * n)]
    edges = [(u, v, w) for u, v, w in edges if u != v]
    lines = [f"active kernel: {KERNEL}",
             f"max-flow, n={n}, m={len(edges)}, 20 terminal pairs:"]
    results = {"kernel": KERNEL, "maxflow": {}}
    for name, fn in kernels:
        t0 = time.perf_counter()
        for i in range(20):
            fn(n, edges, i % n, (n // 2 + i) % n)
        dt = time.perf_counter() - t0
        lines.append(f"  {name:10s} {dt:8.3f}s")
        results["maxflow"][name] = dt
    # query throughput
    t = CutTree(tuple(range(n)), tuple(
        (rng.randrange(v), v, rng.randint(1, 10**9)) for v in range(1, n)))
    for lca in ("sparse", "block"):
        idx = build_index(t, lca=lca)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(50000)]
        pairs = [(x, y) for x, y in pairs if x != y]
        t0 = time.perf_counter()
        for x, y in pairs:
            min_cut_query(idx, x, y)
        rate = len(pairs) / (time.perf_counter() - t0)
        lines.append(f"query backend {lca}: {rate:,.0f} queries/s")
        results[f"query_{lca}_per_s"] = rate
    _emit(args, results, lines)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="surfcut",
        description="all-pairs minimum cuts on surface-embedded graphs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--genus-max", type=int, default=2)
    parser.add_argument("--lca", choices=("sparse", "block"),
                        default="sparse")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compute the cut tree of an instance")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="batch min-cut queries against a tree")
    p.add_argument("tree")
    p.add_argument("pairs")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="check one instance against oracles")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", choices=("torus", "planar", "cycle"))
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time kernels and query throughput")
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except GenusLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENUS
    except CrossingCutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSSING
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (SurfcutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
