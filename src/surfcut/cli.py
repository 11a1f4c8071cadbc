"""Command-line frontend: generate, build, query, verify.

``build`` writes only the cut tree and the seed; ``query`` rebuilds the LCA
index from the stored tree and answers each pair line in O(1).

Global flags are ``--seed`` and ``--format``.  Exit codes: 0 success, 2
input failure (a malformed graph or artifact, or a bad query pair line), 3
genus above ``reduction.GENUS_MAX`` (2), 4 crossing minimum cuts during
merge, 5 a forked worker that ended without sending its result: a
collection worker its members, or a member-tree worker its trees
(``WorkerError``, naming its kind and exit status).  An error raised inside
a worker reaches the CLI with its own type and exit code.  No edge count is refused:
the weight perturbation's scale grows with the instance.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import gen, weights
from .cuttree import CutTree, dual_cut_tree, host_checksum, validate_cut_tree
from .embed import dual, format_graph, parse_graph
from .errors import (
    CrossingCutsError,
    GenusLimitError,
    QueryInputError,
    SurfcutError,
    WorkerError,
)
from .merge import merged_collection_tree
from .query import build_index, min_cut_query
from .reduction import member_trees, planar_collection

EXIT_PARSE = 2
EXIT_GENUS = 3
EXIT_CROSSING = 4
EXIT_WORKER = 5


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


def build_tree(g, seed: int):
    """Cut tree over the ordinary faces of ``g``: weight-perturbed pipeline,
    de-perturbed exact weights and the input's checksum on the result."""
    pg = weights.perturb_graph(g, seed)
    if g.genus == 0:
        tree = dual_cut_tree(pg)
    else:
        coll = planar_collection(pg)
        tree = merged_collection_tree(member_trees(coll))
    return CutTree(tree.nodes,
                   tuple((u, v, weights.restore(w, g.edge_count))
                         for u, v, w in tree.edges),
                   host_checksum(format_graph(g)))


def cmd_build(args):
    g = parse_graph(_read(args.input))
    tree = build_tree(g, args.seed)
    payload = {"tree": json.loads(tree.to_json()), "seed": args.seed}
    _write(args.output, json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    return 0


def cmd_query(args):
    payload = json.loads(_read(args.tree))
    if not isinstance(payload, dict) or "tree" not in payload:
        raise QueryInputError(f'{args.tree}: artifact has no "tree"')
    tree = CutTree.from_json(json.dumps(payload["tree"]))
    idx = build_index(tree)
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

    tree = build_tree(g, args.seed)
    faces = sorted(g.ordinary_faces())
    check("tree-spans-ordinary-faces", sorted(tree.nodes) == faces)
    d = dual(g)
    check("tree-weights-and-pairs",
          not validate_cut_tree(tree, d.vertex_count, list(d.edges)))
    again = build_tree(g, args.seed)
    check("deterministic-rebuild", again == tree)
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in report]
    _emit(args, {name: ok for name, ok in report}, lines)
    return 0 if all(ok for _, ok in report) else 1


def cmd_gen(args):
    if args.max_weight < 1:
        raise ValueError(
            f"--max-weight must be at least 1, got {args.max_weight}")
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


def make_parser():
    parser = argparse.ArgumentParser(
        prog="surfcut",
        description="all-pairs minimum cuts on surface-embedded graphs")
    parser.add_argument("--seed", type=int, default=0)
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
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except (SurfcutError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
