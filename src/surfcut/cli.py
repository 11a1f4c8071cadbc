"""Command-line frontend: generate, build, query, verify.

``build`` writes only the cut tree and the seed; ``query`` rebuilds the
range-minimum index from the stored tree and answers each pair line in O(1).

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
from itertools import repeat

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
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is
    ``-`` or empty."""
    if path in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_line(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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
    _write(args.output,
           _json_line({"tree": json.loads(tree.to_json()), "seed": args.seed}))
    return 0


def cmd_query(args):
    payload = json.loads(_read(args.tree))
    if not isinstance(payload, dict) or "tree" not in payload:
        raise QueryInputError(f'{args.tree}: artifact has no "tree"')
    tree = CutTree.from_json(json.dumps(payload["tree"]))
    idx = build_index(tree)
    text = _read(args.pairs)
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    # Bulk passes over all pairs; any failure walks the lines for the first
    # bad one.  ``min_cut_query`` is looked up here, at call time, so a
    # wrapper installed on this module sees every answer.
    try:
        if not set(map(len, map(str.split, lines))) <= {0, 2}:
            raise ValueError("a pairs line does not hold two tokens")
        nums = list(map(int, " ".join(lines).split()))
        xs, ys = nums[0::2], nums[1::2]
        ws = list(map(min_cut_query, repeat(idx), xs, ys))
    except (ValueError, KeyError):
        _raise_first_bad_line(args.pairs, lines, idx)
        raise
    if args.format == "json":
        out = _json_line(list(zip(xs, ys, ws)))
    else:
        out = "".join(map("%d %d %d\n".__mod__, zip(xs, ys, ws)))
    _write(args.output, out)
    return 0


def _raise_first_bad_line(name, lines, idx):
    """Raise the QueryInputError of the first line, in file order, that is
    not two integers naming distinct faces of the cut tree."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            x, y = (int(tok) for tok in line.split())
        except ValueError:
            raise QueryInputError(f"{name} line {lineno}: expected "
                                  f"'<x> <y>', got {line!r}") from None
        try:
            min_cut_query(idx, x, y)
        except KeyError as exc:
            raise QueryInputError(f"{name} line {lineno}: face "
                                  f"{exc.args[0]} is not in the cut tree"
                                  ) from None
        except ValueError as exc:
            raise QueryInputError(f"{name} line {lineno}: {exc}") from None


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
    if args.format == "json":
        out = _json_line(dict(report))
    else:
        out = "".join(f"{name}: {'pass' if ok else 'FAIL'}\n"
                      for name, ok in report)
    _write(args.output, out)
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
