import contextlib
import io
import itertools
import json
import os
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcut import cli, cuttree, gen, reduction
from surfcut.cuttree import CutTree, host_checksum, validate_cut_tree
from surfcut.embed import dual, format_graph, parse_graph
from surfcut.errors import CrossingCutsError
from surfcut.oracle import min_face_cut
from surfcut.query import build_index, min_cut_query


def run(argv):
    return cli.main(argv)


def write(path, data):
    """Write ``data`` to ``path``: bytes as they are, text as UTF-8."""
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


def reference_query(tree_path, pairs_path, fmt):
    """``surfcut --format fmt query`` as the line-by-line loop that answered
    each pair as it parsed it, kept as the oracle for the bulk passes:
    ``(exit code, stdout, stderr)``."""
    with open(tree_path) as fh:
        tree = CutTree.from_json(json.dumps(json.load(fh)["tree"]))
    idx = build_index(tree)
    with open(pairs_path) as fh:
        text = fh.read()

    def bad(lineno, message):
        return 2, "", f"error: {pairs_path} line {lineno}: {message}\n"

    results = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        try:
            x, y = (int(tok) for tok in line.split())
        except ValueError:
            return bad(lineno, f"expected '<x> <y>', got {line!r}")
        try:
            results.append((x, y, min_cut_query(idx, x, y)))
        except KeyError as exc:
            return bad(lineno, f"face {exc.args[0]} is not in the cut tree")
        except ValueError as exc:
            return bad(lineno, exc)
    if fmt == "json":
        out = json.dumps([list(r) for r in results], sort_keys=True,
                         separators=(",", ":")) + "\n"
    else:
        out = "".join(f"{x} {y} {w}\n" for x, y, w in results)
    return 0, out, ""


def captured_run(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def all_path_mins(edges):
    """Minimum edge weight on the tree path of every ordered node pair."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    out = {}
    for x in adj:
        stack = [(x, None)]
        seen = {x}
        while stack:
            u, m = stack.pop()
            for v, w in adj[u]:
                if v not in seen:
                    seen.add(v)
                    out[x, v] = w if m is None else min(m, w)
                    stack.append((v, out[x, v]))
    return out


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "t3.graph"
    assert run(["--seed", "7", "gen", "torus", "--size", "3",
                "-o", str(path)]) == 0
    return path


@pytest.fixture
def handle_file(tmp_path):
    """A genus-2 graph: the 2x2 torus grid with a handle edge."""
    path = tmp_path / "h2.graph"
    path.write_text(format_graph(
        gen.add_edge_between_faces(gen.torus_grid(2), 0, 2)))
    return path


class TestExitCodes:
    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("this is not a graph\n")
        assert run(["build", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self):
        assert run(["build", "/nonexistent/input.graph"]) == 2

    @pytest.mark.parametrize("text", [
        "V 0\nE 0\n",                              # no vertex
        "V 2\nE 1\n0 0 1 1/0\nR 0 0\nR 1 1\n",     # zero denominator
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR -1 1\n",      # vertex id out of range
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR 0 0\n",       # repeated vertex id
        "V 2\nE 1\n0 0 1 1\nR 0 0\nR 1 1\nR 1 1\n",  # trailing line
        "X 2\nE 1\n0 0 1 1\nR 0 0\nR 1 1\n",       # wrong vertex keyword
        "V 2 9\nE 1\n0 0 1 1\nR 0 0\nR 1 1\n",     # extra header token
        "V 2\nE -1\nR 0\nR 1\n",                   # negative edge count
        b"V 2\nE 1\n0 0 1 1\nR 0 0\nR 1 1 \xff\n",  # not UTF-8
    ])
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_degenerate_graph(self, tmp_path, capsys, text, command):
        bad = tmp_path / "bad.graph"
        write(bad, text)
        assert run([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if isinstance(text, bytes):
            assert err.startswith(f"error: {bad}: not UTF-8 text (")

    def test_gen_empty_cycle_rejected(self, tmp_path, capsys):
        path = tmp_path / "c0.graph"
        assert run(["gen", "cycle", "--size", "0", "-o", str(path)]) == 2
        assert "n >= 1" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["torus", "planar", "cycle"])
    @pytest.mark.parametrize("weight", [0, -3])
    def test_gen_max_weight_below_one_rejected(self, tmp_path, capsys, kind,
                                               weight):
        path = tmp_path / "w.graph"
        assert run(["gen", kind, "--max-weight", str(weight),
                    "-o", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --max-weight must be at least 1, got {weight}\n")
        assert not path.exists()

    def test_genus_over_limit(self, tmp_path, capsys):
        g = gen.add_edge_between_faces(
            gen.add_edge_between_faces(gen.torus_grid(3), 0, 4), 0, 1)
        path = tmp_path / "g3.graph"
        path.write_text(format_graph(g))
        assert run(["build", str(path)]) == 3
        assert "error: genus 3 exceeds the maximum 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("pairs, message", [
        ("0 1\n0 99\n", "line 2: face 99 is not in the cut tree"),
        ("0 1\n\n0 x\n", "line 3: expected '<x> <y>', got '0 x'"),
        ("0 1 2\n", "line 1: expected '<x> <y>'"),
        ("3 3\n", "line 1: query endpoints must differ"),
        (b"0 1\n\xff 2\n", "pairs.txt: not UTF-8 text ('utf-8' codec"),
    ])
    def test_bad_query_input(self, torus_file, tmp_path, capsys, pairs,
                             message):
        tree_path = tmp_path / "tree.json"
        assert run(["build", str(torus_file), "-o", str(tree_path)]) == 0
        pairs_path = tmp_path / "pairs.txt"
        write(pairs_path, pairs)
        assert run(["query", str(tree_path), str(pairs_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("artifact, message", [
        ("{}", 'artifact has no "tree"'),
        ("[]", 'artifact has no "tree"'),
        ('{"tree": {"nodes": [0, 1], "edges": [[0, 2, 3]]}}',
         "names a node the tree does not hold"),
        ('{"tree": {"nodes": [0, 1, 2], "edges": [[0, 1, 3], [0, 1, 4]]}}',
         "closes a cycle"),
        ('{"tree": {"nodes": [0, 1, 2], "edges": [[0, 1, -5], [1, 2, 3]]}}',
         "cut tree edge [0, 1, -5] has a negative weight"),
        ('{"tree": {"nodes": [0, 1], "edges": [[0, 1, 1]],'
         ' "host_checksum": [1, 2]}}',
         'cut tree "host_checksum" [1, 2] is not a string'),
        ("", "tree.json: artifact is not JSON (Expecting value: line 1"),
        ('{"tree": ', "tree.json: artifact is not JSON ("),
        (b'{"tree": "\xff"}', "tree.json: not UTF-8 text ('utf-8' codec"),
    ])
    def test_malformed_artifact(self, tmp_path, capsys, artifact, message):
        tree_path = tmp_path / "tree.json"
        write(tree_path, artifact)
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 1\n")
        assert run(["query", str(tree_path), str(pairs_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_crossing_cuts(self, torus_file, monkeypatch, capsys):
        def boom(*a, **k):
            raise CrossingCutsError("minimum cuts cross")
        monkeypatch.setattr(cli, "merged_collection_tree", boom)
        assert run(["build", str(torus_file)]) == 4
        assert "cross" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("action, code, message", [
        ("raise", 4, "error: minimum cuts cross in a worker"),
        ("exit", 5, "exited with status 3 without sending its trees"),
    ])
    def test_worker_failure(self, torus_file, monkeypatch, capsys,
                            in_children, action, code, message):
        def fail():
            if action == "exit":
                os._exit(3)
            raise CrossingCutsError("minimum cuts cross in a worker")

        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        monkeypatch.setattr(cuttree, "gomory_hu",
                            in_children(cuttree.gomory_hu, fail))
        assert run(["build", str(torus_file)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("action, code, message", [
        ("raise", 4, "error: minimum cuts cross in a collection worker"),
        ("exit", 5, "exited with status 3 without sending its members"),
    ])
    def test_collection_worker_failure(self, handle_file, monkeypatch, capsys,
                                       in_children, action, code, message):
        def fail():
            if action == "exit":
                os._exit(3)
            raise CrossingCutsError(
                "minimum cuts cross in a collection worker")

        monkeypatch.setattr(reduction, "available_cpus", lambda: 2)
        monkeypatch.setattr(reduction, "tight_path",
                            in_children(reduction.tight_path, fail))
        assert run(["build", str(handle_file)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestBuildQuery:
    def test_round_trip_matches_oracle(self, torus_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        assert run(["--seed", "7", "build", str(torus_file),
                    "-o", str(tree_path)]) == 0
        g = parse_graph(torus_file.read_text())
        faces = sorted(g.ordinary_faces())
        pairs_path = tmp_path / "pairs.txt"
        pairs = list(itertools.combinations(faces, 2))
        pairs_path.write_text(
            "".join(f"{a} {b}\n" for a, b in pairs) + "# comment\n\n")
        assert run(["query", str(tree_path), str(pairs_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == len(pairs)
        for line, (a, b) in zip(out, pairs):
            x, y, w = (int(tok) for tok in line.split())
            assert (x, y) == (a, b)
            assert w == min_face_cut(g, a, b)[0]

    @pytest.mark.parametrize("command", ["gen", "build", "query", "verify"])
    def test_empty_output_path_writes_stdout(self, torus_file, tmp_path,
                                             command):
        tree_path = tmp_path / "tree.json"
        assert run(["build", str(torus_file), "-o", str(tree_path)]) == 0
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 1\n3 7\n")
        argv = {"gen": ["gen", "torus"],
                "build": ["build", str(torus_file)],
                "query": ["query", str(tree_path), str(pairs_path)],
                "verify": ["verify", str(torus_file)]}[command]
        code, out, err = captured_run(argv + ["-o", ""])
        assert (code, err) == (0, "") and out
        assert (code, out, err) == captured_run(argv)

    def test_query_json_format(self, torus_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(["build", str(torus_file), "-o", str(tree_path)])
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 1\n# faces 3 and 7\n3 7\n\n8 2  # last\n")
        assert run(["--format", "json", "query", str(tree_path),
                    str(pairs_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert run(["query", str(tree_path), str(pairs_path)]) == 0
        text = capsys.readouterr().out.splitlines()
        assert [row[:2] for row in data] == [[0, 1], [3, 7], [8, 2]]
        assert data == [[int(tok) for tok in line.split()] for line in text]

    def test_planar_build(self, tmp_path, capsys):
        graph_path = tmp_path / "p.graph"
        assert run(["--seed", "3", "gen", "planar", "--size", "8",
                    "-o", str(graph_path)]) == 0
        assert run(["--seed", "3", "verify", str(graph_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "pass" in out

    def test_large_weight_planar_build(self, tmp_path):
        """Perturbed weights near 2**42 give max-flow totals past 2**63."""
        graph_path = tmp_path / "big.graph"
        assert run(["--seed", "3", "gen", "planar", "--size", "8",
                    "--max-weight", "4398046511104",
                    "-o", str(graph_path)]) == 0
        g = parse_graph(graph_path.read_text())
        tree = cli.build_tree(g, 1)
        assert validate_cut_tree(tree, g.face_count, list(dual(g))) == []

    def test_artifact_holds_only_tree_and_seed(self, torus_file, tmp_path):
        tree_path = tmp_path / "tree.json"
        assert run(["--seed", "7", "build", str(torus_file),
                    "-o", str(tree_path)]) == 0
        payload = json.loads(tree_path.read_text())
        assert set(payload) == {"seed", "tree"}
        assert payload["seed"] == 7

    @pytest.mark.parametrize("kind", ["planar", "torus"])
    def test_artifact_checksum(self, tmp_path, kind):
        graph_path = tmp_path / f"{kind}.graph"
        tree_path = tmp_path / "tree.json"
        assert run(["--seed", "5", "gen", kind, "--size", "4",
                    "-o", str(graph_path)]) == 0
        assert run(["--seed", "5", "build", str(graph_path),
                    "-o", str(tree_path)]) == 0
        g = parse_graph(graph_path.read_text())
        payload = json.loads(tree_path.read_text())
        tree = CutTree.from_json(json.dumps(payload["tree"]))
        assert tree.host_checksum == host_checksum(format_graph(g))

    def test_legacy_cartesian_block_is_ignored(self, torus_file, tmp_path,
                                               capsys):
        tree_path = tmp_path / "tree.json"
        run(["build", str(torus_file), "-o", str(tree_path)])
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 8\n3 5\n1 2\n")
        assert run(["query", str(tree_path), str(pairs_path)]) == 0
        want = capsys.readouterr().out
        # the shape of the block older builds wrote next to the tree: a
        # Cartesian tree whose nodes are leaves or [left, right] pairs
        payload = json.loads(tree_path.read_text())
        payload["cartesian"] = {
            "children": [[], [], [], [0, 1], [3, 2]],
            "weight": [None, None, None, 5, 3],
            "edge_index": [None, None, None, 1, 0],
            "root": 4, "lca": "sparse"}
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")) + "\n")
        assert run(["query", str(legacy), str(pairs_path)]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("gen_argv, edges", [
        pytest.param(["planar", "--size", "200"], 594, id="planar200"),
        pytest.param(None, 512, id="torus16-unit"),
        pytest.param(["torus", "--size", "16"], 512, id="torus16-random"),
    ])
    def test_build_above_old_ceiling(self, tmp_path, gen_argv, edges):
        """Builds past 511 edges exit 0 and match networkx's Gomory-Hu tree
        of the unperturbed dual on every face pair."""
        nx = pytest.importorskip("networkx")
        graph_path = tmp_path / "big.graph"
        if gen_argv is None:
            graph_path.write_text(format_graph(gen.torus_grid(16)))
        else:
            assert run(["--seed", "1", "gen", *gen_argv,
                        "-o", str(graph_path)]) == 0
        g = parse_graph(graph_path.read_text())
        assert g.edge_count == edges
        tree_path = tmp_path / "tree.json"
        assert run(["--seed", "1", "build", str(graph_path),
                    "-o", str(tree_path)]) == 0
        payload = json.loads(tree_path.read_text())
        tree = CutTree.from_json(json.dumps(payload["tree"]))

        dg = nx.Graph()
        dg.add_nodes_from(range(g.face_count))
        for u, v, w in dual(g):
            if u != v:
                cap = dg.get_edge_data(u, v, {"capacity": 0})["capacity"]
                dg.add_edge(u, v, capacity=cap + w)
        gh = nx.gomory_hu_tree(dg)
        want = all_path_mins((u, v, w) for u, v, w in
                             gh.edges(data="weight"))
        assert all_path_mins(tree.edges) == want

    @pytest.mark.parametrize("argv", [
        ["--lca", "sparse", "query", "tree.json", "pairs.txt"],
        ["bench"],
        ["--genus-max", "2", "build", "t.graph"],
    ])
    def test_removed_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_byte_identical(self, torus_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(["--seed", "11", "build", str(torus_file), "-o", str(out1)])
        run(["--seed", "11", "build", str(torus_file), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        run(["--seed", "2", "gen", "torus", "--size", "4", "-o", str(a)])
        run(["--seed", "2", "gen", "torus", "--size", "4", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_verify_reports_determinism(self, torus_file, tmp_path, capsys):
        handle_file = tmp_path / "h3.graph"
        handle_file.write_text(format_graph(
            gen.add_edge_between_faces(gen.torus_grid(3), 0, 4)))
        for path in (torus_file, handle_file):
            assert run(["--seed", "1", "verify", str(path)]) == 0
            out = capsys.readouterr().out
            assert "deterministic-rebuild: pass" in out
            assert out.count(": pass\n") == 3


class TestOneVertexNoEdges:
    """One vertex and no edges is a sphere with one empty face: it builds
    the one-node tree and passes all three verify checks."""

    def test_build_and_verify(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("V 1\nE 0\nR 0\n"))
        assert run(["build", "-"]) == 0
        tree = json.loads(capsys.readouterr().out)["tree"]
        assert (tree["nodes"], tree["edges"]) == ([0], [])
        monkeypatch.setattr("sys.stdin", io.StringIO("V 1\nE 0\nR 0\n"))
        assert run(["verify", "-"]) == 0
        assert capsys.readouterr().out.count(": pass\n") == 3


# Tokens of a pairs file: faces of the 3x3 torus's tree (0-8), spellings
# ``int`` accepts, faces the tree lacks, and non-integers.
FACE_TOKENS = [str(f) for f in range(9)]
ODD_TOKENS = ["+3", "007", "1_0", "-0", "٣", "9", "99", "-1", "12", "x",
              "1.5", "0x1", "1__0", "_1", "--2"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85"]


@st.composite
def pairs_files(draw):
    """Pairs files mixing pairs of distinct faces, blank lines, comments,
    tabs and every kind of line break with odd lines: ``x x``, odd token
    spellings, and 1 or 3 tokens.  ``noise`` percent of the lines are odd, so
    some files are valid and others hold several bad lines."""
    noise = draw(st.sampled_from([0, 0, 2, 10, 40]))
    space = st.sampled_from(["", "", " ", "\t", " \t "])
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        odd = draw(st.integers(0, 99)) < noise
        if not draw(st.integers(0, 3)):
            tokens = []
        elif not odd:
            tokens = draw(st.lists(st.sampled_from(FACE_TOKENS), min_size=2,
                                   max_size=2, unique=True))
        elif not draw(st.integers(0, 2)):
            tokens = [draw(st.sampled_from(FACE_TOKENS))] * 2
        else:
            tokens = [draw(st.sampled_from(FACE_TOKENS + ODD_TOKENS))
                      for _ in range(draw(st.sampled_from([1, 2, 2, 3])))]
        line = (draw(space) + draw(st.sampled_from([" ", "\t", "  "]))
                .join(tokens) + draw(space))
        if draw(st.booleans()):
            line += "#" + draw(st.sampled_from(["", " note", "0 1", "x#y"]))
        parts.append(line + draw(st.sampled_from(LINE_BREAKS)))
    if parts and draw(st.booleans()):
        parts[-1] = parts[-1].rstrip("".join(LINE_BREAKS))
    return "".join(parts)


@pytest.fixture(scope="module")
def torus_tree(tmp_path_factory):
    work = tmp_path_factory.mktemp("grammar")
    graph_path = work / "t3.graph"
    tree_path = work / "tree.json"
    assert run(["--seed", "7", "gen", "torus", "--size", "3",
                "-o", str(graph_path)]) == 0
    assert run(["--seed", "7", "build", str(graph_path),
                "-o", str(tree_path)]) == 0
    return tree_path


class TestPairsGrammar:
    @settings(max_examples=300, deadline=None)
    @given(text=pairs_files())
    def test_matches_line_by_line_reference(self, torus_tree, text):
        """Also at block sizes 1 and 3, so block edges fall between and
        inside lines of every kind, around comment lines, and before bad
        lines whose numbers count across blocks."""
        pairs_path = torus_tree.parent / "pairs.txt"
        pairs_path.write_bytes(text.encode())
        for block in (1, 3, cli.PAIRS_BLOCK):
            for fmt in ("text", "json"):
                with mock.patch.object(cli, "PAIRS_BLOCK", block):
                    got = captured_run(["--format", fmt, "query",
                                        str(torus_tree), str(pairs_path)])
                assert got == reference_query(torus_tree, pairs_path, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_query_memory_is_bounded(self, torus_tree, tmp_path, fmt):
        """200,000 pairs stay under 10 MB of Python allocations: answering
        the whole file in one pass took 34 MB (text) and 38 MB (json)."""
        rng = random.Random(28)
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("".join(
            "%d %d\n" % tuple(rng.sample(range(9), 2))
            for _ in range(200_000)))
        tracemalloc.start()
        try:
            assert run(["--format", fmt, "query", str(torus_tree),
                        str(pairs_path), "-o", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak
