"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q surfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from instances import Rung  # noqa: E402

run.load_surfcut()

from surfcut import cli  # noqa: E402
from surfcut.cuttree import dual_cut_tree  # noqa: E402

import gate  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "torus": run.Workload(rungs=(Rung("torus", 4), Rung("torus", 3)),
                          reps=(1, 2), query_rungs=(0,), pairs=200),
    "genus2": run.Workload(rungs=(Rung("handle", 2),), reps=(2,),
                           query_rungs=(0,), pairs=200),
    "planar-query": run.Workload(
        rungs=(Rung("planar", 40), Rung("planar", 20)), reps=(1, 2),
        query_rungs=(0,), pairs=500, probe=Rung("planar", 200)),
}


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_tiny_workloads_match_the_real_ones():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"]
                                               for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", ["torus", "planar-query"])
def test_end_to_end_metrics_emitted(name, tmp_path):
    bench, metrics = run.run_workload(TINY[name], 3, 0, False, tmp_path)
    assert not bench.problems
    assert bench.failed == 0 and bench.attempted > 0
    assert {k: u for k, (_, u) in metrics.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    if name == "planar-query":     # the probe shows the edge ceiling
        assert bench.probe["edges"] == 594
        assert (metrics["max_edges"][0] == 594) == (bench.probe["exit"] == 0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(name, tmp_path):
    bench, metrics = run.run_workload(TINY[name], 3, 0, True, tmp_path)
    assert not bench.problems
    assert {k: u for k, (_, u) in metrics.items()} == units("per_layer")
    assert metrics["trace.selftime_gap"][0] <= run.SELF_TIME_TOLERANCE
    assert metrics["query.answer_calls"][0] > 0
    if name == "planar-query":
        assert metrics["reduction.members"][0] == 0
    else:
        assert metrics["reduction.members"][0] > 0
        assert 0 < metrics["merge.distinct_trees"][0] <= \
            metrics["reduction.members"][0]


def test_gate_trips_on_a_corrupted_tree(tmp_path):
    bench = run.Run(TINY["torus"], 5, tmp_path, False)
    inst, = [i for i in bench.setup() if i.rung.size == 3]
    cli.main(["--seed", "5", "build", inst.path, "-o", inst.artifact])
    good = Path(inst.artifact).read_bytes()
    assert gate.tree_mismatches(good, inst.reference) == []
    payload = json.loads(good)
    payload["tree"]["edges"][0][2] += 1
    bad = json.dumps(payload).encode()
    assert gate.tree_mismatches(bad, inst.reference)
    bench.check_artifact(inst, bad)
    assert bench.failed == 1 and bench.problems


def test_gate_trips_on_a_wrong_answer():
    ref = gate.Reference(dual_cut_tree(run.make_graph(Rung("torus", 3), 5)))
    pairs = [(0, 1), (2, 5)]
    text = gate.expected_answers(pairs, ref)
    assert gate.answer_mismatch(text, text) is None
    x, y, w = text.splitlines()[1].split()
    wrong = text.splitlines()[0] + f"\n{x} {y} {int(w) + 1}\n"
    assert gate.answer_mismatch(wrong, text) == (f"{x} {y} {int(w) + 1}",
                                                 f"{x} {y} {w}")


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "surfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "surfbench/run.py", "--workload", "torus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_kernels(tmp_path):
    import compare
    logs = []
    for kernel in ("pure", "compiled"):
        log = tmp_path / f"{kernel}.log"
        log.write_text(
            json.dumps({"provenance": {"kernel": kernel,
                                       "workload": "torus"}}) + "\n" +
            json.dumps({"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"setup_s": {"value": 1.0,
                                                "unit": "s"}}}) + "\n")
        logs.append(str(log))
    assert compare.main([logs[0], logs[0]]) == 0
    assert compare.main(logs) == 2
