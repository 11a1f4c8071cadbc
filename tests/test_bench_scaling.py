import importlib.util
import json
import os
from pathlib import Path

import pytest

from surfcut import cuttree

SPEC = importlib.util.spec_from_file_location(
    "bench_scaling",
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_scaling.py")
bench_scaling = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_scaling)


def test_tiny_ladders_fill_this_kernels_entry(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    out.write_text(json.dumps({"kernels": {"other": {"points": []}}}))
    affinity = (os.sched_getaffinity(0)
                if hasattr(os, "sched_getaffinity") else None)
    assert bench_scaling.main(["--out", str(out), "--torus", "3", "4",
                               "--handle", "2", "--runs", "1"]) == 0
    if affinity is not None:
        assert os.sched_getaffinity(0) == affinity
    bench = json.loads(out.read_text())
    assert list(bench["kernels"]) == sorted(["other", cuttree.KERNEL])
    entry = bench["kernels"][cuttree.KERNEL]
    assert [(p["ladder"], p["k"], p["faces"]) for p in entry["points"]] == [
        ("torus", 3, 9), ("torus", 4, 16), ("handle", 2, 3)]
    for p in entry["points"]:
        assert p["merged_equals_direct"]
        assert p["members"] >= p["keys"] >= 1
        for clock in ("wall_s", "cpu_s"):
            assert set(p[clock]) == set(bench_scaling.STAGES)
    torus = entry["slopes"]["torus"]["wall_s"]
    assert all(isinstance(torus[s], float) for s in bench_scaling.STAGES)
    # one handle point fits no slope
    assert set(entry["slopes"]["handle"]["wall_s"].values()) == {None}


def test_slope_is_the_log_log_least_squares_fit():
    assert bench_scaling.slope([10, 100, 1000], [3, 300, 30000]) == (
        pytest.approx(2.0))
    assert bench_scaling.slope([10, 10], [1, 2]) is None
    assert bench_scaling.slope([10, 100], [1, 0]) is None
