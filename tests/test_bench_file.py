import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_file",
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_file.py")
bench_file = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_file)


def write_log(path, runs):
    """A surfbench log: a provenance line and a result line per run."""
    lines = []
    for workload, seed, kernel, setup_s in runs:
        lines.append(json.dumps({"provenance": {
            "workload": workload, "seed": seed, "kernel": kernel,
            "commit": "c0ffee", "python": "3.11.7", "nproc": 2,
            "trace": 0}}))
        lines.append(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                                 "metrics": {"setup_s": {"value": setup_s,
                                                         "unit": "s"}}}))
    path.write_text("noise on stdout\n" + "\n".join(lines) + "\n")
    return str(path)


def test_medians_quartiles_and_provenance(tmp_path):
    log = write_log(tmp_path / "a.log",
                    [("genus2", s, "pure", float(s)) for s in (4, 1, 3, 2)]
                    + [("torus", 9, "pure", 1.5)])
    out = tmp_path / "BENCH_pure.json"
    assert bench_file.main(["--parent", "abc123", str(out), log]) == 0
    bench = json.loads(out.read_text())
    g2 = bench["workloads"]["genus2"]["setup_s"]
    assert (g2["median"], g2["runs"], g2["unit"]) == (2.5, 4, "s")
    assert g2["q1"] <= g2["median"] <= g2["q3"]
    assert bench["workloads"]["torus"]["setup_s"]["median"] == 1.5
    prov = bench["provenance"]
    assert prov["kernel"] == "pure" and prov["parent"] == "abc123"
    assert prov["seeds"] == {"genus2": [1, 2, 3, 4], "torus": [9]}


def test_mixed_kernels_are_refused(tmp_path):
    log = write_log(tmp_path / "a.log", [("torus", 1, "pure", 1.0),
                                         ("torus", 2, "compiled", 0.5)])
    with pytest.raises(SystemExit):
        bench_file.main(["--parent", "x", str(tmp_path / "out.json"), log])
