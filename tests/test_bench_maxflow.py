import importlib.util
from pathlib import Path

from surfcut import cuttree

SPEC = importlib.util.spec_from_file_location(
    "bench_maxflow",
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_maxflow.py")
bench_maxflow = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_maxflow)


def test_main_prints_a_row_and_a_torus_line_per_kernel(capsys):
    kernel = cuttree._dinic
    bench_maxflow.main(["--sizes", "50", "--pairs", "2"])
    assert cuttree._dinic is kernel
    lines = capsys.readouterr().out.splitlines()
    m = len(bench_maxflow.make_graph(50, 0))
    assert lines[2].split()[:2] == ["50", str(m)]
    assert [line.split(":")[0] for line in lines[3:]] == [
        f"dual_cut_tree {label} ({name})"
        for label in ("torus10", "planar170")
        for name, _ in bench_maxflow.KERNELS]
