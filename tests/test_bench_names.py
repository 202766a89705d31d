"""The names the benchmark's traced runs wrap must exist in the library.

``bench/child.py`` replaces the functions listed in its ``PATCHES`` by
timed wrappers and reads counts off their results; a name that is gone,
or a result without the attribute a count reads, fails every traced run.
"""

import importlib.util
from pathlib import Path

import pytest

import specfilt.cli as cli
from specfilt import curves
from specfilt.ensembles import distance_matrix, sample_gaussian_symmetric, sample_noisy_circle
from specfilt.output import write_csv, write_svg

from oracles import write_matrix_file

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(child):
    for module, table in child.PATCHES.items():
        for name in table:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


WRITERS = {"write_csv", "write_svg"}
# a density run selects its snapshot from the matrix: no filtration is built
SNAPSHOT = {"density_snapshot", "graph_at_density", "laplacian", "eigenvalues",
            "spectrum_histogram"} | WRITERS

# the command shape of each benchmark workload (bench/run.py), at n = 40,
# and every traced name it must reach
WORKLOADS = {
    "gap-sweep": (
        ["gap-curve", "--ensemble", "wishart-rank1", "--n", "40", "--kind", "both",
         "--grid", "uniform:50"],
        {"sample_wishart_rank_one", "gap_curve", "build_filtration", "stream_prefixes",
         "laplacian", "eigenvalues", "spectral_gap"} | WRITERS),
    "std-refined": (
        ["std-curve", "--ensemble", "gaussian", "--n", "40", "--kind", "both"],
        {"sample_gaussian_symmetric", "std_curve", "build_filtration"} | WRITERS),
    "snapshot-large": (
        ["density", "--ensemble", "torus", "--n", "40", "--p", "0.2", "--kind", "both"],
        {"sample_noisy_torus", "distance_matrix"} | SNAPSHOT),
    "matrix-ingest": (
        ["density", "--ensemble", "matrix-file", "--matrix", "{matrix}", "--p", "0.05",
         "--kind", "raw"],
        {"read_matrix_csv"} | SNAPSHOT),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workloads_reach_their_traced_names(child, workload, tmp_path, monkeypatch):
    # the names are looked up in their caller's namespace when called, so
    # a wrapper installed after import sees every call
    argv, expected = WORKLOADS[workload]
    matrix = tmp_path / "matrix.csv"
    write_matrix_file(matrix, distance_matrix(sample_noisy_circle(40, 0.1, 5)).dense)
    reached = set()
    for module, table in child.PATCHES.items():
        for name in table:
            def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
                reached.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    argv = [arg.format(matrix=matrix) for arg in argv]
    assert cli.main(argv + ["--seed", "3", "--output", str(tmp_path)]) == cli.EXIT_OK
    assert reached == expected


def test_traced_results_carry_their_counts(child, tmp_path):
    n = 12
    matrix = sample_gaussian_symmetric(n, 1)
    filtration = curves.build_filtration(matrix)
    assert child.COUNTS["filtration.build"]((matrix,), filtration) == {
        "pairs": n * (n - 1) // 2}
    snapshot_count = child.COUNTS["filtration.snapshot"]
    graph = curves.graph_at_density(matrix, 0.5)
    assert snapshot_count((matrix, 0.5), graph) == {"edges": 33}
    for m, graph in zip([0, 7, 66], curves.stream_prefixes(filtration, [0, 7, 66])):
        assert snapshot_count((filtration, [0, 7, 66]), graph) == {"edges": m}
    eigensolve_count = child.COUNTS["spectra.eigensolve"]
    connected_at = filtration.connectivity_index
    for m, disconnected in ((connected_at, 0), (connected_at - 1, 1)):
        graph = next(curves.stream_prefixes(filtration, [m]))
        laplacian = curves.laplacian(graph, "raw")
        spectrum = curves.eigenvalues(laplacian)
        assert eigensolve_count((laplacian,), spectrum) == {
            "n": n, "disconnected": disconnected}
    # a writer's byte count is read as soon as it returns, so its file
    # must be complete and closed by then
    tracer = child.Tracer()
    histogram, = curves.density_snapshot(matrix, 0.5, ("raw",), bins=50)
    for name, fn, args in (("write_csv", write_csv, (histogram, tmp_path / "h.csv")),
                           ("write_svg", write_svg, (histogram, tmp_path / "h.svg", "t"))):
        tracer.wrap("output.write", name, fn, child.COUNTS["output.write"])(*args)
        assert tracer.spans[-1][6] == {"bytes": len(args[1].read_bytes())}
