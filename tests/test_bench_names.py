"""The names the benchmark's traced runs wrap must exist in the library.

``bench/child.py`` replaces the functions listed in its ``PATCHES`` by
timed wrappers and reads counts off their results; a name that is gone,
or a result without the attribute a count reads, fails every traced run.
"""

import importlib.util
from pathlib import Path

import pytest

from specfilt import curves
from specfilt.ensembles import sample_gaussian_symmetric

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


def test_traced_results_carry_their_counts(child):
    n = 12
    matrix = sample_gaussian_symmetric(n, 1)
    filtration = curves.build_filtration(matrix)
    assert child.COUNTS["filtration.build"]((matrix,), filtration) == {
        "pairs": n * (n - 1) // 2}
    snapshot_count = child.COUNTS["filtration.snapshot"]
    graph = curves.graph_at_density(filtration, 0.5)
    assert snapshot_count((filtration, 0.5), graph) == {"edges": 33}
    for m, graph in zip([0, 7, 66], curves.stream_prefixes(filtration, [0, 7, 66])):
        assert snapshot_count((filtration, [0, 7, 66]), graph) == {"edges": m}
    eigensolve_count = child.COUNTS["spectra.eigensolve"]
    connected_at = filtration.connectivity_index
    for m, disconnected in ((connected_at, 0), (connected_at - 1, 1)):
        graph = next(curves.stream_prefixes(filtration, [m]))
        laplacian = curves.laplacian(graph, "raw")
        spectrum = curves.eigenvalues(laplacian, "raw")
        assert eigensolve_count((laplacian, "raw"), spectrum) == {
            "n": n, "disconnected": disconnected}
