"""Density sweeps: grids, curve series and transforms."""

import math

import numpy as np
import pytest

import specfilt.curves as curves_mod
from specfilt.curves import (
    CurveSeries,
    DensityGrid,
    density_snapshot,
    gap_curve,
    sqrt_curve,
    std_curve,
)
from specfilt.ensembles import (
    SymmetricMatrix,
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import (
    build_filtration,
    edge_count_at_density,
    graph_at_density,
    stream_prefixes,
)
from specfilt.spectra import (
    NORMALIZED,
    RAW,
    NumericalError,
    eigenvalues,
    laplacian,
    spectrum_std,
)

from oracles import bin_of, components_by_bfs, edges_of, laplacian_n2_variance


# the five generated ensembles, each as make(n, seed)
ENSEMBLES = {
    "gaussian": sample_gaussian_symmetric,
    "positive-rank1": sample_positive_rank_one,
    "wishart-rank1": sample_wishart_rank_one,
    "circle": lambda n, s: distance_matrix(sample_noisy_circle(n, 0.1, s)),
    "torus": lambda n, s: distance_matrix(sample_noisy_torus(n, 2.0, 1.0, 0.1, s)),
}


class TestDensityGrid:
    def test_uniform(self):
        grid = DensityGrid.uniform(50)
        assert len(grid) == 51
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 1.0

    def test_sorts_and_deduplicates(self):
        grid = DensityGrid([0.5, 0.1, 0.5, 1.0])
        assert grid.points.tolist() == [0.1, 0.5, 1.0]

    @pytest.mark.parametrize("points", [0.5, [0.0, -0.0, 0.5, 0.5], [-0.0, 0.0, 1.0],
                                        [0.5, -0.0]])
    def test_points_are_np_unique_bit_for_bit(self, points):
        # np.unique of the points with -0.0 read as 0.0: left signed, the
        # zero np.unique keeps depends on the order of the input
        expected = np.unique(np.asarray(points, dtype=float) + 0.0)
        got = DensityGrid(points).points
        assert got.tolist() == expected.tolist()
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not np.signbit(got).any()
        assert not got.flags.writeable

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DensityGrid([-0.1, 0.5])
        with pytest.raises(ValueError):
            DensityGrid([0.5, 1.5])
        with pytest.raises(ValueError):
            DensityGrid([])
        with pytest.raises(ValueError, match="must be finite"):
            DensityGrid([0.5, np.nan, np.nan])

    def test_zero_refinement_brackets_one_over_n(self):
        n = 200
        grid = DensityGrid.with_zero_refinement(n)
        below = grid.points[(grid.points > 0) & (grid.points < 1.0 / n)]
        above = grid.points[(grid.points > 1.0 / n) & (grid.points < 0.02)]
        assert below.size >= 2
        assert above.size >= 2


class TestCurveSeries:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            CurveSeries("gap", np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CurveSeries("gap", np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CurveSeries("gap", np.array([0.0, 1.0]), np.array([1.0, np.nan]))


class TestGapCurve:
    def test_endpoints(self):
        n = 30
        mat = sample_gaussian_symmetric(n, 5)
        grid = DensityGrid([0.0, 1.0])
        raw = gap_curve(mat, grid, RAW)
        assert raw.ys[0] == 0.0
        assert abs(raw.ys[-1] - n) <= 1e-6 * n
        norm = gap_curve(mat, grid, NORMALIZED)
        assert norm.ys[0] == 0.0
        assert abs(norm.ys[-1] - n / (n - 1)) <= 1e-9

    def test_deduplicates_by_edge_count(self):
        # on 4 vertices many densities share an edge count
        mat = sample_gaussian_symmetric(4, 1)
        grid = DensityGrid(np.linspace(0, 1, 101))
        series = gap_curve(mat, grid, RAW)
        assert len(series) == 7  # C(4,2) + 1 distinct counts
        assert series.xs[0] == 0.0

    def test_determinism(self):
        mat = sample_gaussian_symmetric(20, 9)
        grid = DensityGrid.uniform(10)
        a = gap_curve(mat, grid, RAW)
        b = gap_curve(mat, grid, RAW)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.xs, b.xs)

    def test_wishart_bipartite_stage_gap(self):
        n = 60
        mat = sample_wishart_rank_one(n, 19)
        k = int((mat.v < 0).sum())
        stage = k * (n - k)
        total = n * (n - 1) // 2
        series = gap_curve(mat, DensityGrid([stage / total]), RAW)
        assert abs(series.ys[0] - min(k, n - k)) <= 1e-6

    def test_raw_gap_monotone_under_edge_insertion(self):
        # each inserted edge adds a positive semidefinite rank-1 term, so
        # the exact raw gap never decreases (Weyl); a computed step may fall
        # by rounding (2.8e-14 seen: gaussian, n = 40, seed 3), far less
        # than 1e-12 * n
        grid = DensityGrid.uniform(200)
        for name, make in ENSEMBLES.items():
            for n in (40, 100):
                for seed in (1, 2, 3):
                    steps = np.diff(gap_curve(make(n, seed), grid, RAW).ys)
                    assert steps.min() >= -1e-12 * n, (name, n, seed, steps.min())

    def test_numerical_error_carries_density(self, monkeypatch):
        def explode(matrix):
            raise NumericalError("boom")

        monkeypatch.setattr(curves_mod, "eigenvalues", explode)
        mat = sample_gaussian_symmetric(10, 0)
        with pytest.raises(NumericalError) as info:
            gap_curve(mat, DensityGrid([0.4]), RAW)
        assert info.value.density == 0.4

    def test_rejects_unknown_kind_on_disconnected_grid(self):
        # no snapshot of this grid is connected, so none builds a Laplacian
        mat = sample_gaussian_symmetric(30, 0)
        with pytest.raises(ValueError, match="kind"):
            gap_curve(mat, DensityGrid([0.0, 0.01]), "weighted")


@pytest.mark.parametrize("make", list(ENSEMBLES.values()), ids=list(ENSEMBLES))
def test_endpoint_consistency_for_every_ensemble(make):
    n = 20
    mat = make(n, 6)
    grid = DensityGrid([0.0, 1.0])
    raw = gap_curve(mat, grid, RAW)
    assert raw.ys[0] == 0.0
    assert abs(raw.ys[-1] - n) <= 1e-6 * n
    norm = gap_curve(mat, grid, NORMALIZED)
    assert norm.ys[0] == 0.0
    assert abs(norm.ys[-1] - n / (n - 1)) <= 1e-9


def test_gap_positive_exactly_when_connected():
    n = 60
    grid = DensityGrid.uniform(30)
    for mat in (sample_gaussian_symmetric(n, 14), sample_wishart_rank_one(n, 14)):
        filtration = build_filtration(mat)
        for kind in (RAW, NORMALIZED):
            series = gap_curve(mat, grid, kind)
            counts = [edge_count_at_density(n, float(p)) for p in series.xs]
            disconnected = 0
            for gap, graph in zip(series.ys, stream_prefixes(filtration, counts)):
                if components_by_bfs(n, edges_of(graph)) > 1:
                    disconnected += 1
                    assert gap == 0.0
                else:
                    assert gap > 0.0
            assert 0 < disconnected < len(series)


def test_gap_solves_only_from_the_connectivity_index(monkeypatch):
    built = []  # (edge count, Laplacian) per assembly
    solved = []  # edge count of the snapshot behind each solve

    def counting_laplacian(graph, kind):
        built.append((graph.edge_count, laplacian(graph, kind)))
        return built[-1][1]

    def counting_eigenvalues(matrix):
        solved.extend(m for m, built_matrix in built if built_matrix is matrix)
        return eigenvalues(matrix)

    monkeypatch.setattr(curves_mod, "laplacian", counting_laplacian)
    monkeypatch.setattr(curves_mod, "eigenvalues", counting_eigenvalues)
    n = 40
    mat = sample_wishart_rank_one(n, 3)
    index = build_filtration(mat).connectivity_index
    grid = DensityGrid.uniform(40)
    counts = [edge_count_at_density(n, float(p)) for p in grid.points]
    for kind in (RAW, NORMALIZED):
        built.clear()
        solved.clear()
        gap_curve(mat, grid, kind)
        connected = [m for m in counts if m >= index]
        assert 0 < len(connected) < len(counts)
        assert [m for m, _ in built] == connected
        assert solved == connected


def test_checkpoints_are_the_first_density_of_each_edge_count():
    rng = np.random.default_rng(18)
    grids = [*(DensityGrid.uniform(k) for k in (1, 3, 50, 997)), DensityGrid(rng.random(300))]
    for n in [*range(2, 41), 500]:
        mat = sample_gaussian_symmetric(n, n)
        for grid in [*grids, DensityGrid.with_zero_refinement(n)]:
            xs, counts = [], []
            for p in grid.points.tolist():
                m = edge_count_at_density(n, p)
                if not counts or m != counts[-1]:
                    xs.append(p)
                    counts.append(m)
            checkpoints, densities = curves_mod._checkpoints(grid, n)
            assert checkpoints.tolist() == counts, (n, len(grid))
            assert densities.tolist() == xs, (n, len(grid))
            assert std_curve(mat, grid, RAW).xs.tolist() == xs, (n, len(grid))
    # half way: 0.25 * C(4, 2) = 1.5 rounds up to 2 edges, as 0.3 does
    grid = DensityGrid([0.2, 0.25, 0.3])
    checkpoints, densities = curves_mod._checkpoints(grid, 4)
    assert densities.tolist() == [0.2, 0.25]
    assert checkpoints.tolist() == [1, 2]
    assert std_curve(sample_gaussian_symmetric(4, 0), grid, RAW).xs.tolist() == [0.2, 0.25]


def _tied_gaussian(n, seed):
    # entries rounded to integers: a few distinct values, long runs of ties
    return SymmetricMatrix(np.round(sample_gaussian_symmetric(n, seed).dense))


STREAM_ENSEMBLES = {
    "gaussian": sample_gaussian_symmetric,
    "circle": lambda n, seed: distance_matrix(sample_noisy_circle(n, 0.1, seed)),
    "positive-rank1": sample_positive_rank_one,
    "wishart-rank1": sample_wishart_rank_one,
    "tied-gaussian": _tied_gaussian,
}


@pytest.mark.parametrize("ensemble", sorted(STREAM_ENSEMBLES))
def test_std_stream_equals_the_width_of_each_snapshot(ensemble):
    # the stream builds no snapshot; here every checkpoint's snapshot is
    # built and its width taken from its own edges by the trace oracle
    rng = np.random.default_rng(19)
    for n in [*range(2, 41), 200]:
        mat = STREAM_ENSEMBLES[ensemble](n, n)
        filtration = build_filtration(mat)
        total = filtration.total_pairs
        grids = (DensityGrid.uniform(97), DensityGrid.with_zero_refinement(n),
                 DensityGrid(rng.random(40)))
        for grid in grids:
            counts, _ = curves_mod._checkpoints(grid, n)
            if grid is grids[0]:
                # both sides of the normalized sum: the added pairs, and
                # all pairs less the ones not yet added
                assert {2 * m <= total for m in counts.tolist()} == {True, False}
            for kind in (RAW, NORMALIZED):
                series = std_curve(mat, grid, kind)
                for p, value in zip(series.xs.tolist(), series.ys.tolist()):
                    graph = graph_at_density(filtration, p)
                    n2_var = laplacian_n2_variance(
                        n, np.argwhere(np.triu(graph.adjacency)), kind)
                    oracle = math.sqrt(n2_var) / n
                    if kind == RAW:
                        assert value == oracle, (n, p)
                    else:
                        assert abs(value - oracle) <= 1e-12 * oracle, (n, p)


def test_gap_builds_no_snapshot_below_the_connectivity_index(monkeypatch):
    streamed = []  # edge count of every Graph the sweep builds

    def counting_stream(filtration, checkpoints):
        for graph in stream_prefixes(filtration, checkpoints):
            streamed.append(graph.edge_count)
            yield graph

    monkeypatch.setattr(curves_mod, "stream_prefixes", counting_stream)
    grid = DensityGrid.uniform(50)
    for make in (sample_wishart_rank_one, sample_positive_rank_one, sample_gaussian_symmetric):
        mat = make(60, 8)
        index = build_filtration(mat).connectivity_index
        counts = [edge_count_at_density(60, float(p)) for p in grid.points]
        for kind in (RAW, NORMALIZED):
            streamed.clear()
            series = gap_curve(mat, grid, kind)
            below = [m < index for m in counts]
            assert 0 < sum(below) < len(counts)
            assert streamed == [m for m in counts if m >= index]
            assert series.ys[below].tolist() == [0.0] * sum(below)
            assert (series.ys[~np.array(below)] > 0.0).all()


class TestStdCurve:
    def test_empty_graph_has_zero_std(self):
        mat = sample_gaussian_symmetric(10, 2)
        series = std_curve(mat, DensityGrid([0.0]), RAW)
        assert series.ys[0] == 0.0

    def test_complete_graph_normalized_value(self):
        mat = sample_gaussian_symmetric(4, 2)
        series = std_curve(mat, DensityGrid([1.0]), NORMALIZED)
        assert abs(series.ys[0] - np.sqrt(1.0 / 3.0)) <= 1e-12

    def test_statistic_label(self):
        mat = sample_gaussian_symmetric(6, 2)
        series = std_curve(mat, DensityGrid([0.0, 1.0]), RAW)
        assert series.statistic == "std"

    def test_rejects_invalid_kind(self):
        with pytest.raises(ValueError):
            std_curve(sample_gaussian_symmetric(4, 2), DensityGrid([0.0, 1.0]), "signless")

    def test_no_eigensolve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("std_curve must not build or solve a Laplacian")

        mat = sample_gaussian_symmetric(15, 4)
        filtration = build_filtration(mat)
        grid = DensityGrid.with_zero_refinement(15)
        monkeypatch.setattr(curves_mod, "eigenvalues", forbidden)
        monkeypatch.setattr(curves_mod, "laplacian", forbidden)
        for kind in (RAW, NORMALIZED):
            series = std_curve(mat, grid, kind)
            for p, value in zip(series.xs, series.ys):
                graph = graph_at_density(filtration, float(p))
                oracle = spectrum_std(eigenvalues(laplacian(graph, kind)))
                assert abs(value - oracle) <= 1e-12


class TestSqrtCurve:
    def test_pointwise_square_root(self):
        series = CurveSeries("gap", np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 4.0, 9.0]))
        result = sqrt_curve(series)
        assert result.ys.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert result.statistic == "sqrt-gap"
        assert np.array_equal(result.xs, series.xs)

    def test_all_zero(self):
        series = CurveSeries("gap", np.array([0.0, 1.0]), np.zeros(2))
        assert sqrt_curve(series).ys.tolist() == [0.0, 0.0]

    def test_rejects_negative_values(self):
        series = CurveSeries("custom", np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            sqrt_curve(series)


class TestDensitySnapshot:
    def test_zero_density_mass_at_zero(self):
        mat = sample_gaussian_symmetric(20, 8)
        hist = density_snapshot(mat, 0.0, NORMALIZED, bins=10)
        assert hist.counts[bin_of(hist, 0.0)] == 20
        assert hist.total == 20

    def test_total_conservation(self):
        mat = sample_gaussian_symmetric(30, 8)
        for kind in (RAW, NORMALIZED):
            hist = density_snapshot(mat, 0.35, kind, bins=40)
            assert hist.total == 30

    def test_numerical_error_carries_density(self, monkeypatch):
        def explode(matrix):
            raise NumericalError("boom")

        monkeypatch.setattr(curves_mod, "eigenvalues", explode)
        with pytest.raises(NumericalError) as info:
            density_snapshot(sample_gaussian_symmetric(10, 0), 0.35, NORMALIZED)
        assert info.value.density == 0.35
        assert NumericalError("where it is raised").density is None

