"""Density sweeps: grids, curve series, transforms, and fits."""

import numpy as np
import pytest

import specfilt.curves as curves_mod
from specfilt.curves import (
    CurveSeries,
    DensityGrid,
    average_series,
    density_snapshot,
    gap_curve,
    growth_fits,
    linear_fit,
    sqrt_curve,
    std_curve,
)
from specfilt.ensembles import (
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import (
    build_filtration,
    count_components,
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


class TestDensityGrid:
    def test_uniform(self):
        grid = DensityGrid.uniform(50)
        assert len(grid) == 51
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 1.0

    def test_sorts_and_deduplicates(self):
        grid = DensityGrid([0.5, 0.1, 0.5, 1.0])
        assert grid.points.tolist() == [0.1, 0.5, 1.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DensityGrid([-0.1, 0.5])
        with pytest.raises(ValueError):
            DensityGrid([0.5, 1.5])
        with pytest.raises(ValueError):
            DensityGrid([])

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
            CurveSeries("gap", RAW, np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CurveSeries("gap", RAW, np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CurveSeries("gap", RAW, np.array([0.0, 1.0]), np.array([1.0, np.nan]))


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

    def test_meta_carries_provenance(self):
        mat = sample_gaussian_symmetric(12, 3)
        series = gap_curve(mat, DensityGrid([0.0, 1.0]), RAW)
        assert series.meta == {"ensemble": "gaussian", "n": 12, "seed": 3}

    def test_wishart_bipartite_stage_gap(self):
        n = 60
        mat = sample_wishart_rank_one(n, 19)
        k = int((mat.v < 0).sum())
        stage = k * (n - k)
        total = n * (n - 1) // 2
        series = gap_curve(mat, DensityGrid([stage / total]), RAW)
        assert abs(series.ys[0] - min(k, n - k)) <= 1e-6

    def test_raw_gap_monotone_under_edge_insertion(self):
        # each inserted edge adds a positive semidefinite rank-1 term
        mat = sample_gaussian_symmetric(25, 33)
        series = gap_curve(mat, DensityGrid.uniform(25), RAW)
        assert (np.diff(series.ys) >= -1e-9).all()

    def test_numerical_error_carries_density(self, monkeypatch):
        def explode(matrix, kind):
            raise NumericalError("boom")

        monkeypatch.setattr(curves_mod, "eigenvalues", explode)
        mat = sample_gaussian_symmetric(10, 0)
        with pytest.raises(NumericalError) as info:
            gap_curve(mat, DensityGrid([0.4]), RAW)
        assert info.value.density == 0.4


@pytest.mark.parametrize(
    "make",
    [
        lambda n, s: sample_gaussian_symmetric(n, s),
        lambda n, s: sample_positive_rank_one(n, s),
        lambda n, s: sample_wishart_rank_one(n, s),
        lambda n, s: distance_matrix(sample_noisy_circle(n, 0.1, s)),
        lambda n, s: distance_matrix(sample_noisy_torus(n, 2.0, 1.0, 0.1, s)),
    ],
    ids=["gaussian", "positive-rank1", "wishart-rank1", "circle", "torus"],
)
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
    mat = sample_gaussian_symmetric(n, 14)
    grid = DensityGrid.uniform(30)
    series = gap_curve(mat, grid, RAW)
    filtration = build_filtration(mat)
    counts = [edge_count_at_density(n, float(p)) for p in series.xs]
    for gap, graph in zip(series.ys, stream_prefixes(filtration, counts)):
        connected = count_components(graph) == 1
        assert (gap > 1e-8 * n) == connected


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

    def test_no_eigensolve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("std_curve must not build or solve a Laplacian")

        mat = sample_gaussian_symmetric(15, 4)
        filtration = build_filtration(mat)
        grid = DensityGrid.with_zero_refinement(15, steps=10)
        monkeypatch.setattr(curves_mod, "eigenvalues", forbidden)
        monkeypatch.setattr(curves_mod, "laplacian", forbidden)
        for kind in (RAW, NORMALIZED):
            series = std_curve(mat, grid, kind)
            for p, value in zip(series.xs, series.ys):
                graph = graph_at_density(filtration, float(p))
                oracle = spectrum_std(eigenvalues(laplacian(graph, kind), kind))
                assert abs(value - oracle) <= 1e-12


class TestSqrtCurve:
    def test_pointwise_square_root(self):
        series = CurveSeries(
            "gap", RAW, np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 4.0, 9.0])
        )
        result = sqrt_curve(series)
        assert result.ys.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert result.statistic == "sqrt-gap"
        assert np.array_equal(result.xs, series.xs)

    def test_all_zero(self):
        series = CurveSeries("gap", RAW, np.array([0.0, 1.0]), np.zeros(2))
        assert sqrt_curve(series).ys.tolist() == [0.0, 0.0]

    def test_rejects_negative_values(self):
        series = CurveSeries("custom", RAW, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            sqrt_curve(series)


class TestDensitySnapshot:
    def test_zero_density_mass_at_zero(self):
        mat = sample_gaussian_symmetric(20, 8)
        hist = density_snapshot(mat, 0.0, NORMALIZED, bins=10)
        assert hist.counts[hist.bin_of(0.0)] == 20
        assert hist.total == 20

    def test_total_conservation(self):
        mat = sample_gaussian_symmetric(30, 8)
        for kind in (RAW, NORMALIZED):
            hist = density_snapshot(mat, 0.35, kind, bins=40)
            assert hist.total == 30


class TestAverageSeries:
    def test_pointwise_mean(self):
        xs = np.array([0.0, 1.0])
        a = CurveSeries("gap", RAW, xs, np.array([0.0, 2.0]))
        b = CurveSeries("gap", RAW, xs, np.array([1.0, 4.0]))
        merged = average_series([a, b])
        assert merged.ys.tolist() == [0.5, 3.0]
        assert merged.meta["repeats"] == 2

    def test_rejects_mismatched_series(self):
        xs = np.array([0.0, 1.0])
        a = CurveSeries("gap", RAW, xs, np.array([0.0, 2.0]))
        b = CurveSeries("std", RAW, xs, np.array([1.0, 4.0]))
        with pytest.raises(ValueError):
            average_series([a, b])
        c = CurveSeries("gap", RAW, np.array([0.0, 0.5]), np.array([1.0, 4.0]))
        with pytest.raises(ValueError):
            average_series([a, c])


class TestFits:
    def test_exact_line(self):
        xs = np.linspace(0, 1, 20)
        slope, intercept, r2 = linear_fit(xs, 3.0 * xs + 0.5)
        assert abs(slope - 3.0) <= 1e-12
        assert abs(intercept - 0.5) <= 1e-12
        assert abs(r2 - 1.0) <= 1e-12

    def test_r_squared_drops_for_noise(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 1, 200)
        _, _, r2 = linear_fit(xs, rng.normal(size=200))
        assert r2 < 0.5

    def test_growth_fits_for_quadratic_curve(self):
        xs = np.linspace(0.1, 0.9, 30)
        series = CurveSeries("gap", RAW, xs, 7.0 * xs**2)
        fits = growth_fits(series)
        assert fits["sqrt_gap_vs_p"] > 0.999
        assert fits["gap_vs_p_squared"] > 0.999
