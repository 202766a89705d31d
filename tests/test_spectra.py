"""Laplacian assembly, eigenvalue contracts, histograms, and statistics."""

import math

import numpy as np
import pytest

from specfilt.ensembles import (
    SymmetricMatrix,
    sample_gaussian_symmetric,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import Graph, build_filtration, count_components, stream_prefixes
from specfilt.spectra import (
    NORMALIZED,
    RAW,
    Histogram,
    NumericalError,
    eigenvalues,
    laplacian,
    laplacian_std,
    normalized_laplacian,
    raw_laplacian,
    spectral_gap,
    spectrum_histogram,
    spectrum_std,
    zero_multiplicity,
)

import oracles


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    left = range(m)
    right = range(m, m + n)
    return Graph(m + n, [(i, j) for i in left for j in right])


class TestRawLaplacian:
    def test_single_edge(self):
        mat = raw_laplacian(Graph(2, [(0, 1)]))
        assert np.array_equal(mat.dense, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_edgeless(self):
        mat = raw_laplacian(Graph(4, []))
        assert np.array_equal(mat.dense, np.zeros((4, 4)))

    def test_triangle(self):
        mat = raw_laplacian(complete_graph(3))
        expected = 3 * np.eye(3) - np.ones((3, 3))
        assert np.array_equal(mat.dense, expected)


class TestNormalizedLaplacian:
    def test_single_edge(self):
        mat = normalized_laplacian(Graph(2, [(0, 1)]))
        assert np.array_equal(mat.dense, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        spec = eigenvalues(mat, NORMALIZED)
        np.testing.assert_allclose(spec.values, [0.0, 2.0], atol=1e-12)

    def test_complete_graph_spectrum(self):
        for n in (3, 5, 8):
            spec = eigenvalues(normalized_laplacian(complete_graph(n)), NORMALIZED)
            expected = [0.0] + [n / (n - 1)] * (n - 1)
            np.testing.assert_allclose(spec.values, expected, atol=1e-12)

    def test_edgeless_is_zero_matrix(self):
        mat = normalized_laplacian(Graph(5, []))
        assert np.array_equal(mat.dense, np.zeros((5, 5)))
        spec = eigenvalues(mat, NORMALIZED)
        assert np.array_equal(spec.values, np.zeros(5))

    def test_isolated_vertex_row_is_zero(self):
        mat = normalized_laplacian(Graph(3, [(0, 1)]))
        assert np.array_equal(mat.dense[2], np.zeros(3))
        assert np.array_equal(mat.dense[:, 2], np.zeros(3))


class TestEigenvalues:
    def test_complete_graph_raw(self):
        spec = eigenvalues(raw_laplacian(complete_graph(4)), RAW)
        np.testing.assert_allclose(spec.values, [0.0, 4.0, 4.0, 4.0], atol=1e-9)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (1, 5), (4, 6)])
    def test_complete_bipartite_raw(self, m, n):
        spec = eigenvalues(raw_laplacian(complete_bipartite(m, n)), RAW)
        expected = np.sort([0.0] + [m] * (n - 1) + [n] * (m - 1) + [m + n])
        np.testing.assert_allclose(spec.values, expected, atol=1e-6)

    def test_matches_charpoly_oracle_on_random_graphs(self):
        for seed in range(5):
            f = build_filtration(sample_gaussian_symmetric(8, 300 + seed))
            g = Graph(8, f.order[: 7 + 2 * seed])
            raw = eigenvalues(raw_laplacian(g), RAW).values
            np.testing.assert_allclose(
                raw,
                oracles.charpoly_eigenvalues(oracles.raw_laplacian_fractions(g)),
                atol=1e-6,
            )
            norm = eigenvalues(normalized_laplacian(g), NORMALIZED).values
            np.testing.assert_allclose(
                norm,
                oracles.charpoly_eigenvalues(
                    oracles.normalized_similar_fractions(g)
                ),
                atol=1e-6,
            )

    def test_residual_accuracy_contract(self):
        # for every eigenvalue there is a unit vector with a tiny residual
        f = build_filtration(sample_gaussian_symmetric(40, 15))
        for m in (0, 80, 300, 780):
            g = Graph(40, f.order[:m])
            for kind in (RAW, NORMALIZED):
                mat = laplacian(g, kind)
                w, vecs = np.linalg.eigh(mat.dense)
                residuals = np.linalg.norm(mat.dense @ vecs - vecs * w, axis=0)
                scale = max(np.abs(mat.dense).max(), 1e-300)
                assert residuals.max() <= 1e-9 * g.n * scale

    def test_rejects_invalid_kind(self):
        with pytest.raises(ValueError):
            eigenvalues(raw_laplacian(Graph(2, [])), "weighted")

    def test_out_of_range_matrix_raises_numerical_error(self):
        mat = SymmetricMatrix(-5.0 * np.eye(3))
        with pytest.raises(NumericalError):
            eigenvalues(mat, RAW)
        mat = SymmetricMatrix(5.0 * np.eye(3))
        with pytest.raises(NumericalError):
            eigenvalues(mat, NORMALIZED)

    def test_clamping_and_preclamp_fields(self):
        g = complete_graph(6)
        spec = eigenvalues(raw_laplacian(g), RAW)
        assert spec.values.min() >= 0.0
        assert spec.values.max() <= 6.0
        assert abs(spec.pre_clamp_min) <= 1e-8 * 6
        assert abs(spec.pre_clamp_max - 6.0) <= 1e-8 * 6

    def test_trace_identities_on_random_snapshots(self):
        for seed in range(5):
            n = 20
            f = build_filtration(sample_gaussian_symmetric(n, 40 + seed))
            for m in (0, 5, 40, 120, 190):
                g = Graph(n, f.order[:m])
                raw = eigenvalues(raw_laplacian(g), RAW)
                assert abs(raw.values.sum() - 2 * m) <= max(1e-8 * n * m, 1e-12)
                norm = eigenvalues(normalized_laplacian(g), NORMALIZED)
                non_isolated = int((g.degrees > 0).sum())
                assert abs(norm.values.sum() - non_isolated) <= 1e-6 * n

    def test_zero_multiplicity_counts_components(self):
        for seed in range(5):
            n = 16
            f = build_filtration(sample_gaussian_symmetric(n, 60 + seed))
            for m in (0, 6, 18, 40, 120):
                g = Graph(n, f.order[:m])
                expected = count_components(g)
                for kind in (RAW, NORMALIZED):
                    spec = eigenvalues(laplacian(g, kind), kind)
                    assert zero_multiplicity(spec) == expected


class TestSpectralGap:
    def test_complete_graph_value(self):
        for n in (3, 6, 10):
            spec = eigenvalues(raw_laplacian(complete_graph(n)), RAW)
            assert abs(spectral_gap(spec) - n) <= 1e-9 * n

    def test_disconnected_graph_is_zero(self):
        spec = eigenvalues(raw_laplacian(Graph(5, [(0, 1), (2, 3)])), RAW)
        assert spectral_gap(spec) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (5, 5)])
    def test_complete_bipartite_value(self, m, n):
        spec = eigenvalues(raw_laplacian(complete_bipartite(m, n)), RAW)
        assert abs(spectral_gap(spec) - min(m, n)) <= 1e-6

    def test_gap_bound_with_equality_only_for_complete(self):
        n = 7
        full = eigenvalues(raw_laplacian(complete_graph(n)), RAW)
        assert abs(spectral_gap(full) - n) <= 1e-9 * n
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)][:-1]
        almost = eigenvalues(raw_laplacian(Graph(n, edges)), RAW)
        assert spectral_gap(almost) < n - 1e-6


class TestSpectrumHistogram:
    def test_two_point_spectrum_boundary(self):
        spec = eigenvalues(normalized_laplacian(Graph(2, [(0, 1)])), NORMALIZED)
        hist = spectrum_histogram(spec, bins=2, lo=0.0, hi=2.0)
        assert hist.counts.tolist() == [1, 1]

    def test_complete_graph_four_bins(self):
        spec = eigenvalues(raw_laplacian(complete_graph(4)), RAW)
        hist = spectrum_histogram(spec, bins=4, lo=0.0, hi=4.0)
        assert hist.counts.tolist() == [1, 0, 0, 3]

    def test_total_is_always_n(self):
        for seed in range(3):
            n = 14
            f = build_filtration(sample_gaussian_symmetric(n, seed))
            g = Graph(n, f.order[:30])
            for kind in (RAW, NORMALIZED):
                spec = eigenvalues(laplacian(g, kind), kind)
                hist = spectrum_histogram(spec, bins=17)
                assert hist.total == n
                assert hist.counts.sum() == n

    def test_default_ranges_by_kind(self):
        g = complete_graph(5)
        raw_hist = spectrum_histogram(eigenvalues(raw_laplacian(g), RAW))
        assert raw_hist.bin_edges[0] == 0.0
        assert raw_hist.bin_edges[-1] == 5.0
        norm_hist = spectrum_histogram(
            eigenvalues(normalized_laplacian(g), NORMALIZED)
        )
        assert norm_hist.bin_edges[-1] == 2.0

    def test_bin_of(self):
        spec = eigenvalues(raw_laplacian(complete_graph(4)), RAW)
        hist = spectrum_histogram(spec, bins=4, lo=0.0, hi=4.0)
        assert hist.bin_of(0.0) == 0
        assert hist.bin_of(3.9) == 3
        assert hist.bin_of(4.0) == 3

    def test_rejects_bad_parameters(self):
        spec = eigenvalues(raw_laplacian(complete_graph(3)), RAW)
        with pytest.raises(ValueError):
            spectrum_histogram(spec, bins=0)
        with pytest.raises(ValueError):
            spectrum_histogram(spec, bins=4, lo=1.0, hi=1.0)

    def test_histogram_type_validation(self):
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0]), counts=np.array([], dtype=int), total=0)
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([2]), total=3)


class TestSpectrumStd:
    def test_constant_spectrum(self):
        spec = eigenvalues(raw_laplacian(Graph(3, [])), RAW)
        assert spectrum_std(spec) == 0.0

    def test_two_point_spectrum(self):
        spec = eigenvalues(normalized_laplacian(Graph(2, [(0, 1)])), NORMALIZED)
        assert abs(spectrum_std(spec) - 1.0) <= 1e-12

    def test_complete_graph_normalized(self):
        # spectrum {0, 4/3, 4/3, 4/3}: mean 1, variance 1/3
        spec = eigenvalues(normalized_laplacian(complete_graph(4)), NORMALIZED)
        expected = float(np.std([0.0, 4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0]))
        assert abs(expected - np.sqrt(1.0 / 3.0)) <= 1e-15
        assert abs(spectrum_std(spec) - expected) <= 1e-12


class TestLaplacianStd:
    def test_matches_spectrum_std_on_every_prefix(self):
        samplers = (sample_gaussian_symmetric, sample_positive_rank_one,
                    sample_wishart_rank_one)
        for n in range(2, 9):
            for sample in samplers:
                f = build_filtration(sample(n, 70 + n))
                for g in stream_prefixes(f, range(f.total_pairs + 1)):
                    for kind in (RAW, NORMALIZED):
                        oracle = spectrum_std(eigenvalues(laplacian(g, kind), kind))
                        assert abs(laplacian_std(g, kind) - oracle) <= 1e-12

    def test_empty_graph(self):
        for kind in (RAW, NORMALIZED):
            assert laplacian_std(Graph(5, []), kind) == 0.0

    def test_complete_graph(self):
        for n in range(2, 12):
            g = complete_graph(n)
            assert math.isclose(laplacian_std(g, RAW), math.sqrt(n - 1), rel_tol=1e-15)
            assert math.isclose(laplacian_std(g, NORMALIZED), math.sqrt(1 / (n - 1)),
                                rel_tol=1e-15)

    def test_isolated_vertices(self):
        # a triangle plus 2 isolated vertices: raw {0, 0, 0, 3, 3},
        # normalized {0, 0, 0, 3/2, 3/2}
        g = Graph(5, [(0, 1), (0, 2), (1, 2)])
        assert math.isclose(laplacian_std(g, RAW), math.sqrt(54) / 5, rel_tol=1e-15)
        assert math.isclose(laplacian_std(g, NORMALIZED), math.sqrt(27 / 50),
                            rel_tol=1e-15)
        # a path on 3 vertices plus 1 isolated vertex: normalized {0, 0, 1, 2}
        g = Graph(4, [(0, 1), (1, 2)])
        assert math.isclose(laplacian_std(g, NORMALIZED), math.sqrt(11) / 4,
                            rel_tol=1e-15)

    def test_rejects_invalid_kind(self):
        with pytest.raises(ValueError):
            laplacian_std(Graph(3, [(0, 1)]), "signless")
