"""Laplacian assembly, eigenvalue contracts, histograms, and statistics."""

import math

import numpy as np
import pytest

import specfilt.spectra as spectra_mod
from specfilt.curves import density_snapshot
from specfilt.ensembles import (
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import build_filtration, graph_at_density, stream_prefixes
from specfilt.spectra import (
    KINDS,
    NORMALIZED,
    RAW,
    NumericalError,
    TwinQuotient,
    _certified_classes,
    _integral_raw_spectrum,
    _twin_classes,
    eigenvalues,
    laplacian,
    spectral_gap,
    spectrum_histogram,
    spectrum_std,
    zero_multiplicity,
)

import oracles
from oracles import components_by_bfs, edges_of, graph_from_edges, order_of


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    left = range(m)
    right = range(m, m + n)
    return graph_from_edges(m + n, [(i, j) for i in left for j in right])


class TestRawLaplacian:
    def test_single_edge(self):
        # a threshold graph: its spectrum is certified, with nothing to solve
        quotient = laplacian(graph_from_edges(2, [(0, 1)]), RAW)
        assert quotient.dense.shape == (0, 0)
        assert eigenvalues(quotient).values.tolist() == [0.0, 2.0]

    def test_edgeless(self):
        # four isolated vertices peel away: a threshold graph, certified
        quotient = laplacian(graph_from_edges(4, []), RAW)
        assert quotient.dense.shape == (0, 0)
        assert quotient.exact.tolist() == [0.0] * 4
        assert eigenvalues(quotient).values.tolist() == [0.0] * 4

    def test_triangle(self):
        spec = eigenvalues(laplacian(complete_graph(3), RAW))
        assert spec.values.tolist() == [0.0, 3.0, 3.0]


class TestNormalizedLaplacian:
    def test_single_edge(self):
        spec = eigenvalues(laplacian(graph_from_edges(2, [(0, 1)]), NORMALIZED))
        assert spec.values.tolist() == [0.0, 2.0]

    def test_complete_graph_spectrum(self):
        for n in (3, 5, 8):
            spec = eigenvalues(laplacian(complete_graph(n), NORMALIZED))
            expected = [0.0] + [n / (n - 1)] * (n - 1)
            np.testing.assert_allclose(spec.values, expected, atol=1e-12)

    def test_edgeless_is_zero_matrix(self):
        quotient = laplacian(graph_from_edges(5, []), NORMALIZED)
        assert np.array_equal(quotient.dense, np.zeros((1, 1)))
        spec = eigenvalues(quotient)
        assert np.array_equal(spec.values, np.zeros(5))

    def test_isolated_vertex_row_is_zero(self):
        # a path on 4 vertices plus an isolated vertex has no twins
        quotient = laplacian(graph_from_edges(5, [(0, 1), (1, 2), (2, 3)]), NORMALIZED)
        assert quotient.exact.size == 0
        assert np.array_equal(quotient.dense[4], np.zeros(5))
        assert np.array_equal(quotient.dense[:, 4], np.zeros(5))


def same_bits(a, b):
    """Equal as float64 bit patterns, so that -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SCATTERS = ((RAW, oracles.raw_laplacian_scatter),
            (NORMALIZED, oracles.normalized_laplacian_scatter))


def assert_matches_edge_scatter(graph, edges) -> bool:
    """A twin-free graph's quotient is, bit for bit, the Laplacian scattered
    from its edge list.  A graph with twins has its classes in the order of
    their first vertices, and its spectrum is that of the scattered
    Laplacian within 1e-9 n.  Returns whether the graph is twin-free."""
    n = graph.n
    _, first, _, _ = _twin_classes(graph)
    assert (np.diff(first) > 0).all()
    for kind, scatter in SCATTERS:
        quotient = laplacian(graph, kind)
        assert not quotient.dense.flags.writeable and not quotient.exact.flags.writeable
        full = scatter(n, edges)
        if first.size == n:
            assert quotient.exact.size == 0
            assert same_bits(quotient.dense, full)
        else:
            values = eigenvalues(quotient).values
            assert np.abs(values - np.linalg.eigvalsh(full)).max() <= 1e-9 * n
    return first.size == n


FILTERED_ENSEMBLES = [
    pytest.param(lambda n, s: sample_gaussian_symmetric(n, s), id="gaussian"),
    pytest.param(lambda n, s: sample_wishart_rank_one(n, s), id="wishart-rank1"),
    pytest.param(lambda n, s: distance_matrix(sample_noisy_circle(n, 0.1, s)),
                 id="circle"),
]


class TestLaplacianBits:
    """A twin-free snapshot's quotient equals, bit for bit, the Laplacian
    scattered from the edge list; every ensemble's small filtrations have
    twin-free prefixes."""

    @pytest.mark.parametrize("make", FILTERED_ENSEMBLES)
    def test_every_prefix_of_small_filtrations(self, make):
        twin_free = 0
        for n in range(2, 9):
            for seed in range(3):
                f = build_filtration(make(n, seed))
                order = order_of(f)
                for m, g in enumerate(stream_prefixes(f, range(f.total_pairs + 1))):
                    twin_free += assert_matches_edge_scatter(g, order[:m])
        assert twin_free > 0

    @pytest.mark.parametrize("make", FILTERED_ENSEMBLES)
    def test_sampled_prefixes_at_n_200(self, make):
        n = 200
        f = build_filtration(make(n, 5))
        order = order_of(f)
        total = f.total_pairs
        counts = [0, 1, 2, n, 3 * n, 2000, total // 2, total - n, total - 1, total]
        for m, g in zip(counts, stream_prefixes(f, counts)):
            assert_matches_edge_scatter(g, order[:m])

    def test_graphs_with_isolated_vertices(self):
        cases = [
            (5, [(0, 1), (0, 2), (1, 2)]),
            (4, [(0, 1), (1, 2)]),
            (6, [(1, 4)]),
            (7, [(0, 6), (2, 6), (3, 6), (2, 3)]),
            (5, [(0, 1), (1, 2), (2, 3)]),
        ]
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            pairs = [(i, j) for i in range(n - 2) for j in range(i + 1, n - 2)]
            keep = rng.random(len(pairs)) < 0.3
            cases.append((n, [pair for pair, k in zip(pairs, keep) if k]))
        twin_free = 0
        for n, edges in cases:
            g = graph_from_edges(n, edges)
            assert (g.degrees == 0).any()
            twin_free += assert_matches_edge_scatter(g, edges)
        assert twin_free > 0


class TestEigenvalues:
    def test_complete_graph_raw(self):
        spec = eigenvalues(laplacian(complete_graph(4), RAW))
        np.testing.assert_allclose(spec.values, [0.0, 4.0, 4.0, 4.0], atol=1e-9)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (1, 5), (4, 6)])
    def test_complete_bipartite_raw(self, m, n):
        spec = eigenvalues(laplacian(complete_bipartite(m, n), RAW))
        expected = np.sort([0.0] + [m] * (n - 1) + [n] * (m - 1) + [m + n])
        np.testing.assert_allclose(spec.values, expected, atol=1e-6)

    def test_matches_charpoly_oracle_on_random_graphs(self):
        for seed in range(5):
            f = build_filtration(sample_gaussian_symmetric(8, 300 + seed))
            g = graph_from_edges(8, order_of(f)[: 7 + 2 * seed])
            raw = eigenvalues(laplacian(g, RAW)).values
            np.testing.assert_allclose(
                raw,
                oracles.charpoly_eigenvalues(oracles.raw_laplacian_integers(g)),
                atol=1e-6,
            )
            norm = eigenvalues(laplacian(g, NORMALIZED)).values
            np.testing.assert_allclose(
                norm,
                oracles.charpoly_eigenvalues(
                    *oracles.normalized_similar_integers(g)
                ),
                atol=1e-6,
            )

    def test_residual_accuracy_contract(self):
        # for every eigenvalue there is a unit vector with a tiny residual;
        # the raw edgeless and complete graphs are certified, with an empty
        # quotient and so nothing to check
        f = build_filtration(sample_gaussian_symmetric(40, 15))
        for m in (0, 80, 300, 780):
            g = graph_from_edges(40, order_of(f)[:m])
            for kind in (RAW, NORMALIZED):
                mat = laplacian(g, kind)
                assert mat.dense.size > 0 or (kind == RAW and m in (0, 780))
                w, vecs = np.linalg.eigh(mat.dense)
                residuals = np.linalg.norm(mat.dense @ vecs - vecs * w, axis=0)
                scale = max(np.abs(mat.dense).max(initial=0.0), 1e-300)
                assert residuals.max(initial=0.0) <= 1e-9 * g.n * scale

    def test_rejects_invalid_kind(self):
        with pytest.raises(ValueError):
            laplacian(graph_from_edges(2, []), "weighted")

    def test_out_of_range_matrix_raises_numerical_error(self):
        # the message carries the size of the violation; the range is that
        # of the kind the quotient carries
        none = np.zeros(0)
        mat = TwinQuotient(RAW, -5.0 * np.eye(3), none)
        with pytest.raises(NumericalError, match=r"leave \[0, 3\] by 5\.000e\+00$"):
            eigenvalues(mat)
        mat = TwinQuotient(NORMALIZED, 5.0 * np.eye(3), none)
        with pytest.raises(NumericalError, match=r"leave \[0, 2\] by 3\.000e\+00$"):
            eigenvalues(mat)
        # either kind's smallest eigenvalue is 0
        for kind in (RAW, NORMALIZED):
            with pytest.raises(NumericalError,
                               match=rf"smallest {kind} Laplacian eigenvalue must be 0, "
                                     r"not 5\.000e-01$"):
                eigenvalues(TwinQuotient(kind, 0.5 * np.eye(3), none))
        # the same matrix is a valid raw spectrum and out of the normalized range
        dense = np.diag([0.0, 2.5, 2.5])
        assert eigenvalues(TwinQuotient(RAW, dense, none)).values.tolist() == [0.0, 2.5, 2.5]
        with pytest.raises(NumericalError, match=r"leave \[0, 2\] by 5\.000e-01$"):
            eigenvalues(TwinQuotient(NORMALIZED, dense, none))

    def test_clamping_and_preclamp_fields(self):
        g = complete_graph(6)
        spec = eigenvalues(laplacian(g, RAW))
        assert spec.values.min() >= 0.0
        assert spec.values.max() <= 6.0
        assert abs(spec.pre_clamp_min) <= 1e-8 * 6
        assert abs(spec.pre_clamp_max - 6.0) <= 1e-8 * 6

    def test_trace_identities_on_random_snapshots(self):
        for seed in range(5):
            n = 20
            f = build_filtration(sample_gaussian_symmetric(n, 40 + seed))
            for m in (0, 5, 40, 120, 190):
                g = graph_from_edges(n, order_of(f)[:m])
                raw = eigenvalues(laplacian(g, RAW))
                assert abs(raw.values.sum() - 2 * m) <= max(1e-8 * n * m, 1e-12)
                norm = eigenvalues(laplacian(g, NORMALIZED))
                non_isolated = int((g.degrees > 0).sum())
                assert abs(norm.values.sum() - non_isolated) <= 1e-6 * n

    def test_zero_multiplicity_counts_components(self):
        for seed in range(5):
            n = 16
            f = build_filtration(sample_gaussian_symmetric(n, 60 + seed))
            for m in (0, 6, 18, 40, 120):
                g = graph_from_edges(n, order_of(f)[:m])
                expected = components_by_bfs(n, edges_of(g))
                for kind in (RAW, NORMALIZED):
                    spec = eigenvalues(laplacian(g, kind))
                    assert zero_multiplicity(spec) == expected


class TestTwinQuotient:
    """Twin classes give their eigenvalues exactly; the quotient the rest."""

    @pytest.mark.parametrize("n", [2, 3, 7, 500])
    def test_complete_graph_is_exact(self, n):
        # one class of n true twins: the quotient is the 1 x 1 zero matrix
        g = complete_graph(n)
        raw = eigenvalues(laplacian(g, RAW))
        assert raw.values.tolist() == [0.0] + [float(n)] * (n - 1)
        norm = eigenvalues(laplacian(g, NORMALIZED))
        assert norm.values.tolist() == [0.0] + [n / (n - 1)] * (n - 1)

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 7), (3, 10), (10, 40)])
    def test_complete_bipartite_twin_values_are_exact(self, k, n):
        # two classes of false twins, of sizes k and n - k
        g = complete_bipartite(k, n - k)
        raw = eigenvalues(laplacian(g, RAW)).values
        assert np.count_nonzero(raw == k) == n - k - 1
        assert np.count_nonzero(raw == n - k) == k - 1
        norm = eigenvalues(laplacian(g, NORMALIZED)).values
        assert np.count_nonzero(norm == 1.0) == n - 2


class TestOneAnalysisPerSnapshot:
    """A snapshot is analysed once for all its kinds, and a certified one
    takes its twin classes from its certificate."""

    @pytest.mark.parametrize("sample", [sample_wishart_rank_one, sample_positive_rank_one],
                             ids=["wishart-rank1", "positive-rank1"])
    def test_certificate_classes_equal_the_row_search(self, sample):
        certified = 0
        for seed in range(1, 21):
            f = build_filtration(sample(6 + seed, seed))
            for g in stream_prefixes(f, range(f.total_pairs + 1)):
                certificate = _integral_raw_spectrum(g)
                if certificate is None:
                    continue
                certified += 1
                classes = _certified_classes(g, certificate[1])
                for got, expected in zip(classes, _twin_classes(g), strict=True):
                    assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert certified > 1000, certified

    @staticmethod
    def counted(monkeypatch):
        calls = dict.fromkeys(["_twin_classes", "_integral_raw_spectrum"], 0)
        for name in calls:
            def counting(graph, original=getattr(spectra_mod, name), name=name):
                calls[name] += 1
                return original(graph)

            monkeypatch.setattr(spectra_mod, name, counting)
        return calls

    def test_a_certified_snapshot_runs_no_row_search(self, monkeypatch):
        matrix = sample_wishart_rank_one(80, 1)
        assert _integral_raw_spectrum(graph_at_density(matrix, 0.7)) is not None
        calls = self.counted(monkeypatch)
        raw, normalized = density_snapshot(matrix, 0.7, KINDS)
        assert calls == {"_twin_classes": 0, "_integral_raw_spectrum": 1}
        assert raw.total == normalized.total == 80

    def test_an_uncertified_snapshot_runs_each_analysis_once(self, monkeypatch):
        graph = graph_at_density(sample_gaussian_symmetric(40, 1), 0.5)
        calls = self.counted(monkeypatch)
        for kind in KINDS * 2:
            laplacian(graph, kind)
        assert calls == {"_twin_classes": 1, "_integral_raw_spectrum": 1}

    def test_a_normalized_call_runs_no_certificate(self, monkeypatch):
        calls = self.counted(monkeypatch)
        density_snapshot(sample_wishart_rank_one(80, 1), 0.7, (NORMALIZED,))
        assert calls == {"_twin_classes": 1, "_integral_raw_spectrum": 0}

    def test_a_certified_quotient_calls_no_solver(self, monkeypatch):
        quotient = laplacian(graph_at_density(sample_wishart_rank_one(80, 1), 0.7), RAW)
        assert quotient.dense.shape == (0, 0)
        solved = np.sort(np.concatenate([np.linalg.eigvalsh(quotient.dense), quotient.exact]))

        def forbidden(matrix):
            raise AssertionError("a certified spectrum needs no eigensolve")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        values = eigenvalues(quotient).values
        assert values.dtype == solved.dtype and np.array_equal(values, solved)


class TestSpectralGap:
    def test_complete_graph_value(self):
        for n in (3, 6, 10):
            spec = eigenvalues(laplacian(complete_graph(n), RAW))
            assert abs(spectral_gap(spec) - n) <= 1e-9 * n

    def test_disconnected_graph_is_zero(self):
        spec = eigenvalues(laplacian(graph_from_edges(5, [(0, 1), (2, 3)]), RAW))
        assert spectral_gap(spec) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (5, 5)])
    def test_complete_bipartite_value(self, m, n):
        spec = eigenvalues(laplacian(complete_bipartite(m, n), RAW))
        assert abs(spectral_gap(spec) - min(m, n)) <= 1e-6

    def test_gap_bound_with_equality_only_for_complete(self):
        n = 7
        full = eigenvalues(laplacian(complete_graph(n), RAW))
        assert abs(spectral_gap(full) - n) <= 1e-9 * n
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)][:-1]
        almost = eigenvalues(laplacian(graph_from_edges(n, edges), RAW))
        assert spectral_gap(almost) < n - 1e-6


class TestSpectrumHistogram:
    def test_two_point_spectrum_boundary(self):
        spec = eigenvalues(laplacian(graph_from_edges(2, [(0, 1)]), NORMALIZED))
        hist = spectrum_histogram(spec, bins=2)
        assert hist.counts.tolist() == [1, 1]

    def test_complete_graph_four_bins(self):
        spec = eigenvalues(laplacian(complete_graph(4), RAW))
        hist = spectrum_histogram(spec, bins=4)
        assert hist.counts.tolist() == [1, 0, 0, 3]

    def test_total_is_always_n(self):
        for seed in range(3):
            n = 14
            f = build_filtration(sample_gaussian_symmetric(n, seed))
            g = graph_from_edges(n, order_of(f)[:30])
            for kind in (RAW, NORMALIZED):
                spec = eigenvalues(laplacian(g, kind))
                assert spec.n == n
                hist = spectrum_histogram(spec, bins=17)
                assert hist.total == n
                assert hist.counts.sum() == n

    def test_default_ranges_by_kind(self):
        g = complete_graph(5)
        raw_hist = spectrum_histogram(eigenvalues(laplacian(g, RAW)))
        assert raw_hist.bin_edges[0] == 0.0
        assert raw_hist.bin_edges[-1] == 5.0
        norm_hist = spectrum_histogram(
            eigenvalues(laplacian(g, NORMALIZED))
        )
        assert norm_hist.bin_edges[-1] == 2.0

    def test_bin_of(self):
        spec = eigenvalues(laplacian(complete_graph(4), RAW))
        hist = spectrum_histogram(spec, bins=4)
        assert oracles.bin_of(hist, 0.0) == 0
        assert oracles.bin_of(hist, 3.9) == 3
        assert oracles.bin_of(hist, 4.0) == 3

    def test_rejects_bad_parameters(self):
        spec = eigenvalues(laplacian(complete_graph(3), RAW))
        with pytest.raises(ValueError):
            spectrum_histogram(spec, bins=0)


class TestSpectrumStd:
    def test_constant_spectrum(self):
        spec = eigenvalues(laplacian(graph_from_edges(3, []), RAW))
        assert spectrum_std(spec) == 0.0

    def test_two_point_spectrum(self):
        spec = eigenvalues(laplacian(graph_from_edges(2, [(0, 1)]), NORMALIZED))
        assert abs(spectrum_std(spec) - 1.0) <= 1e-12

    def test_complete_graph_normalized(self):
        # spectrum {0, 4/3, 4/3, 4/3}: mean 1, variance 1/3
        spec = eigenvalues(laplacian(complete_graph(4), NORMALIZED))
        expected = float(np.std([0.0, 4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0]))
        assert abs(expected - np.sqrt(1.0 / 3.0)) <= 1e-15
        assert abs(spectrum_std(spec) - expected) <= 1e-12


def trace_std(n, edges, kind):
    return math.sqrt(oracles.laplacian_n2_variance(n, edges, kind)) / n


class TestLaplacianStd:
    # the trace oracle that the streamed width curve is tested against,
    # checked here against the eigenvalues
    def test_matches_spectrum_std_on_every_prefix(self):
        samplers = (sample_gaussian_symmetric, sample_positive_rank_one,
                    sample_wishart_rank_one)
        for n in range(2, 9):
            for sample in samplers:
                f = build_filtration(sample(n, 70 + n))
                for g in stream_prefixes(f, range(f.total_pairs + 1)):
                    edges = edges_of(g)
                    for kind in (RAW, NORMALIZED):
                        oracle = spectrum_std(eigenvalues(laplacian(g, kind)))
                        assert abs(trace_std(n, edges, kind) - oracle) <= 1e-12

    def test_empty_graph(self):
        for kind in (RAW, NORMALIZED):
            assert trace_std(5, [], kind) == 0.0

    def test_complete_graph(self):
        for n in range(2, 12):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert math.isclose(trace_std(n, edges, RAW), math.sqrt(n - 1), rel_tol=1e-15)
            assert math.isclose(trace_std(n, edges, NORMALIZED), math.sqrt(1 / (n - 1)),
                                rel_tol=1e-15)

    def test_isolated_vertices(self):
        # a triangle plus 2 isolated vertices: raw {0, 0, 0, 3, 3},
        # normalized {0, 0, 0, 3/2, 3/2}
        triangle = [(0, 1), (0, 2), (1, 2)]
        assert math.isclose(trace_std(5, triangle, RAW), math.sqrt(54) / 5, rel_tol=1e-15)
        assert math.isclose(trace_std(5, triangle, NORMALIZED), math.sqrt(27 / 50),
                            rel_tol=1e-15)
        # a path on 3 vertices plus 1 isolated vertex: normalized {0, 0, 1, 2}
        assert math.isclose(trace_std(4, [(0, 1), (1, 2)], NORMALIZED), math.sqrt(11) / 4,
                            rel_tol=1e-15)
