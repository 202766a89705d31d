"""Filtration order and rank matrix, snapshots, connectivity index, and the
checked pair-list builders, component count and two-colouring oracles the
other tests rely on."""

import types

import numpy as np
import pytest

from specfilt.ensembles import (
    RankOneMatrix,
    SymmetricMatrix,
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_wishart_rank_one,
)
from specfilt.filtration import (
    MAX_N,
    build_filtration,
    edge_count_at_density,
    graph_at_density,
    stream_prefixes,
)
from specfilt.spectra import RAW, eigenvalues, laplacian, zero_multiplicity

import oracles
from oracles import (
    components_by_bfs,
    edges_of,
    filtration_from_order,
    graph_from_edges,
    order_of,
    two_colouring,
)


def symmetric_from_offdiagonal(values_by_pair, n):
    dense = np.zeros((n, n))
    for (i, j), value in values_by_pair.items():
        dense[i, j] = dense[j, i] = value
    return SymmetricMatrix(dense)


class TestBuildFiltration:
    def test_three_vertex_example(self):
        mat = symmetric_from_offdiagonal({(0, 1): 0.3, (0, 2): 0.1, (1, 2): 0.2}, 3)
        f = build_filtration(mat)
        assert order_of(f).tolist() == [[0, 2], [1, 2], [0, 1]]
        assert f.rank.tolist() == [[3, 2, 0], [2, 3, 1], [0, 1, 3]]
        checked = filtration_from_order(3, [(0, 2), (1, 2), (0, 1)])
        assert np.array_equal(checked.rank, f.rank)

    def test_all_ties_fall_back_to_lexicographic(self):
        n = 5
        mat = SymmetricMatrix(np.ones((n, n)) - np.eye(n))
        f = build_filtration(mat)
        expected = [[i, j] for i in range(n) for j in range(i + 1, n)]
        assert order_of(f).tolist() == expected

    def test_matches_brute_force_sort(self):
        mat = sample_gaussian_symmetric(6, 31)
        f = build_filtration(mat)
        assert [tuple(e) for e in order_of(f).tolist()] == oracles.sorted_pairs_by_entry(
            mat.dense
        )

    def test_permutation_property(self):
        mat = sample_gaussian_symmetric(9, 77)
        f = build_filtration(mat)
        assert sorted(map(tuple, order_of(f).tolist())) == [
            (i, j) for i in range(9) for j in range(i + 1, 9)
        ]

    def test_rejects_nan(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = np.nan
        stub = types.SimpleNamespace(n=3, dense=dense)
        with pytest.raises(ValueError):
            build_filtration(stub)

    def test_rejects_n_past_the_int32_ranks_before_allocating(self):
        # C(n, 2) is the diagonal's rank, past every pair's
        assert MAX_N * (MAX_N - 1) // 2 <= np.iinfo(np.int32).max
        assert (MAX_N + 1) * MAX_N // 2 > np.iinfo(np.int32).max
        with pytest.raises(ValueError, match="exceeds"):
            build_filtration(types.SimpleNamespace(n=MAX_N + 1))

    def test_diagonal_never_consulted(self):
        base = sample_gaussian_symmetric(7, 1)
        shifted = np.array(base.dense)
        np.fill_diagonal(shifted, 1e9)
        other = SymmetricMatrix(shifted)
        assert np.array_equal(build_filtration(base).rank, build_filtration(other).rank)


def stable_sort_order(matrix):
    """The pairs sorted by a stable argsort of the entries in (i, j) order."""
    i, j = np.triu_indices(matrix.n, k=1)
    rank = np.argsort(matrix.dense[i, j], kind="stable")
    return np.column_stack([i[rank], j[rank]])


def symmetric_from_upper_values(values, n):
    dense = np.zeros((n, n))
    i, j = np.triu_indices(n, k=1)
    dense[i, j] = values
    dense[j, i] = values
    return SymmetricMatrix(dense)


class TestBuildFiltrationTies:
    """(value, i, j) order at sizes where numpy's default argsort is a
    SIMD sort that leaves runs of equal entries in arbitrary order."""

    def test_integer_valued_matches_python_sort(self):
        n = 200
        rng = np.random.default_rng(5)
        values = rng.integers(-3, 4, n * (n - 1) // 2).astype(float)
        mat = symmetric_from_upper_values(values, n)
        f = build_filtration(mat)
        assert [tuple(e) for e in order_of(f).tolist()] == oracles.sorted_pairs_by_entry(
            mat.dense
        )

    @pytest.mark.parametrize("n, levels", [(300, 2), (400, 50), (600, 1000)])
    def test_integer_valued_matches_stable_sort(self, n, levels):
        rng = np.random.default_rng(n)
        values = rng.integers(0, levels, n * (n - 1) // 2).astype(float)
        mat = symmetric_from_upper_values(values, n)
        assert np.array_equal(order_of(build_filtration(mat)), stable_sort_order(mat))

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, -2.5])
    def test_all_equal_entries_in_lexicographic_order(self, value):
        n = 250
        mat = SymmetricMatrix(np.full((n, n), value))
        i, j = np.triu_indices(n, k=1)
        assert np.array_equal(order_of(build_filtration(mat)), np.column_stack([i, j]))

    def test_signed_zeros_are_one_run(self):
        n = 220
        rng = np.random.default_rng(9)
        values = rng.choice([-0.0, 0.0, -1.0, 1.0], n * (n - 1) // 2)
        mat = symmetric_from_upper_values(values, n)
        f = build_filtration(mat)
        assert np.array_equal(order_of(f), stable_sort_order(mat))
        assert [tuple(e) for e in order_of(f).tolist()] == oracles.sorted_pairs_by_entry(
            mat.dense
        )

    def test_rank_one_with_repeated_entries(self):
        n = 300
        rng = np.random.default_rng(4)
        mat = RankOneMatrix(rng.choice([-2.0, -0.5, 0.0, 1.0, 3.0], n))
        assert np.array_equal(order_of(build_filtration(mat)), stable_sort_order(mat))

    def test_distinct_entries_match_stable_sort(self):
        for mat in (sample_gaussian_symmetric(300, 1),
                    distance_matrix(sample_noisy_circle(300, 0.0, 2))):
            assert np.array_equal(order_of(build_filtration(mat)), stable_sort_order(mat))

    def test_rank_matrix_is_int32(self):
        n = 200
        f = build_filtration(sample_gaussian_symmetric(n, 3))
        total = n * (n - 1) // 2
        assert f.rank.dtype == np.int32
        assert f.rank.shape == (n, n)
        assert not f.rank.flags.writeable
        assert np.array_equal(f.rank, f.rank.T)
        assert (np.diag(f.rank) == total).all()
        upper = np.sort(f.rank[np.triu_indices(n, k=1)])
        assert np.array_equal(upper, np.arange(total))


class TestGraphAtDensity:
    def test_endpoints(self):
        f = build_filtration(sample_gaussian_symmetric(10, 2))
        empty = graph_at_density(f, 0.0)
        full = graph_at_density(f, 1.0)
        assert empty.edge_count == 0
        assert full.edge_count == 45
        assert components_by_bfs(10, edges_of(empty)) == 10
        assert components_by_bfs(10, edges_of(full)) == 1

    def test_half_density_on_four_vertices(self):
        mat = sample_gaussian_symmetric(4, 3)
        f = build_filtration(mat)
        g = graph_at_density(f, 0.5)
        assert g.edge_count == 3
        smallest = oracles.sorted_pairs_by_entry(mat.dense)[:3]
        assert set(edges_of(g)) == set(smallest)

    def test_rounding_is_half_up(self):
        # C(4,2) = 6, so p = 1/12 maps to 0.5 edges and rounds to 1
        f = build_filtration(sample_gaussian_symmetric(4, 3))
        assert graph_at_density(f, 1.0 / 12.0).edge_count == 1
        assert edge_count_at_density(4, 0.25) == 2  # 1.5 rounds up

    def test_rejects_out_of_range(self):
        f = build_filtration(sample_gaussian_symmetric(4, 3))
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                graph_at_density(f, p)

    def test_snapshot_is_read_only_threshold_of_rank(self):
        f = build_filtration(sample_gaussian_symmetric(10, 2))
        for g in (graph_at_density(f, 0.3), *stream_prefixes(f, [0, 13, 45])):
            assert np.array_equal(g.adjacency, f.rank < g.edge_count)
            assert np.count_nonzero(g.adjacency) == 2 * g.edge_count
            assert not g.adjacency.flags.writeable
            assert not g.degrees.flags.writeable


class TestGraphValidation:
    """The checked edge-list builder that hand-built test graphs go through."""

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            graph_from_edges(4, [(0, 1), (0, 1)])

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            graph_from_edges(4, [(1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            graph_from_edges(4, [(0, 4)])

    def test_degree_consistency(self):
        f = build_filtration(sample_gaussian_symmetric(15, 8))
        for m in (0, 10, 50, 105):
            g = graph_from_edges(15, order_of(f)[:m])
            assert g.degrees.sum() == 2 * g.edge_count
            assert sorted(edges_of(g)) == sorted(map(tuple, order_of(f)[:m].tolist()))
            recomputed = np.zeros(15, dtype=int)
            for i, j in edges_of(g):
                recomputed[i] += 1
                recomputed[j] += 1
            assert np.array_equal(g.degrees, recomputed)


class TestEdgeFiltrationValidation:
    """The checked pair-order builder that hand-built test filtrations go
    through; every pair of 3 vertices once is [(0, 1), (0, 2), (1, 2)]."""

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            filtration_from_order(3, [(0, 1)] * 3)

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError):
            filtration_from_order(3, [(0, 1), (0, 2), (2, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            filtration_from_order(3, [(0, 1), (0, 2), (1, 3)])

    def test_rejects_wrong_pair_count(self):
        with pytest.raises(ValueError):
            filtration_from_order(3, [(0, 1), (0, 2)])


class TestStreamPrefixes:
    def test_endpoint_checkpoints(self):
        f = build_filtration(sample_gaussian_symmetric(8, 4))
        graphs = list(stream_prefixes(f, [0, 28]))
        assert graphs[0].edge_count == 0
        assert graphs[1].edge_count == 28

    def test_monotone_edge_sets(self):
        f = build_filtration(sample_gaussian_symmetric(10, 12))
        previous = set()
        for g in stream_prefixes(f, [0, 3, 9, 20, 45]):
            current = set(edges_of(g))
            assert previous <= current
            previous = current

    def test_exhaustive_equality_with_from_scratch(self):
        for seed in range(4):
            n = 5 + seed
            f = build_filtration(sample_gaussian_symmetric(n, seed))
            total = f.total_pairs
            streamed = list(stream_prefixes(f, list(range(total + 1))))
            for m, g in enumerate(streamed):
                direct = graph_at_density(f, m / total)
                checked = graph_from_edges(n, order_of(f)[:m])
                for other in (direct, checked):
                    assert other.edge_count == g.edge_count == m
                    assert np.array_equal(g.adjacency, other.adjacency)
                    assert np.array_equal(g.degrees, other.degrees)

    def test_rejects_bad_checkpoints(self):
        f = build_filtration(sample_gaussian_symmetric(5, 0))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [3, 1]))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [0, 11]))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [0.5]))
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                stream_prefixes(f, [0, bad])


class TestPairOrder:
    @pytest.mark.parametrize("n", [2, 3, 9, 60])
    def test_columns_are_the_stably_sorted_pairs(self, n):
        # the rounded entries tie often, so the (i, j) tie order is exercised
        for matrix in (sample_gaussian_symmetric(n, n),
                       SymmetricMatrix(np.round(sample_gaussian_symmetric(n, n).dense))):
            f = build_filtration(matrix)
            order = f.pair_order
            assert order.shape == (2, f.total_pairs)
            assert np.array_equal(order.T, stable_sort_order(matrix))
            assert np.array_equal(f.rank[order[0], order[1]], np.arange(f.total_pairs))

    def test_read_only_and_derived_once(self):
        f = build_filtration(sample_gaussian_symmetric(7, 1))
        assert not f.pair_order.flags.writeable
        assert f.pair_order is f.pair_order


class TestCountComponents:
    """The breadth-first component count that the other tests compare to."""

    def test_edgeless(self):
        assert components_by_bfs(7, edges_of(graph_from_edges(7, []))) == 7

    def test_complete(self):
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert components_by_bfs(n, edges_of(graph_from_edges(n, edges))) == 1

    def test_two_triangles(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        assert components_by_bfs(6, edges_of(graph_from_edges(6, edges))) == 2

    def test_matches_bfs_oracle_on_random_snapshots(self):
        # against the multiplicity of the raw Laplacian eigenvalue 0
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(4, 20))
            f = build_filtration(sample_gaussian_symmetric(n, seed))
            m = int(rng.integers(0, f.total_pairs + 1))
            g = next(stream_prefixes(f, [m]))
            spectrum = eigenvalues(laplacian(g, RAW))
            assert zero_multiplicity(spectrum) == components_by_bfs(n, edges_of(g))


def all_equal_matrix(n, seed):
    return SymmetricMatrix(np.ones((n, n)))


def two_level_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return symmetric_from_upper_values(
        rng.integers(0, 2, n * (n - 1) // 2).astype(float), n)


ENSEMBLES = [
    pytest.param(lambda n, s: sample_gaussian_symmetric(n, s), id="gaussian"),
    pytest.param(lambda n, s: sample_wishart_rank_one(n, s), id="wishart-rank1"),
    pytest.param(lambda n, s: distance_matrix(sample_noisy_circle(n, 0.1, s)),
                 id="circle"),
    pytest.param(all_equal_matrix, id="all-equal"),
    pytest.param(two_level_matrix, id="two-level"),
]


class TestConnectivityIndex:
    @pytest.mark.parametrize("make", ENSEMBLES)
    def test_matches_bfs_oracle_on_every_prefix(self, make):
        for n in range(2, 9):
            for seed in range(3):
                f = build_filtration(make(n, seed))
                index = f.connectivity_index
                assert type(index) is int
                order = order_of(f).tolist()
                for m in range(f.total_pairs + 1):
                    assert (index > m) == (components_by_bfs(n, order[:m]) > 1)

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("make", ENSEMBLES)
    def test_matches_bfs_oracle_at_the_index(self, make, n):
        for seed in range(3):
            f = build_filtration(make(n, seed))
            index = f.connectivity_index
            order = order_of(f).tolist()
            assert components_by_bfs(n, order[:index]) == 1
            assert components_by_bfs(n, order[:index - 1]) > 1

    def test_two_vertices(self):
        f = filtration_from_order(2, [(0, 1)])
        assert f.connectivity_index == 1
        assert components_by_bfs(2, []) == 2

    def test_not_connected_by_limit(self):
        # a triangle on 0, 1, 2 comes first; vertex 3 joins at edge 4
        order = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3)]
        f = filtration_from_order(4, order)
        assert f.connectivity_index == 4
        assert components_by_bfs(4, order[:3]) == 2

    def test_index_past_the_first_block(self):
        # vertex 29 is reached only after the 406 pairs among 0..28
        n = 30
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = sorted(pairs, key=lambda pair: pair[1] == n - 1)
        f = filtration_from_order(n, order)
        assert f.connectivity_index == 407
        assert components_by_bfs(n, order[:406]) == 2


def random_tree_edges(n, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        edges.append((min(parent, child), max(parent, child)))
    return edges


class TestCheckBipartite:
    """The breadth-first two-colouring that c05 relies on."""

    def test_trees_are_bipartite(self):
        for seed in range(5):
            edges = random_tree_edges(12, seed)
            bipartite, side = two_colouring(12, edges)
            assert bipartite
            assert -1 not in side
            for i, j in edges:
                assert side[i] != side[j]

    def test_triangle_is_not(self):
        bipartite, _ = two_colouring(3, [(0, 1), (0, 2), (1, 2)])
        assert not bipartite

    def test_even_cycle_is(self):
        bipartite, _ = two_colouring(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert bipartite

    def test_completed_components_keep_labels_on_conflict(self):
        # component {0,1} completes before the triangle {2,3,4} conflicts
        bipartite, side = two_colouring(6, [(0, 1), (2, 3), (2, 4), (3, 4)])
        assert not bipartite
        assert side[0] in (0, 1)
        assert side[1] in (0, 1)
        assert side[0] != side[1]
        assert side[2] == side[3] == side[4] == -1

    def test_wishart_bipartite_stage_matches_sign_classes(self):
        n = 50
        mat = sample_wishart_rank_one(n, 23)
        k = int((mat.v < 0).sum())
        stage = k * (n - k)
        f = build_filtration(mat)
        g = next(stream_prefixes(f, [stage]))
        bipartite, side = two_colouring(n, edges_of(g))
        assert bipartite
        negatives = frozenset(np.flatnonzero(mat.v < 0).tolist())
        positives = frozenset(np.flatnonzero(mat.v >= 0).tolist())
        sides = {frozenset(v for v in range(n) if side[v] == label) for label in (0, 1)}
        assert sides == {negatives, positives}
        # the bipartite stage is exactly the complete bipartite graph
        expected_edges = {
            (min(i, j), max(i, j)) for i in negatives for j in positives
        }
        assert set(edges_of(g)) == expected_edges

    def test_matches_parity_oracle_along_random_filtrations(self):
        for seed in range(5):
            f = build_filtration(sample_gaussian_symmetric(12, 100 + seed))
            order = order_of(f)
            first_odd = oracles.first_odd_cycle_index(order)
            for m in range(f.total_pairs + 1):
                expected = m < first_odd
                assert two_colouring(12, order[:m].tolist())[0] == expected
