"""Filtration order, snapshots, components, and two-coloring."""

import types

import numpy as np
import pytest

from specfilt.ensembles import (
    SymmetricMatrix,
    sample_gaussian_symmetric,
    sample_wishart_rank_one,
)
from specfilt.filtration import (
    SIDE_A,
    SIDE_B,
    UNASSIGNED,
    EdgeFiltration,
    Graph,
    build_filtration,
    check_bipartite,
    count_components,
    edge_count_at_density,
    graph_at_density,
    stream_prefixes,
)

import oracles


def symmetric_from_offdiagonal(values_by_pair, n):
    dense = np.zeros((n, n))
    for (i, j), value in values_by_pair.items():
        dense[i, j] = dense[j, i] = value
    return SymmetricMatrix(dense)


class TestBuildFiltration:
    def test_three_vertex_example(self):
        mat = symmetric_from_offdiagonal({(0, 1): 0.3, (0, 2): 0.1, (1, 2): 0.2}, 3)
        f = build_filtration(mat)
        assert f.order.tolist() == [[0, 2], [1, 2], [0, 1]]

    def test_all_ties_fall_back_to_lexicographic(self):
        n = 5
        mat = SymmetricMatrix(np.ones((n, n)) - np.eye(n))
        f = build_filtration(mat)
        expected = [[i, j] for i in range(n) for j in range(i + 1, n)]
        assert f.order.tolist() == expected

    def test_matches_brute_force_sort(self):
        mat = sample_gaussian_symmetric(6, 31)
        f = build_filtration(mat)
        assert [tuple(e) for e in f.order.tolist()] == oracles.sorted_pairs_by_entry(
            mat.dense
        )

    def test_permutation_property(self):
        mat = sample_gaussian_symmetric(9, 77)
        f = build_filtration(mat)
        assert sorted(map(tuple, f.order.tolist())) == [
            (i, j) for i in range(9) for j in range(i + 1, 9)
        ]

    def test_rejects_nan(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = np.nan
        stub = types.SimpleNamespace(n=3, dense=dense)
        with pytest.raises(ValueError):
            build_filtration(stub)

    def test_diagonal_never_consulted(self):
        base = sample_gaussian_symmetric(7, 1)
        shifted = np.array(base.dense)
        np.fill_diagonal(shifted, 1e9)
        other = SymmetricMatrix(shifted)
        assert np.array_equal(
            build_filtration(base).order, build_filtration(other).order
        )


class TestGraphAtDensity:
    def test_endpoints(self):
        f = build_filtration(sample_gaussian_symmetric(10, 2))
        empty = graph_at_density(f, 0.0)
        full = graph_at_density(f, 1.0)
        assert empty.edge_count == 0
        assert full.edge_count == 45
        assert count_components(empty) == 10
        assert count_components(full) == 1

    def test_half_density_on_four_vertices(self):
        mat = sample_gaussian_symmetric(4, 3)
        f = build_filtration(mat)
        g = graph_at_density(f, 0.5)
        assert g.edge_count == 3
        smallest = oracles.sorted_pairs_by_entry(mat.dense)[:3]
        assert g.edge_set() == set(smallest)

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

    def test_snapshot_is_read_only_view_of_order(self):
        f = build_filtration(sample_gaussian_symmetric(10, 2))
        for g in (graph_at_density(f, 0.3), *stream_prefixes(f, [0, 13, 45])):
            assert np.shares_memory(g.edge_array, f.order) or g.edge_count == 0
            assert not g.edge_array.flags.writeable
            assert not g.degrees.flags.writeable

    def test_realized_density_recorded(self):
        f = build_filtration(sample_gaussian_symmetric(10, 2))
        g = graph_at_density(f, 0.3)
        assert g.density == g.edge_count / 45


class TestGraphValidation:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1), (0, 1)])

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            Graph(4, [(1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 4)])

    def test_degree_consistency(self):
        f = build_filtration(sample_gaussian_symmetric(15, 8))
        for m in (0, 10, 50, 105):
            g = Graph(15, f.order[:m])
            assert g.degrees.sum() == 2 * g.edge_count
            recomputed = np.zeros(15, dtype=int)
            for i, j in g.edge_array.tolist():
                recomputed[i] += 1
                recomputed[j] += 1
            assert np.array_equal(g.degrees, recomputed)


class TestEdgeFiltrationValidation:
    # every pair of 3 vertices once is [(0, 1), (0, 2), (1, 2)]
    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            EdgeFiltration(3, [(0, 1)] * 3)

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError):
            EdgeFiltration(3, [(0, 1), (0, 2), (2, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            EdgeFiltration(3, [(0, 1), (0, 2), (1, 3)])

    def test_rejects_wrong_pair_count(self):
        with pytest.raises(ValueError):
            EdgeFiltration(3, [(0, 1), (0, 2)])


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
            current = g.edge_set()
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
                checked = Graph(n, f.order[:m])
                for other in (direct, checked):
                    assert g.edge_set() == other.edge_set()
                    assert np.array_equal(g.degrees, other.degrees)

    def test_rejects_bad_checkpoints(self):
        f = build_filtration(sample_gaussian_symmetric(5, 0))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [3, 1]))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [0, 11]))
        with pytest.raises(ValueError):
            list(stream_prefixes(f, [0.5]))


class TestCountComponents:
    def test_edgeless(self):
        assert count_components(Graph(7, [])) == 7

    def test_complete(self):
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert count_components(Graph(n, edges)) == 1

    def test_two_triangles(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        assert count_components(Graph(6, edges)) == 2

    def test_matches_bfs_oracle_on_random_snapshots(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(4, 20))
            f = build_filtration(sample_gaussian_symmetric(n, seed))
            m = int(rng.integers(0, f.total_pairs + 1))
            g = Graph(n, f.order[:m])
            assert count_components(g) == oracles.components_by_bfs(
                n, g.edge_array.tolist()
            )


def random_tree_edges(n, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        edges.append((min(parent, child), max(parent, child)))
    return edges


class TestCheckBipartite:
    def test_trees_are_bipartite(self):
        for seed in range(5):
            g = Graph(12, random_tree_edges(12, seed))
            result = check_bipartite(g)
            assert result.bipartite
            side = result.side
            assert (side != UNASSIGNED).all()
            for i, j in g.edge_array.tolist():
                assert side[i] != side[j]

    def test_triangle_is_not(self):
        result = check_bipartite(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert not result.bipartite

    def test_even_cycle_is(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert check_bipartite(g).bipartite

    def test_completed_components_keep_labels_on_conflict(self):
        # component {0,1} completes before the triangle {2,3,4} conflicts
        g = Graph(6, [(0, 1), (2, 3), (2, 4), (3, 4)])
        result = check_bipartite(g)
        assert not result.bipartite
        assert result.side[0] in (SIDE_A, SIDE_B)
        assert result.side[1] in (SIDE_A, SIDE_B)
        assert result.side[0] != result.side[1]
        assert result.side[2] == UNASSIGNED
        assert result.side[3] == UNASSIGNED
        assert result.side[4] == UNASSIGNED

    def test_wishart_bipartite_stage_matches_sign_classes(self):
        n = 50
        mat = sample_wishart_rank_one(n, 23)
        k = int((mat.v < 0).sum())
        stage = k * (n - k)
        f = build_filtration(mat)
        g = Graph(n, f.order[:stage])
        result = check_bipartite(g)
        assert result.bipartite
        negatives = frozenset(np.flatnonzero(mat.v < 0).tolist())
        positives = frozenset(np.flatnonzero(mat.v >= 0).tolist())
        side_a = frozenset(result.vertices_on(SIDE_A).tolist())
        side_b = frozenset(result.vertices_on(SIDE_B).tolist())
        assert {side_a, side_b} == {negatives, positives}
        # the bipartite stage is exactly the complete bipartite graph
        expected_edges = {
            (min(i, j), max(i, j)) for i in negatives for j in positives
        }
        assert g.edge_set() == expected_edges

    def test_matches_parity_oracle_along_random_filtrations(self):
        for seed in range(5):
            f = build_filtration(sample_gaussian_symmetric(12, 100 + seed))
            first_odd = oracles.first_odd_cycle_index(f.order)
            for m in range(f.total_pairs + 1):
                expected = m < first_odd
                g = Graph(12, f.order[:m])
                assert check_bipartite(g).bipartite == expected
