"""Generator contracts: determinism, symmetry, distributions, geometry."""

import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from specfilt import ensembles
from specfilt.ensembles import (
    PointCloud,
    RankOneMatrix,
    SymmetricMatrix,
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import build_filtration

from oracles import no_isolated_vertex_law

ALL_MATRIX_SAMPLERS = [
    sample_gaussian_symmetric,
    sample_positive_rank_one,
    sample_wishart_rank_one,
]


class TestSymmetricMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((1, 1)))

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            SymmetricMatrix(bad)
        bad[0, 1] = bad[1, 0] = np.inf
        with pytest.raises(ValueError):
            SymmetricMatrix(bad)

    def test_rejects_asymmetric(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            SymmetricMatrix(bad)

    def test_read_only(self):
        mat = SymmetricMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mat.dense[0, 1] = 5.0


@pytest.mark.parametrize("sampler", ALL_MATRIX_SAMPLERS)
def test_sampler_symmetry_and_zero_diagonal(sampler):
    mat = sampler(5, 123)
    assert np.array_equal(mat.dense, mat.dense.T)
    assert np.array_equal(np.diag(mat.dense), np.zeros(5))


@pytest.mark.parametrize("sampler", ALL_MATRIX_SAMPLERS)
def test_sampler_determinism(sampler):
    first = sampler(5, 99)
    second = sampler(5, 99)
    assert np.array_equal(first.dense, second.dense)
    assert not np.array_equal(first.dense, sampler(5, 100).dense)


@pytest.mark.parametrize("sampler", ALL_MATRIX_SAMPLERS)
def test_sampler_rejects_small_n(sampler):
    with pytest.raises(ValueError):
        sampler(1, 0)


@pytest.mark.parametrize("sampler", ALL_MATRIX_SAMPLERS)
def test_sampler_rejects_bad_seed(sampler):
    with pytest.raises(ValueError):
        sampler(5, -1)
    with pytest.raises(ValueError):
        sampler(5, 2**64)


def test_gaussian_moments_large_sample():
    # law-of-large-numbers bounds computed from the generated sample
    n = 2000
    mat = sample_gaussian_symmetric(n, 2024)
    upper = mat.offdiagonal_upper()
    pair_count = n * (n - 1) // 2
    assert upper.size == pair_count
    assert abs(upper.mean()) <= 3.0 / math.sqrt(pair_count)
    assert 0.95 <= upper.var() <= 1.05


@pytest.mark.parametrize("n", [2, 3, 7, 64, 301])
def test_mask_fill_is_the_index_fill_bit_for_bit(n):
    # the upper triangle as np.triu_indices orders it, with a -0.0 entry
    upper = np.random.default_rng(n).standard_normal(n * (n - 1) // 2)
    upper[-1] = -0.0
    i, j = np.triu_indices(n, k=1)
    expected = np.zeros((n, n))
    expected[i, j] = upper
    expected[j, i] = upper
    dense = ensembles._symmetric_from_upper(n, upper, "gaussian").dense
    assert dense.tobytes() == expected.tobytes()
    assert np.signbit(dense[n - 2, n - 1]) and np.signbit(dense[n - 1, n - 2])


class TestRankOne:
    def test_injected_positive_vector(self):
        mat = RankOneMatrix(np.array([0.5, 0.25, 1.0]))
        assert mat.dense[0, 1] == 0.125
        assert mat.dense[0, 2] == 0.5
        assert mat.dense[1, 2] == 0.25
        assert np.array_equal(np.diag(mat.dense), np.zeros(3))

    def test_injected_signed_vector(self):
        mat = RankOneMatrix(np.array([1.0, -1.0, 2.0]))
        assert mat.dense[0, 1] == -1.0
        assert mat.dense[0, 2] == 2.0
        assert mat.dense[1, 2] == -2.0

    def test_overflowing_products_rejected(self):
        # the diagonal's 1e400 is zeroed, the off-diagonal one is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                RankOneMatrix(np.array([1e200, 1e200, 1.0]))

    def test_rejects_a_matrix_for_the_vector(self):
        # the generating vector is the only input, so a dense matrix passed
        # where a constructor once took (dense, v) fails loudly
        with pytest.raises(ValueError, match="v must be a one-dimensional vector"):
            RankOneMatrix(np.ones((2, 2)))

    def test_keeps_a_read_only_copy_of_the_vector(self):
        v = np.array([0.5, 0.25, 1.0])
        mat = RankOneMatrix(v)
        v[0] = 2.0
        assert mat.v.tolist() == [0.5, 0.25, 1.0]
        assert not mat.v.flags.writeable and not mat.dense.flags.writeable

    def test_positive_entries_nonnegative(self):
        mat = sample_positive_rank_one(40, 7)
        assert (mat.offdiagonal_upper() >= 0).all()

    def test_generating_vector_retained(self):
        mat = sample_wishart_rank_one(12, 5)
        assert mat.v.shape == (12,)
        expected = np.outer(mat.v, mat.v)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(mat.dense, expected)

    def test_sign_rule(self):
        mat = sample_wishart_rank_one(30, 11)
        v = mat.v
        for i in range(30):
            for j in range(i + 1, 30):
                assert np.sign(mat.dense[i, j]) == np.sign(v[i]) * np.sign(v[j])

    def test_two_by_two_minors_vanish(self):
        # rank-1 identity M_ij M_kl = M_il M_kj, brute force over quadruples
        rng = np.random.default_rng(0)
        for sampler in (sample_positive_rank_one, sample_wishart_rank_one):
            mat = sampler(25, 3)
            for _ in range(500):
                i, j, k, l = rng.choice(25, size=4, replace=False)
                lhs = mat.dense[i, j] * mat.dense[k, l]
                rhs = mat.dense[i, l] * mat.dense[k, j]
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_negative_count_matches_sign_classes(self):
        mat = sample_wishart_rank_one(100, 17)
        k = int((mat.v < 0).sum())
        negatives = int((mat.offdiagonal_upper() < 0).sum())
        assert negatives == k * (100 - k)


class TestPointClouds:
    def test_noiseless_circle_radius(self):
        cloud = sample_noisy_circle(100, sigma=0.0, seed=8)
        radii = np.sqrt((cloud.points**2).sum(axis=1))
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_circle_determinism(self):
        a = sample_noisy_circle(100, sigma=0.1, seed=21)
        b = sample_noisy_circle(100, sigma=0.1, seed=21)
        assert np.array_equal(a.points, b.points)

    def test_noisy_circle_mean_radius(self):
        cloud = sample_noisy_circle(1000, sigma=0.05, seed=4)
        radii = np.sqrt((cloud.points**2).sum(axis=1))
        assert 0.97 <= radii.mean() <= 1.03

    def test_circle_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            sample_noisy_circle(10, sigma=-0.1, seed=0)

    def test_noiseless_torus_surface(self):
        cloud = sample_noisy_torus(50, 2.0, 1.0, sigma=0.0, seed=9)
        x, y, z = cloud.points.T
        residual = (np.sqrt(x**2 + y**2) - 2.0) ** 2 + z**2 - 1.0
        assert np.abs(residual).max() <= 1e-12

    def test_torus_determinism(self):
        a = sample_noisy_torus(40, seed=2)
        b = sample_noisy_torus(40, seed=2)
        assert np.array_equal(a.points, b.points)

    def test_noiseless_torus_height_band(self):
        cloud = sample_noisy_torus(500, 2.0, 1.0, sigma=0.0, seed=13)
        assert (np.abs(cloud.points[:, 2]) <= 1.0).all()

    def test_torus_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            sample_noisy_torus(10, major_radius=1.0, minor_radius=2.0, seed=0)
        with pytest.raises(ValueError):
            sample_noisy_torus(10, major_radius=2.0, minor_radius=0.0, seed=0)

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 4)))


def distances_by_pair_gather(points):
    """Distance matrix from the gathered differences of the pairs i < j,
    mirrored into the lower triangle: the kernel's reference formula."""
    n = points.shape[0]
    i, j = np.triu_indices(n, k=1)
    diff = points[i] - points[j]
    upper = np.sqrt((diff * diff).sum(axis=1))
    dense = np.zeros((n, n))
    dense[i, j] = upper
    dense[j, i] = upper
    return dense


class TestDistanceMatrix:
    def test_pythagorean_triple(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        mat = distance_matrix(cloud)
        assert mat.dense[0, 1] == 3.0
        assert mat.dense[0, 2] == 4.0
        assert mat.dense[1, 2] == 5.0

    def test_triangle_inequality(self):
        cloud = sample_noisy_circle(40, sigma=0.2, seed=6)
        mat = distance_matrix(cloud).dense
        n = cloud.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert mat[i, j] <= mat[i, k] + mat[k, j] + 1e-12

    def test_duplicate_points_give_zero_offdiagonal(self):
        cloud = PointCloud(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        mat = distance_matrix(cloud)
        assert mat.dense[0, 1] == 0.0
        assert mat.dense[0, 2] > 0

    # the kernel works in blocks of ROWS rows: sizes below, at, one past and
    # one past a multiple of a block, and a size of many blocks
    ROWS = ensembles._DISTANCE_ROWS
    SIZES = (2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 150)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 2.5])
    @pytest.mark.parametrize(
        "sample",
        [lambda n, sigma, seed: sample_noisy_circle(n, sigma, seed),
         lambda n, sigma, seed: sample_noisy_torus(n, 2.0, 1.0, sigma, seed)],
        ids=["circle", "torus"],
    )
    def test_bitwise_equal_to_pair_gather(self, sample, sigma, seed):
        for n in self.SIZES:
            cloud = sample(n, sigma, seed)
            dense = distance_matrix(cloud).dense
            oracle = distances_by_pair_gather(cloud.points)
            # compared as bits, so that -0.0 and 0.0 differ
            assert np.array_equal(dense.view(np.int64), oracle.view(np.int64)), n

    @pytest.mark.parametrize("n", [2, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_overflowing_distances_rejected(self, n):
        # finite coordinates whose one overflowing distance is between the
        # last two points; every other distance is finite
        points = np.zeros((n, 2))
        points[n - 2, 0], points[n - 1, 0] = 1e154, -1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                distance_matrix(PointCloud(points))

    def test_symmetry_and_provenance(self):
        cloud = sample_noisy_torus(20, seed=3)
        mat = distance_matrix(cloud)
        assert np.array_equal(mat.dense, mat.dense.T)
        assert (mat.offdiagonal_upper() >= 0).all()
        assert mat.ensemble == "torus"


class TestGaussianIsTheRandomGraphProcess:
    """i.i.d. continuous entries make the pair order a uniform random
    permutation, so the Gaussian filtration is the Erdos-Renyi random graph
    process, and its no-isolated-vertex index tau_1 (the first edge count
    at which every vertex has an edge) follows an exact finite-n law."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_law_counts_every_m_edge_graph(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            covering = sum(len(set(itertools.chain(*edges))) == n
                           for edges in itertools.combinations(pairs, m))
            assert no_isolated_vertex_law(n, m) == Fraction(covering, math.comb(len(pairs), m))

    def test_index_follows_the_law(self):
        # one-sample Kolmogorov-Smirnov at the 5% level, seeds and critical
        # value fixed in advance; for a discrete law the test is conservative
        draws = 300
        taus = np.array([build_filtration(sample_gaussian_symmetric(100, seed)).rank
                         .min(axis=1).max() + 1 for seed in range(1, draws + 1)])
        values, counts = np.unique(taus, return_counts=True)
        upto = np.cumsum(counts)
        below, upto = (upto - counts) / draws, upto / draws
        law = functools.cache(lambda m: float(no_isolated_vertex_law(100, m)))
        # the sup of |F_300 - F| is reached at an observed value or just below one
        distance = max(max(abs(u - law(x)), abs(b - law(x - 1)))
                       for x, b, u in zip(values.tolist(), below, upto))
        assert distance < 1.36 / math.sqrt(draws), distance


class TestRankOneConnectsWhereVSays:
    """A rank-one filtration's connectivity index is read from v alone.

    With v > 0, each vertex's neighbourhood grows as a prefix of the
    vertices by increasing v (a threshold graph), so the snapshot is
    connected once the vertex of least v joins the vertex of greatest v.
    A Wishart snapshot starts as a chain graph between the sign classes,
    and is connected once, from each class, the vertex of least |v| joins
    the other class's vertex of greatest |v|."""

    @pytest.mark.parametrize("n", [50, 200])
    def test_positive(self, n):
        for seed in range(1, 21):
            mat = sample_positive_rank_one(n, seed)
            filtration = build_filtration(mat)
            pair = np.argmin(mat.v), np.argmax(mat.v)
            assert filtration.connectivity_index == filtration.rank[pair] + 1, seed

    @pytest.mark.parametrize("n", [50, 200])
    def test_wishart(self, n):
        for seed in range(1, 21):
            mat = sample_wishart_rank_one(n, seed)
            size = np.abs(mat.v)
            classes = [np.flatnonzero(mat.v > 0), np.flatnonzero(mat.v < 0)]
            assert all(c.size for c in classes), seed
            crossing = [(a[np.argmin(size[a])], b[np.argmax(size[b])])
                        for a, b in (classes, classes[::-1])]
            filtration = build_filtration(mat)
            assert filtration.connectivity_index == 1 + max(
                filtration.rank[pair] for pair in crossing), seed
