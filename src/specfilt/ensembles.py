"""Random symmetric-matrix ensembles and synthetic point clouds.

Every generator here is a pure function of its parameters and a 64-bit
unsigned seed: two calls with the same arguments return bit-identical
arrays.  Randomness comes from one fixed, documented source so runs are
reproducible:

* uniform stream: numpy's PCG64 bit generator, seeded directly with the
  given integer;
* Gaussian variates: the Box-Muller transform applied to consecutive
  pairs drawn from that uniform stream (see :func:`_standard_normals`).

Matrices are returned as :class:`SymmetricMatrix` instances holding a
read-only dense array whose upper and lower triangles are bitwise equal,
with the diagonal stored as zero for all sampled ensembles.  The diagonal
is never consulted by the edge filtration.  The matrices built here are
exactly symmetric by construction, so they skip the public constructor's
copy and symmetry scan; only an overflow can make one invalid, and
:class:`RankOneMatrix` and :func:`distance_matrix` check for it.
"""

from __future__ import annotations

import numpy as np

from .filtration import _upper_mask

__all__ = [
    "SymmetricMatrix",
    "RankOneMatrix",
    "PointCloud",
    "sample_gaussian_symmetric",
    "sample_positive_rank_one",
    "sample_wishart_rank_one",
    "sample_noisy_circle",
    "sample_noisy_torus",
    "distance_matrix",
]

SEED_MAX = 2**64


def _checked_rng(seed: int) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if not 0 <= seed < SEED_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _check_count(n: int, what: str = "vertex count") -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} must be an integer")
    if n < 2:
        raise ValueError(f"{what} must be at least 2")
    return int(n)


def _standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller over the uniform stream.

    Each consecutive uniform pair (u1, u2) maps to the two variates
    ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)`` and the matching sine variate;
    the cosine variate of a pair precedes its sine variate in the output.
    """
    if count == 0:
        return np.empty(0)
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 lies in (0, 1]
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


class SymmetricMatrix:
    """Dense real symmetric matrix with exact (bitwise) symmetry.

    Parameters
    ----------
    dense : array_like
        Square array of shape (n, n) with n >= 2, finite entries, and
        ``dense[i, j] == dense[j, i]`` holding exactly.
    ensemble : str, optional
        Name of the generating model, shown in the repr.
    """

    def __init__(self, dense, ensemble: str | None = None):
        dense = np.array(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("expected a square matrix")
        if dense.shape[0] < 2:
            raise ValueError("matrix size must be at least 2")
        if not np.isfinite(dense).all():
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(dense, dense.T):
            raise ValueError("matrix must be exactly symmetric")
        self._wrap(dense, ensemble)

    def _wrap(self, dense: np.ndarray, ensemble: str | None) -> None:
        # the one place a matrix's fields are set; the array becomes read-only
        dense.setflags(write=False)
        self.dense = dense
        self.ensemble = ensemble

    @classmethod
    def _trusted(cls, dense: np.ndarray, ensemble: str | None = None) -> "SymmetricMatrix":
        """Wrap a float64 array that is square (n >= 2), finite and exactly
        symmetric by construction or by an earlier check, without the
        constructor's copy and scans; the array becomes read-only."""
        matrix = cls.__new__(cls)
        matrix._wrap(dense, ensemble)
        return matrix

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    def offdiagonal_upper(self) -> np.ndarray:
        """Entries above the diagonal, in ``np.triu_indices`` order."""
        i, j = np.triu_indices(self.n, k=1)
        return self.dense[i, j]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, ensemble={self.ensemble!r})"


class RankOneMatrix(SymmetricMatrix):
    """Rank-one matrix ``M[i, j] = v[i] * v[j]``, with the diagonal zeroed.

    Built from ``v`` alone, so the generating vector kept on the instance
    (attribute ``v``, a read-only copy) is the one that generates it:
    several structural facts about the induced graphs, such as the sign
    classes and the complete bipartite stage, are checked against it.
    """

    def __init__(self, v, ensemble: str | None = None):
        v = np.array(v, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("v must be a one-dimensional vector of length >= 2")
        if not np.isfinite(v).all():
            raise ValueError("v must have finite entries")
        # fl(v_i v_j) = fl(v_j v_i), so the triangles are bitwise equal
        with np.errstate(over="ignore"):  # rejected below
            dense = np.outer(v, v)
        np.fill_diagonal(dense, 0.0)
        if not np.isfinite(dense).all():
            raise ValueError("matrix entries must be finite")
        self._wrap(dense, ensemble)
        v.setflags(write=False)
        self.v = v


def _symmetric_from_upper(n, upper, ensemble) -> SymmetricMatrix:
    # upper is ordered as np.triu_indices(n, k=1), the row-major order in
    # which a boolean mask of the upper triangle writes; through the
    # transpose the same mask writes the lower triangle.  Mirroring the
    # same values keeps the two triangles bitwise identical, and
    # Box-Muller draws are always finite, so nothing is left to check.
    dense = np.zeros((n, n))
    mask = _upper_mask(n)
    dense[mask] = upper
    dense.T[mask] = upper
    return SymmetricMatrix._trusted(dense, ensemble=ensemble)


def sample_gaussian_symmetric(n: int, seed: int) -> SymmetricMatrix:
    """Symmetric matrix with i.i.d. standard normal upper-triangle entries.

    Parameters
    ----------
    n : int
        Matrix size, at least 2.
    seed : int
        Unsigned 64-bit seed.

    Returns
    -------
    SymmetricMatrix
        Entries above the diagonal are independent N(0, 1) draws; the
        diagonal is zero.  The induced edge filtration is an
        Erdos-Renyi-style random graph process.
    """
    n = _check_count(n)
    rng = _checked_rng(seed)
    upper = _standard_normals(rng, n * (n - 1) // 2)
    return _symmetric_from_upper(n, upper, "gaussian")


def sample_positive_rank_one(n: int, seed: int) -> RankOneMatrix:
    """Rank-one matrix ``v v^T`` with v uniform in [0, 1]^n (zero diagonal)."""
    n = _check_count(n)
    rng = _checked_rng(seed)
    v = rng.random(n)
    return RankOneMatrix(v, ensemble="positive-rank1")


def sample_wishart_rank_one(n: int, seed: int) -> RankOneMatrix:
    """Rank-one matrix ``v v^T`` with v standard normal (zero diagonal)."""
    n = _check_count(n)
    rng = _checked_rng(seed)
    v = _standard_normals(rng, n)
    return RankOneMatrix(v, ensemble="wishart-rank1")


class PointCloud:
    """Finite point set in the plane or in 3-space; rows are points.

    ``ensemble`` names the generating model, passed on by
    :func:`distance_matrix` to the matrix.
    """

    def __init__(self, points, ensemble: str | None = None):
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] not in (2, 3):
            raise ValueError("points must have shape (n, 2) or (n, 3)")
        if points.shape[0] < 2:
            raise ValueError("a point cloud needs at least 2 points")
        if not np.isfinite(points).all():
            raise ValueError("coordinates must be finite")
        points.setflags(write=False)
        self.points = points
        self.ensemble = ensemble

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:
        return f"PointCloud(n={self.n}, dim={self.dim}, ensemble={self.ensemble!r})"


def sample_noisy_circle(n: int, sigma: float = 0.1, seed: int = 0) -> PointCloud:
    """Points on the unit circle with per-coordinate Gaussian noise.

    Angles are i.i.d. uniform in [0, 2 pi); each coordinate then receives
    independent N(0, sigma^2) noise.  ``sigma = 0`` gives an exact circle.
    """
    n = _check_count(n, "point count")
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be a nonnegative real")
    rng = _checked_rng(seed)
    angle = (2.0 * np.pi) * rng.random(n)
    points = np.column_stack([np.cos(angle), np.sin(angle)])
    with np.errstate(over="ignore"):  # PointCloud rejects what overflows
        points = points + sigma * _standard_normals(rng, 2 * n).reshape(n, 2)
    return PointCloud(points, ensemble="circle")


def sample_noisy_torus(
    n: int,
    major_radius: float = 2.0,
    minor_radius: float = 1.0,
    sigma: float = 0.1,
    seed: int = 0,
) -> PointCloud:
    """Points on a torus of revolution with per-coordinate Gaussian noise.

    The two angles are i.i.d. uniform in [0, 2 pi); the noiseless surface
    is ``(sqrt(x^2 + y^2) - major)^2 + z^2 = minor^2``.
    """
    n = _check_count(n, "point count")
    if not (np.isfinite(major_radius) and np.isfinite(minor_radius)):
        raise ValueError("radii must be finite")
    if not major_radius > minor_radius > 0:
        raise ValueError("need major_radius > minor_radius > 0")
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be a nonnegative real")
    rng = _checked_rng(seed)
    theta = (2.0 * np.pi) * rng.random(n)
    phi = (2.0 * np.pi) * rng.random(n)
    ring = major_radius + minor_radius * np.cos(phi)
    points = np.column_stack(
        [ring * np.cos(theta), ring * np.sin(theta), minor_radius * np.sin(phi)]
    )
    with np.errstate(over="ignore"):  # PointCloud rejects what overflows
        points = points + sigma * _standard_normals(rng, 3 * n).reshape(n, 3)
    return PointCloud(points, ensemble="torus")


# rows per block of the distance kernel: at n = 2000 a block and its
# temporary are 256 KiB each.  On a 2-CPU x86-64 host with numpy 2.4, the
# torus at n = 2000 took 28 ms in 8- to 32-row blocks and 34 ms in
# 64-row blocks or in one n x n pass
_DISTANCE_ROWS = 16


def distance_matrix(cloud: PointCloud) -> SymmetricMatrix:
    """Euclidean distance matrix of a point cloud (zero diagonal).

    Built in one n x n buffer, ``_DISTANCE_ROWS`` rows at a time: per
    coordinate the outer difference x[i] - x[j] is squared and added,
    left to right over the coordinates, then the square root is taken in
    place.  Negation is exact, so the two triangles are bitwise equal,
    and each entry equals the pairwise formula
    ``sqrt(sum((p[i] - p[j]) ** 2))``.  Finite coordinates can still
    overflow the sum of squares, so each block's entries are checked for
    finiteness.
    """
    x = cloud.points.T
    n = cloud.n
    dense = np.empty((n, n))
    term = np.empty((min(_DISTANCE_ROWS, n), n))
    with np.errstate(over="ignore"):  # rejected below
        for start in range(0, n, _DISTANCE_ROWS):
            rows = slice(start, start + _DISTANCE_ROWS)
            block = dense[rows]
            part = term[:block.shape[0]]
            np.subtract.outer(x[0, rows], x[0], out=block)
            np.multiply(block, block, out=block)
            for coordinate in x[1:]:
                np.subtract.outer(coordinate[rows], coordinate, out=part)
                np.multiply(part, part, out=part)
                block += part
            np.sqrt(block, out=block)
            if not np.isfinite(block).all():
                raise ValueError("matrix entries must be finite")
    return SymmetricMatrix._trusted(dense, ensemble=cloud.ensemble)
