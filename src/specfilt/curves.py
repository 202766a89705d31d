"""Spectral statistics swept along a filtration over a density grid.

A sweep takes the matrix's filtration, converts the grid densities to
edge counts (round half up, duplicates dropped), and computes one scalar
per edge count.  The result is a :class:`CurveSeries` of (density,
value) pairs ready for CSV or SVG output.  Fitting a curve is left to
the caller (the square-root demo calls ``numpy.polyfit`` itself).

The filtration is built on the first call for a matrix and kept with
it, so every curve and snapshot of one matrix shares one sort, and both
kinds of gap curve share the one spanning tree that gives the
filtration's connectivity index.  Filtrations and snapshots come only
from :mod:`specfilt.filtration`'s builders, never from pair lists.

The gap curve and the density histogram take each spectrum they need
from :func:`specfilt.spectra.laplacian`, which checks the kind and
stores it on the quotient, and :func:`specfilt.spectra.eigenvalues`,
which reads it from there.  A raw spectrum certified from the
snapshot's degrees (a threshold graph, or a join of threshold graphs, as
every rank-one snapshot past the Wishart bipartite stage is) is exact
integers with nothing solved; any other is one eigensolve of the twin
quotient (for a snapshot without twins, its full Laplacian).  Below the
connectivity index (one more than the largest rank in the minimum
spanning tree of the rank matrix,
:attr:`specfilt.filtration.EdgeFiltration.connectivity_index`) the gap
is exactly 0, and those snapshots are not even built.

The width (std) curve builds no snapshot and runs no eigensolve: it
takes the Laplacian's traces (:func:`_width`) from the degrees and, for
the normalized kind, the sum over edges of ``1 / (d_i d_j)``, walking
the filtration's pairs in order once per kind
(:attr:`specfilt.filtration.EdgeFiltration.pair_order`) and adding each
new segment's endpoints to a running degree vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import SymmetricMatrix
from .filtration import (
    EdgeFiltration,
    _edge_counts,
    build_filtration,
    graph_at_density,
    stream_prefixes,
)
from .spectra import (
    DEFAULT_BINS,
    Histogram,
    NumericalError,
    RAW,
    _check_kind,
    eigenvalues,
    laplacian,
    spectral_gap,
    spectrum_histogram,
    spectrum_std,  # not called here; bench/child.py traces it by this name
)

__all__ = [
    "DensityGrid",
    "CurveSeries",
    "gap_curve",
    "std_curve",
    "sqrt_curve",
    "density_snapshot",
]


@dataclass(frozen=True)
class DensityGrid:
    """Ascending, deduplicated list of edge densities in [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        # np.unique's algorithm without its np.ma.is_masked check, which
        # imports numpy.ma: sort flat, keep each point unlike the one before;
        # + 0.0 turns -0.0 into 0.0, so input order cannot make "-0" a point
        points = np.sort(np.asarray(self.points, dtype=float) + 0.0, axis=None)
        if points.size == 0:
            raise ValueError("a density grid needs at least one point")
        points = points[np.concatenate(([True], points[1:] != points[:-1]))]
        if not np.isfinite(points).all():
            raise ValueError("densities must be finite")
        if points[0] < 0.0 or points[-1] > 1.0:
            raise ValueError("densities must lie in [0, 1]")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, steps: int = 50) -> "DensityGrid":
        """Grid k/steps for k = 0..steps."""
        if steps < 1:
            raise ValueError("steps must be at least 1")
        return cls(np.arange(steps + 1) / steps)

    @classmethod
    def with_zero_refinement(cls, n: int) -> "DensityGrid":
        """Grid k/50 for k = 0..50 plus the points (10/n) * 2**-j, j = 0..7,
        that do not exceed 1.

        The extra log-spaced points resolve structure near density 1/n
        that a uniform grid of this coarseness would miss entirely.
        """
        if n < 2:
            raise ValueError("n must be at least 2")
        refinement = (10.0 / n) * 0.5 ** np.arange(8)
        refinement = refinement[refinement <= 1.0]
        return cls(np.concatenate([np.arange(51) / 50, refinement]))


@dataclass(frozen=True)
class CurveSeries:
    """A scalar spectral statistic sampled along a density grid."""

    statistic: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
            raise ValueError("xs and ys must be equal-length nonempty vectors")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly ascending")
        if not np.isfinite(ys).all():
            raise ValueError("ys must be finite")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.size


def _checkpoints(grid: DensityGrid, n: int) -> tuple[np.ndarray, np.ndarray]:
    # distinct edge counts with the first density that produced each: the
    # points ascend and the count does not decrease, so a point whose count
    # repeats the one before is dropped
    counts = _edge_counts(n, grid.points)
    first = np.concatenate(([True], counts[1:] != counts[:-1]))
    return counts[first], grid.points[first]


def _filtration(matrix: SymmetricMatrix) -> EdgeFiltration:
    # built on first use and kept with the matrix, whose entries are read-only
    filtration = getattr(matrix, "_filtration", None)
    if filtration is None:
        filtration = matrix._filtration = build_filtration(matrix)
    return filtration


def gap_curve(matrix: SymmetricMatrix, grid: DensityGrid, kind: str) -> CurveSeries:
    """Spectral gap (second-smallest eigenvalue) as a function of density.

    The gap is exactly 0.0 at every checkpoint below the connectivity
    index (the disconnected ones), where no snapshot is built and nothing
    is solved; each connected snapshot's spectrum comes from
    :func:`specfilt.spectra.laplacian`, exact integers when certified
    (raw kind), solved over its twin classes otherwise.  At p = 1 the
    complete graph's gap is exactly n for the raw kind and n/(n - 1) for
    the normalized kind.
    """
    _check_kind(kind)
    filtration = _filtration(matrix)
    counts, densities = _checkpoints(grid, matrix.n)
    skip = int(np.searchsorted(counts, filtration.connectivity_index))
    ys = [0.0] * skip
    snapshots = stream_prefixes(filtration, counts[skip:])
    for p, graph in zip(densities[skip:].tolist(), snapshots):
        try:
            ys.append(spectral_gap(eigenvalues(laplacian(graph, kind))))
        except NumericalError as exc:
            exc.density = p
            raise
    return CurveSeries(statistic="gap", xs=densities, ys=np.array(ys))


def _width(degrees: np.ndarray, kind: str, order: np.ndarray, m: int) -> float:
    """Width (population standard deviation) of the Laplacian spectrum of
    the snapshot on the first m pairs of ``order``, from its degrees d.

    ``n^2 var = n tr L^2 - (tr L)^2``.  Raw: ``tr L = sum d`` and
    ``tr L^2 = sum d^2 + sum d``, so ``n^2 var`` is an exact integer.
    Normalized: ``tr N = k``, the non-isolated vertices, and
    ``tr N^2 = k + 2 S``, S the sum over edges of ``w_i w_j``, w = 1/d
    (0 where d = 0), summed over the smaller side: the m pairs added, or
    all pairs' ``((sum w)^2 - sum w^2) / 2`` less the ones not yet added.
    """
    n = degrees.size
    if kind == RAW:
        total = int(degrees.sum())
        n2_var = n * (int((degrees * degrees).sum()) + total) - total * total
    else:
        k = int(np.count_nonzero(degrees))
        w = np.zeros(n)
        np.divide(1.0, degrees, out=w, where=degrees > 0)
        if 2 * m <= order.shape[1]:
            s = float(np.dot(w.take(order[0, :m]), w.take(order[1, :m])))
        else:
            sum_w = float(w.sum())
            s = (sum_w * sum_w - float(np.dot(w, w))) / 2 - float(
                np.dot(w.take(order[0, m:]), w.take(order[1, m:])))
        n2_var = n * k - k * k + 2 * n * s
    return math.sqrt(n2_var) / n


def std_curve(matrix: SymmetricMatrix, grid: DensityGrid, kind: str) -> CurveSeries:
    """Standard deviation of the eigenvalue distribution vs density.

    One walk along the filtration's pair order
    (:attr:`specfilt.filtration.EdgeFiltration.pair_order`), with no
    snapshot and no eigensolve: at each checkpoint the endpoints of the
    pairs added since the last one are counted into a running degree
    vector, and the width comes from the Laplacian's traces
    (:func:`_width`).  The raw width is exact.  The normalized sum S
    gathers at most C(n, 2) / 2 pairs; its terms are positive, so its
    rounding error is small against the side summed, which on the larger
    side can exceed S.  Against the width from the exact rational S it
    differed by at most 2.3e-15 relative (Gaussian, circle, both rank-one
    ensembles and a tie-heavy rounded Gaussian, at n = 2-40 and 200).
    """
    _check_kind(kind)
    filtration = _filtration(matrix)
    counts, densities = _checkpoints(grid, matrix.n)
    order = filtration.pair_order
    degrees = np.zeros(matrix.n, dtype=np.int64)
    ys, added = [], 0
    for m in counts.tolist():
        for ends in order[:, added:m]:  # the i, then the j, of each new pair
            degrees += np.bincount(ends, minlength=matrix.n)
        added = m
        ys.append(_width(degrees, kind, order, m))
    return CurveSeries(statistic="std", xs=densities, ys=np.array(ys))


def sqrt_curve(series: CurveSeries) -> CurveSeries:
    """Pointwise square root of a curve (all values must be nonnegative)."""
    if (series.ys < 0).any():
        raise ValueError("cannot take the square root of negative values")
    return CurveSeries(f"sqrt-{series.statistic}", series.xs, np.sqrt(series.ys))


def density_snapshot(
    matrix: SymmetricMatrix,
    density: float,
    kind: str,
    bins: int = DEFAULT_BINS,
) -> Histogram:
    """Histogram of the spectrum at one density, over the default range."""
    graph = graph_at_density(_filtration(matrix), density)
    try:
        spectrum = eigenvalues(laplacian(graph, kind))
    except NumericalError as exc:
        exc.density = float(density)
        raise
    return spectrum_histogram(spectrum, bins=bins)

