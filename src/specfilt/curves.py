"""Spectral statistics swept along a filtration over a density grid.

A sweep builds the filtration once, converts the grid densities to edge
counts (round half up, duplicates dropped), and walks the snapshot
stream, computing one scalar per snapshot.  The result is a
:class:`CurveSeries` of (density, value) pairs ready for CSV or SVG
output.

The gap curve runs one dense eigensolve per snapshot.  The width (std)
curve runs none: its value comes from the traces of the Laplacian, which
depend only on the snapshot's degrees and edges
(:func:`specfilt.spectra.laplacian_std`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import SymmetricMatrix
from .filtration import (
    build_filtration,
    edge_count_at_density,
    graph_at_density,
    stream_prefixes,
)
from .spectra import (
    DEFAULT_BINS,
    Histogram,
    NumericalError,
    eigenvalues,
    laplacian,
    laplacian_std,
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
    "average_series",
    "linear_fit",
    "growth_fits",
]


@dataclass(frozen=True)
class DensityGrid:
    """Ascending, deduplicated list of edge densities in [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        points = np.unique(np.asarray(self.points, dtype=float))
        if points.size == 0:
            raise ValueError("a density grid needs at least one point")
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
    def with_zero_refinement(cls, n: int, steps: int = 50, levels: int = 8) -> "DensityGrid":
        """Uniform grid plus points (10/n) * 2**-j, j = 0..levels-1.

        The extra log-spaced points resolve structure near density 1/n
        that a uniform grid of this coarseness would miss entirely.
        """
        if n < 2:
            raise ValueError("n must be at least 2")
        refinement = (10.0 / n) * 0.5 ** np.arange(levels)
        refinement = refinement[refinement <= 1.0]
        return cls(np.concatenate([np.arange(steps + 1) / steps, refinement]))


@dataclass(frozen=True)
class CurveSeries:
    """A scalar spectral statistic sampled along a density grid."""

    statistic: str
    kind: str
    xs: np.ndarray
    ys: np.ndarray
    meta: dict = field(default_factory=dict)

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


def _checkpoints(grid: DensityGrid, n: int) -> tuple[list[int], list[float]]:
    # distinct edge counts with the first density that produced each
    counts: list[int] = []
    densities: list[float] = []
    seen: set[int] = set()
    for p in grid.points:
        m = edge_count_at_density(n, float(p))
        if m not in seen:
            seen.add(m)
            counts.append(m)
            densities.append(float(p))
    return counts, densities


def _series_meta(matrix: SymmetricMatrix) -> dict:
    return {"ensemble": matrix.ensemble, "n": matrix.n, "seed": matrix.seed}


def _sweep(matrix, grid, kind, statistic: str, stat_fn) -> CurveSeries:
    # stat_fn maps each snapshot Graph to the statistic's value
    filtration = build_filtration(matrix)
    counts, densities = _checkpoints(grid, matrix.n)
    ys = []
    for p, graph in zip(densities, stream_prefixes(filtration, counts)):
        try:
            ys.append(stat_fn(graph))
        except NumericalError as exc:
            exc.density = p
            raise
    return CurveSeries(
        statistic=statistic,
        kind=kind,
        xs=np.array(densities),
        ys=np.array(ys),
        meta=_series_meta(matrix),
    )


def gap_curve(matrix: SymmetricMatrix, grid: DensityGrid, kind: str) -> CurveSeries:
    """Spectral gap (second-smallest eigenvalue) as a function of density.

    At p = 0 the gap is 0; at p = 1 it is n for the raw kind and
    n/(n - 1) for the normalized kind (the complete-graph values).
    """
    return _sweep(matrix, grid, kind, "gap",
                  lambda graph: spectral_gap(eigenvalues(laplacian(graph, kind), kind)))


def std_curve(matrix: SymmetricMatrix, grid: DensityGrid, kind: str) -> CurveSeries:
    """Standard deviation of the eigenvalue distribution vs density.

    Each value comes from the traces of the snapshot's Laplacian
    (:func:`specfilt.spectra.laplacian_std`), not from an eigensolve.
    """
    return _sweep(matrix, grid, kind, "std", lambda graph: laplacian_std(graph, kind))


def sqrt_curve(series: CurveSeries) -> CurveSeries:
    """Pointwise square root of a curve (all values must be nonnegative)."""
    if (series.ys < 0).any():
        raise ValueError("cannot take the square root of negative values")
    return CurveSeries(
        statistic=f"sqrt-{series.statistic}",
        kind=series.kind,
        xs=series.xs,
        ys=np.sqrt(series.ys),
        meta=dict(series.meta),
    )


def density_snapshot(
    matrix: SymmetricMatrix,
    density: float,
    kind: str,
    bins: int = DEFAULT_BINS,
) -> Histogram:
    """Histogram of the spectrum at one density, over the default range."""
    filtration = build_filtration(matrix)
    graph = graph_at_density(filtration, density)
    try:
        spectrum = eigenvalues(laplacian(graph, kind), kind)
    except NumericalError as exc:
        exc.density = float(density)
        raise
    return spectrum_histogram(spectrum, bins=bins)


def average_series(series: list[CurveSeries]) -> CurveSeries:
    """Pointwise mean of curves sharing a grid, statistic, and kind."""
    if not series:
        raise ValueError("nothing to average")
    first = series[0]
    for other in series[1:]:
        if other.statistic != first.statistic or other.kind != first.kind:
            raise ValueError("cannot average curves of different statistics")
        if not np.array_equal(other.xs, first.xs):
            raise ValueError("cannot average curves over different grids")
    ys = np.mean([s.ys for s in series], axis=0)
    meta = dict(first.meta)
    meta["repeats"] = len(series)
    return CurveSeries(statistic=first.statistic, kind=first.kind,
                       xs=first.xs, ys=ys, meta=meta)


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_residual = float(((ys - predicted) ** 2).sum())
    ss_total = float(((ys - ys.mean()) ** 2).sum())
    if ss_total == 0.0:
        r_squared = 1.0 if ss_residual == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_residual / ss_total
    return float(slope), float(intercept), float(r_squared)


def growth_fits(gap_series: CurveSeries) -> dict:
    """R-squared of the two growth diagnostics for a gap curve.

    Fits sqrt(gap) against p and gap against p^2; a gap growing
    quadratically in p scores high on both.  Both values are reported
    side by side rather than picking one.
    """
    if (gap_series.ys < 0).any():
        raise ValueError("gap values must be nonnegative")
    _, _, r2_sqrt = linear_fit(gap_series.xs, np.sqrt(gap_series.ys))
    _, _, r2_quad = linear_fit(gap_series.xs**2, gap_series.ys)
    return {"sqrt_gap_vs_p": r2_sqrt, "gap_vs_p_squared": r2_quad}
