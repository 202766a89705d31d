"""Spectral statistics swept along a filtration over a density grid.

A sweep takes the matrix's filtration, converts the grid densities to
edge counts (round half up, duplicates dropped), and computes one scalar
per edge count.  The result is a :class:`CurveSeries` of (density,
value) pairs ready for CSV or SVG output.  Fitting a curve is left to
the caller (the square-root demo calls ``numpy.polyfit`` itself).

Every experiment takes a tuple of kinds and returns one result per kind,
in that order.  A sweep builds the matrix's filtration and lets go of
the matrix; each snapshot then serves every kind, and the kinds of a gap
curve share the spanning tree that gives the connectivity index.  A
density snapshot selects its pairs from the matrix and builds no
filtration.  Filtrations and snapshots come only from
:mod:`specfilt.filtration`'s builders, never from pair lists.

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
walks the filtration's pairs in order once, counting a running degree
vector, and takes every kind's width from the Laplacian's traces
(:func:`_width`).

Every snapshot goes through :func:`_solve`, which assembles and solves
one kind at a time, or, on two or more CPUs with a one-thread BLAS,
solves two large quotients at once.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .ensembles import SymmetricMatrix
from .filtration import (
    _edge_counts,
    build_filtration,
    graph_at_density,
    stream_prefixes,
)
from .spectra import (
    DEFAULT_BINS,
    KINDS,
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
        return cls(np.concatenate([cls.uniform().points, refinement]))


@dataclass(frozen=True)
class CurveSeries:
    """A scalar spectral statistic sampled along a density grid.

    Built by :func:`gap_curve`, :func:`std_curve` and :func:`sqrt_curve`
    (and by the CLI, which averages their ``ys`` over draws): ``xs`` are
    the ascending, distinct, in-range grid densities of distinct edge
    counts, and ``ys`` one finite value per density, nonnegative for the
    gap and the width.  The constructor takes ownership of both arrays,
    makes them read-only and checks nothing.
    """

    statistic: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    def __len__(self) -> int:
        return self.xs.size


def _checkpoints(grid: DensityGrid, n: int) -> tuple[np.ndarray, np.ndarray]:
    # distinct edge counts with the first density that produced each: the
    # points ascend and the count does not decrease, so a point whose count
    # repeats the one before is dropped
    counts = _edge_counts(n, grid.points)
    first = np.concatenate(([True], counts[1:] != counts[:-1]))
    return counts[first], grid.points[first]


def _check_kinds(kinds: tuple[str, ...]) -> tuple[str, ...]:
    if isinstance(kinds, str) or not kinds:  # a string would be split into letters
        raise ValueError(f"kinds must be a nonempty tuple such as {KINDS}, got {kinds!r}")
    return tuple(map(_check_kind, kinds))


def gap_curve(matrix: SymmetricMatrix, grid: DensityGrid,
              kinds: tuple[str, ...]) -> tuple[CurveSeries, ...]:
    """Spectral gap (second-smallest eigenvalue) vs density, per kind.

    The gap is exactly 0.0 at every checkpoint below the connectivity
    index (the disconnected ones), where no snapshot is built and nothing
    is solved; each connected snapshot is built once, and :func:`_solve`
    solves its quotients, one per kind, in kind order.  At p = 1 the
    complete graph's gap is exactly n for the raw kind and n/(n - 1) for
    the normalized kind.
    """
    kinds = _check_kinds(kinds)
    filtration = build_filtration(matrix)
    del matrix
    counts, densities = _checkpoints(grid, filtration.n)
    skip = int(np.searchsorted(counts, filtration.connectivity_index))
    values = [[0.0] * skip for _ in kinds]
    snapshots = stream_prefixes(filtration, counts[skip:])
    for p, graph in zip(densities[skip:].tolist(), snapshots):
        spectra = _solve([graph], kinds, p)
        for spectrum, ys in zip(spectra, values):
            ys.append(spectral_gap(spectrum))
    return tuple(CurveSeries("gap", densities, np.array(ys)) for ys in values)


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


def std_curve(matrix: SymmetricMatrix, grid: DensityGrid,
              kinds: tuple[str, ...]) -> tuple[CurveSeries, ...]:
    """Standard deviation of the eigenvalue distribution vs density, per kind.

    One walk along the filtration's pair order
    (:attr:`specfilt.filtration.EdgeFiltration.pair_order`), with no
    snapshot and no eigensolve: at each checkpoint the endpoints of the
    pairs added since the last one are counted into a running degree
    vector, and every kind's width comes from the Laplacian's traces
    (:func:`_width`).  The raw width is exact.  The normalized sum S
    gathers at most C(n, 2) / 2 pairs; its terms are positive, so its
    rounding error is small against the side summed, which on the larger
    side can exceed S.  Against the width from the exact rational S it
    differed by at most 2.3e-15 relative (Gaussian, circle, both rank-one
    ensembles and a tie-heavy rounded Gaussian, at n = 2-40 and 200).
    """
    kinds = _check_kinds(kinds)
    filtration = build_filtration(matrix)
    del matrix
    n = filtration.n
    counts, densities = _checkpoints(grid, n)
    order = filtration.pair_order
    degrees = np.zeros(n, dtype=np.int64)
    values, added = [[] for _ in kinds], 0
    for m in counts.tolist():
        for ends in order[:, added:m]:  # the i, then the j, of each new pair
            degrees += np.bincount(ends, minlength=n)
        added = m
        for kind, ys in zip(kinds, values):
            ys.append(_width(degrees, kind, order, m))
    return tuple(CurveSeries("std", densities, np.array(ys)) for ys in values)


def sqrt_curve(series: CurveSeries) -> CurveSeries:
    """Pointwise square root of a curve; every gap and width is
    nonnegative, the eigenvalues being clamped to at least 0."""
    return CurveSeries(f"sqrt-{series.statistic}", series.xs, np.sqrt(series.ys))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS takes its thread count from the first of these set to a
# positive integer
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _concurrent_solves() -> bool:
    """Whether two eigensolves may run at once: the process may run on two
    or more CPUs and the environment pins the BLAS to one thread.  With
    more BLAS threads, or none set, each solve already has every core."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1 and _cpu_count() >= 2
    return False


# the smallest quotient at which two solves at once beat one after the
# other, measured on a 2-vCPU x86-64 host with OpenBLAS at one thread in
# alternated pairs.  Both kinds of a twin-free Gaussian snapshot took
# 28.2 ms at once against 47.4 ms one after the other at q = 525 (15
# pairs of 16 won), and a uniform:50 Gaussian gap sweep at n = 525 took
# 1.43 s against 2.48 s (10 of 10).  From q = 300 to 500 neither way won
# in every run (5 of 10 to 11 of 16 pairs, medians within 8%); at
# q = 150 two at once won 2 pairs of 12, and at q = 64 none
_MIN_CONCURRENT_Q = 525


def _solve(snapshot: list, kinds: tuple[str, ...], density: float) -> list:
    """The spectra of the snapshot at ``density``, one per kind, in order.

    The snapshot is taken out of the one-element list ``snapshot``, so a
    caller that keeps no other reference to it lets it go here.  Without
    :func:`_concurrent_solves`, each kind's quotient is assembled and
    solved before the next kind's is assembled, so one quotient is held at
    a time.  With it, every quotient is assembled and the snapshot dropped
    before any solve; where two quotients have at least
    ``_MIN_CONCURRENT_Q`` classes, a daemon worker thread solves every
    quotient but the first while this thread solves the first, with the
    same bytes as one after the other.  Either way the first failure in
    kind order is raised, a :class:`NumericalError` with ``density`` set,
    and an interrupt here does not wait for the worker.  Quotients are
    assembled in kind order too, and the snapshot's kinds share its twin
    classes; a certified snapshot reads them off its raw certificate only
    when the raw kind comes first, as in ``KINDS`` and the CLI's
    ``--kind both``.
    """
    graph = snapshot.pop()
    try:
        if not _concurrent_solves():
            return [eigenvalues(laplacian(graph, kind)) for kind in kinds]
        quotients = [laplacian(graph, kind) for kind in kinds]
        del graph
        if sum(q.dense.shape[0] >= _MIN_CONCURRENT_Q for q in quotients) < 2:
            return [eigenvalues(quotient) for quotient in quotients]
        rest = []  # the worker's spectra, or the exception that stopped it

        def solve_rest():
            try:
                rest.extend(eigenvalues(quotient) for quotient in quotients[1:])
            except BaseException as exc:  # raised again by the calling thread
                rest.append(exc)

        worker = threading.Thread(target=solve_rest, name="specfilt-solve", daemon=True)
        worker.start()
        first = eigenvalues(quotients[0])
        worker.join()
        if rest and isinstance(rest[-1], BaseException):
            raise rest[-1]
        return [first, *rest]
    except NumericalError as exc:
        exc.density = density
        raise


def density_snapshot(
    matrix: SymmetricMatrix,
    density: float,
    kinds: tuple[str, ...],
    bins: int = DEFAULT_BINS,
) -> tuple[Histogram, ...]:
    """Histogram of the spectrum at one density, over the default range,
    per kind.

    The snapshot is selected straight from the matrix
    (:func:`specfilt.filtration.graph_at_density`, no sort and no
    filtration), and this call drops its reference to the matrix once it
    holds the snapshot, so a caller that passed its only reference frees
    the entries before any quotient is assembled (on Python 3.10 the
    caller's stack keeps the argument until the call returns).
    :func:`_solve` then assembles and solves the quotients, and with two
    solves at once drops the snapshot before them.
    """
    kinds = _check_kinds(kinds)
    snapshot = [graph_at_density(matrix, density)]
    del matrix
    spectra = _solve(snapshot, kinds, float(density))
    return tuple(spectrum_histogram(spectrum, bins=bins) for spectrum in spectra)
