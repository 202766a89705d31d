"""Graph Laplacians and eigenvalue statistics.

Two Laplacians are supported for a graph snapshot:

* raw:        ``L = D - A`` with D the diagonal degree matrix;
* normalized: ``D^{-1/2} L D^{-1/2}``, whose spectrum lies in [0, 2].

An isolated vertex would make the normalized form divide by zero; its
row and column are stored as zero instead, contributing one zero
eigenvalue.  With that convention the multiplicity of the eigenvalue 0
equals the number of connected components for both kinds, throughout the
whole filtration.

The width of a spectrum (its population standard deviation) comes from
traces instead, by :func:`laplacian_std`: ``tr L`` and ``tr L^2`` depend
only on the degrees and edges, so no matrix is built and nothing is
solved.  :func:`spectrum_std` computes the same width from eigenvalues.

Eigenvalues come from a full dense symmetric decomposition
(``numpy.linalg.eigvalsh``, LAPACK's tridiagonalization plus implicitly
shifted iteration).  Results are validated against the theoretical range
of their kind and then clamped into it; violations beyond the tolerance
band raise :class:`NumericalError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import SymmetricMatrix
from .filtration import Graph

__all__ = [
    "RAW",
    "NORMALIZED",
    "KINDS",
    "ZERO_TOL_FACTOR",
    "CLAMP_TOL_FACTOR",
    "DEFAULT_BINS",
    "NumericalError",
    "Spectrum",
    "Histogram",
    "raw_laplacian",
    "normalized_laplacian",
    "laplacian",
    "eigenvalues",
    "spectral_gap",
    "spectrum_histogram",
    "spectrum_std",
    "laplacian_std",
    "zero_multiplicity",
]

RAW = "raw"
NORMALIZED = "normalized"
KINDS = (RAW, NORMALIZED)

# |lam| <= ZERO_TOL_FACTOR * n counts as the eigenvalue zero; values within
# CLAMP_TOL_FACTOR * n of the theoretical range are clamped into it.
ZERO_TOL_FACTOR = 1e-8
CLAMP_TOL_FACTOR = 1e-8

DEFAULT_BINS = 100


class NumericalError(RuntimeError):
    """Eigensolver failure, or a spectrum outside its theoretical range.

    ``residual`` carries the magnitude of the violation when known;
    ``density`` is attached by curve sweeps to locate the offending
    snapshot.
    """

    def __init__(self, message: str, residual: float | None = None,
                 density: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.density = density


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def raw_laplacian(graph: Graph) -> SymmetricMatrix:
    """Degree matrix minus adjacency matrix."""
    n = graph.n
    mat = np.zeros((n, n))
    if graph.edge_count:
        i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
        mat[i, j] = -1.0
        mat[j, i] = -1.0
    mat[np.arange(n), np.arange(n)] = graph.degrees.astype(float)
    return SymmetricMatrix(mat)


def normalized_laplacian(graph: Graph) -> SymmetricMatrix:
    """Symmetric normalized Laplacian with zero rows for isolated vertices.

    Entries are 1 on the diagonal for vertices of positive degree,
    ``-1 / sqrt(deg(i) * deg(j))`` on edges, and 0 elsewhere.
    """
    n = graph.n
    degrees = graph.degrees.astype(float)
    mat = np.zeros((n, n))
    if graph.edge_count:
        i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
        w = -1.0 / np.sqrt(degrees[i] * degrees[j])
        mat[i, j] = w
        mat[j, i] = w
    mat[np.arange(n), np.arange(n)] = (degrees > 0).astype(float)
    return SymmetricMatrix(mat)


def laplacian(graph: Graph, kind: str) -> SymmetricMatrix:
    """Dispatch to :func:`raw_laplacian` or :func:`normalized_laplacian`."""
    _check_kind(kind)
    return raw_laplacian(graph) if kind == RAW else normalized_laplacian(graph)


@dataclass(frozen=True)
class Spectrum:
    """All n eigenvalues of one Laplacian, ascending.

    ``values`` are clamped into the theoretical range of their kind;
    ``pre_clamp_min`` / ``pre_clamp_max`` record the extreme eigenvalues
    as the solver returned them.
    """

    kind: str
    values: np.ndarray
    n: int
    pre_clamp_min: float
    pre_clamp_max: float

    def __post_init__(self):
        _check_kind(self.kind)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.n:
            raise ValueError("a spectrum holds exactly n eigenvalues")
        if np.any(np.diff(values) < 0):
            raise ValueError("eigenvalues must be ascending")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def eigenvalues(matrix: SymmetricMatrix, kind: str) -> Spectrum:
    """Full spectrum of a Laplacian matrix of the given kind.

    The returned eigenvalues are ascending and clamped into [0, n] for
    the raw kind, [0, 2] for the normalized kind.  Values outside the
    range by more than ``CLAMP_TOL_FACTOR * n``, and raw spectra whose
    smallest eigenvalue is not 0 within the same band, raise
    :class:`NumericalError`.
    """
    _check_kind(kind)
    n = matrix.n
    try:
        values = np.linalg.eigvalsh(matrix.dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    lo, hi = (0.0, float(n)) if kind == RAW else (0.0, 2.0)
    band = CLAMP_TOL_FACTOR * n
    violation = max(lo - values[0], values[-1] - hi, 0.0)
    if violation > band:
        raise NumericalError(
            f"{kind} eigenvalues leave [{lo:g}, {hi:g}] by {violation:.3e}",
            residual=float(violation),
        )
    if kind == RAW and values[0] > band:
        raise NumericalError(
            "smallest raw Laplacian eigenvalue must be 0",
            residual=float(values[0]),
        )
    clamped = np.clip(values, lo, hi)
    return Spectrum(
        kind=kind,
        values=clamped,
        n=n,
        pre_clamp_min=float(values[0]),
        pre_clamp_max=float(values[-1]),
    )


def spectral_gap(spectrum: Spectrum) -> float:
    """Second-smallest eigenvalue.

    The smallest Laplacian eigenvalue is always 0, so this is the gap
    above the bottom of the spectrum; it is 0 exactly when the graph is
    disconnected (the eigenvalue 0 then has multiplicity >= 2).
    """
    if spectrum.values.size < 2:
        raise ValueError("spectral gap needs at least 2 eigenvalues")
    return float(spectrum.values[1])


@dataclass(frozen=True)
class Histogram:
    """Counts of eigenvalues over uniform bins."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        edges = np.array(self.bin_edges, dtype=float)
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("a histogram needs at least one bin")
        if edges.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need exactly one more edge than bins")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly ascending")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.total:
            raise ValueError("counts must sum to total")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bins(self) -> int:
        return self.counts.size

    def bin_of(self, value: float) -> int:
        """Index of the bin containing ``value`` (the last bin is closed)."""
        edges = self.bin_edges
        idx = int(np.searchsorted(edges, value, side="right")) - 1
        return min(max(idx, 0), self.bins - 1)


def spectrum_histogram(
    spectrum: Spectrum,
    bins: int = DEFAULT_BINS,
    lo: float | None = None,
    hi: float | None = None,
) -> Histogram:
    """Histogram of a spectrum over uniform bins on [lo, hi].

    Defaults to [0, n] for raw spectra and [0, 2] for normalized ones.
    Values outside the range (possible only within the clamp tolerance)
    are counted in the extreme bins; every eigenvalue lands in exactly
    one bin, so the counts sum to n.
    """
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError("bins must be a positive integer")
    if lo is None:
        lo = 0.0
    if hi is None:
        hi = float(spectrum.n) if spectrum.kind == RAW else 2.0
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError("need finite bounds with lo < hi")
    clipped = np.clip(spectrum.values, lo, hi)
    counts, edges = np.histogram(clipped, bins=int(bins), range=(float(lo), float(hi)))
    return Histogram(bin_edges=edges, counts=counts, total=int(counts.sum()))


def spectrum_std(spectrum: Spectrum) -> float:
    """Population standard deviation of the eigenvalue distribution."""
    if spectrum.values.size < 1:
        raise ValueError("empty spectrum")
    return float(np.std(spectrum.values))


def laplacian_std(graph: Graph, kind: str) -> float:
    """Population standard deviation of the Laplacian spectrum, from traces.

    With d the degree vector, ``n^2 var = n tr L^2 - (tr L)^2``.  For the
    raw kind ``tr L = sum d`` and ``tr L^2 = sum d^2 + sum d``, so
    ``n^2 var`` is an integer and is computed exactly.  For the normalized
    kind ``tr N = k``, the number of non-isolated vertices, and
    ``tr N^2 = k + 2 S`` with ``S`` the sum over edges of
    ``1 / (d_i d_j)``; both ``k (n - k)`` and ``S`` are nonnegative.
    Equals :func:`spectrum_std` of the eigenvalues up to the solver's
    round-off; no eigensolve is run.
    """
    _check_kind(kind)
    n, degrees = graph.n, graph.degrees
    if kind == RAW:
        total = int(degrees.sum())
        n2_var = n * (int((degrees * degrees).sum()) + total) - total * total
    else:
        k = int(np.count_nonzero(degrees))
        i, j = graph.edge_array[:, 0], graph.edge_array[:, 1]
        inverse_products = float(np.sum(1.0 / (degrees[i] * degrees[j])))
        n2_var = n * k - k * k + 2 * n * inverse_products
    return math.sqrt(n2_var) / n


def zero_multiplicity(spectrum: Spectrum) -> int:
    """Number of eigenvalues equal to 0 within ``ZERO_TOL_FACTOR * n``."""
    tol = ZERO_TOL_FACTOR * spectrum.n
    return int(np.count_nonzero(np.abs(spectrum.values) <= tol))
