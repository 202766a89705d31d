"""Graph Laplacians and eigenvalue statistics.

Two Laplacians are supported for a graph snapshot:

* raw:        ``L = D - A`` with D the diagonal degree matrix;
* normalized: ``D^{-1/2} L D^{-1/2}``, whose spectrum lies in [0, 2].

An isolated vertex would make the normalized form divide by zero; its
row and column are stored as zero instead, contributing one zero
eigenvalue.  With that convention the multiplicity of the eigenvalue 0
equals the number of connected components for both kinds, throughout the
whole filtration.  A spectrum's width is :func:`spectrum_std` of its
eigenvalues; the width curve takes it from traces instead, with no
Laplacian built (:mod:`specfilt.curves`).

A raw spectrum is first certified from the snapshot's degrees
(:func:`laplacian`).  A threshold graph, one that can be emptied by
removing isolated or dominating vertices one at a time, has the
conjugate degree sequence ``d*_k = #{i : d_i >= k}``, k = 1..n, as its
raw spectrum (Merris 1994), and that sequence also decides whether a
graph is threshold: with the degrees sorted as d_(1) >= d_(2) >= ...,
it is exactly when ``d*_k = d_(k) + 1`` for every k with d_(k) >= k
(Hammer, Ibaraki and Simeone 1981; Merris 1994).  A graph whose
complement is a disjoint union of threshold graphs (a join of threshold
graphs, such as a rank-one Wishart snapshot past its bipartite stage)
has the raw spectrum 0 together with ``n - mu``, mu running over the
complement's spectrum without one 0.  The complement of a threshold graph
is threshold, so one test certifies both: each component of the
complement must pass it.  Either way all n eigenvalues are integers,
computed exactly, and nothing is solved.

Every other snapshot's spectrum is solved over its twin classes
(:func:`laplacian`): vertices with equal open neighbourhoods (false twins)
or equal closed ones (true twins).  Each class of size s gives s - 1
eigenvalues exactly, and the rest come from a dense symmetric
decomposition (``numpy.linalg.eigvalsh``, LAPACK's tridiagonalization
plus implicitly shifted iteration) of the q x q quotient over the q
classes, assembled in one array from the snapshot's boolean adjacency
and degree vector.  A graph without twins is the case q = n: its
quotient is the full Laplacian, each normalized entry one rounding of
``-1 / sqrt(d_i * d_j)``.  The kind is checked once, by
:func:`laplacian`, and the quotient carries it: :func:`eigenvalues`
validates the results against the theoretical range of that kind and
then clamps them into it; violations beyond the tolerance band raise
:class:`NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "TwinQuotient",
    "laplacian",
    "eigenvalues",
    "spectral_gap",
    "spectrum_histogram",
    "spectrum_std",
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

    The message states the magnitude of a range violation.  ``density``
    is None where the error is raised; :mod:`specfilt.curves` sets it on
    the way out of a sweep or snapshot, to locate the offending snapshot.
    """

    density: float | None = None


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _kind_range(kind: str, n: int) -> tuple[float, float]:
    """The theoretical range of a Laplacian spectrum on n vertices:
    [0, n] for the raw kind, [0, 2] for the normalized kind."""
    return (0.0, float(n)) if kind == RAW else (0.0, 2.0)


def _twin_classes(graph: Graph):
    """Twin classes of a snapshot, exactly, in the order of their first
    vertices.

    Vertices are false twins when their open neighbourhoods are equal and
    true twins when their closed ones are.  A vertex with a false twin has
    no true twin (a true twin w of u would be a neighbour of u's false
    twin v, so v would lie in N[w] = N[u]), so each vertex belongs to one
    class: its open class if that has another member, its closed class
    otherwise.  Rows are compared as packed bits, by ``np.unique`` over
    void rows, so no n x n copy is made and no hash can collide.

    Returns ``(label, first, size, true_twin)``: the class of each vertex,
    and for each of the q classes its first vertex (ascending, so a graph
    without twins has ``first = arange(n)``), its size and whether its
    members are true twins.
    """
    n = graph.n
    packed = np.packbits(graph.adjacency, axis=1)
    row = np.dtype((np.void, packed.shape[1]))
    _, open_first, open_class, open_size = np.unique(
        packed.view(row).ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    vertex = np.arange(n)
    packed[vertex, vertex >> 3] |= (0x80 >> (vertex & 7)).astype(np.uint8)
    _, closed_first, closed_class = np.unique(
        packed.view(row).ravel(), return_index=True, return_inverse=True)
    false_twin = open_size[open_class] > 1
    # each vertex names its class by the class's first vertex
    leader = np.where(false_twin, open_first[open_class], closed_first[closed_class])
    first, label, size = np.unique(leader, return_inverse=True, return_counts=True)
    return label, first, size, ~false_twin[first]


def _conjugate(degrees: np.ndarray) -> np.ndarray:
    """The conjugate sequence ``d*_k = #{i : d_i >= k}``, k = 1..n."""
    tally = np.bincount(degrees, minlength=degrees.size + 1)
    return np.cumsum(tally[::-1])[::-1][1:]


def _integral_raw_spectrum(graph: Graph) -> np.ndarray | None:
    """The raw spectrum of a threshold graph, or of a graph whose complement
    is a disjoint union of threshold graphs, as n integers in no order;
    None for any other graph.

    The complement of a threshold graph is threshold, so both cases are
    one: the complement's components are taken one at a time.  The
    remaining vertex of largest complement degree, with the remaining
    vertices it is not joined to, is a whole threshold component exactly
    when none of its members has a complement-neighbour outside it (a
    connected threshold graph has a dominating vertex, of the largest
    degree) and the complement degrees d on it, sorted as
    d_(1) >= d_(2) >= ..., meet ``d*_k = d_(k) + 1`` for every k with
    d_(k) >= k.  A component's spectrum is that conjugate sequence d*,
    and with L + L' = nI - J for a graph and its complement, the graph's
    is 0 together with n - mu, mu running over the components' conjugate
    sequences without one 0.  Each test is exact and integer, O(n^2) at
    worst.
    """
    n, degrees = graph.n, graph.degrees
    co_degree = n - 1 - degrees
    remaining = co_degree > 0  # a vertex of complement degree 0 is a component alone
    parts = [np.zeros(n - np.count_nonzero(remaining), dtype=degrees.dtype)]
    while remaining.any():
        v = int(np.argmax(np.where(remaining, co_degree, -1)))
        members = remaining & ~graph.adjacency[v]
        inner = co_degree[members]
        conjugate = _conjugate(inner)
        ordered = np.sort(inner)[::-1]
        f = np.count_nonzero(ordered > np.arange(ordered.size))  # d_(k) >= k
        if (conjugate[:f] != ordered[:f] + 1).any():
            return None  # not threshold
        block = graph.adjacency.compress(members, 0).compress(members, 1)
        joined = np.count_nonzero(block, axis=1)
        if (inner.size - 1 - joined != inner).any():
            return None  # a member has a complement-neighbour outside
        parts.append(conjugate)
        remaining &= ~members
    spectrum = n - np.concatenate(parts)
    # one mu = 0 is the complement's on the all-ones vector, where L has 0
    spectrum[np.argmax(spectrum)] = 0
    return spectrum


@dataclass(frozen=True)
class TwinQuotient:
    """A Laplacian of one kind, reduced over the twin classes of its graph.

    ``kind`` is the kind :func:`laplacian` checked and built it as, and
    sets the range :func:`eigenvalues` checks and clamps into.  ``dense``
    is the read-only symmetric q x q quotient over the q classes, whose
    eigenvalues are the rest of the spectrum; ``exact`` holds the n - q
    eigenvalues the classes give exactly.  With no twins (q = n),
    ``dense`` is the full Laplacian in vertex order and ``exact`` is
    empty.  A raw Laplacian whose spectrum is certified from the degrees
    has q = 0: ``dense`` is 0 x 0 and ``exact`` holds all n eigenvalues,
    integers.
    """

    kind: str
    dense: np.ndarray
    exact: np.ndarray

    @property
    def n(self) -> int:
        return self.dense.shape[0] + self.exact.size


def laplacian(graph: Graph, kind: str) -> TwinQuotient:
    """Laplacian of the given kind, reduced over the graph's twin classes.

    The kind is checked here, once, and carried by the quotient.

    A raw Laplacian is first certified: when the graph is threshold, or
    its complement is a disjoint union of threshold graphs, its whole
    spectrum is known exactly from degrees and complement components
    (:func:`_integral_raw_spectrum`) and the quotient is empty (q = 0).

    Otherwise, between two twin classes the edges are all present or all
    absent, and the degree d is constant on a class, so a class of size s
    gives s - 1 eigenvalues exactly, on vectors that sum to 0 over it: d
    for false twins and d + 1 for true twins (raw); 1 and (d + 1) / d,
    one division (normalized); 0 for isolated vertices (both).  The rest
    of the spectrum is that of the symmetric quotient ``diag(d) - B``,
    with ``B_ij = sqrt(s_i s_j)`` for joined classes i != j and
    ``B_ii = s_i - 1`` for a true-twin class (0 otherwise), scaled by
    ``1 / sqrt(d)`` on both sides for the normalized kind (Brouwer and
    Haemers, *Spectra of Graphs*, on equitable partitions).

    Off the diagonal the quotient is the Laplacian's entry between the
    classes' first vertices, -1 (raw) or one rounding of
    ``-1 / sqrt(d_i d_j)`` (normalized), times ``sqrt(s_i)`` and then
    ``sqrt(s_j)``.  Both factors are exactly 1.0 for classes of one
    vertex, so a graph without twins gets its full Laplacian in vertex
    order, bit for bit.
    """
    _check_kind(kind)
    if kind == RAW:
        certified = _integral_raw_spectrum(graph)
        if certified is not None:
            mat = np.zeros((0, 0))
            mat.setflags(write=False)
            exact = certified.astype(float)
            exact.setflags(write=False)
            return TwinQuotient(kind, mat, exact)
    _, first, size, true_twin = _twin_classes(graph)
    degree = graph.degrees[first]
    joins = graph.adjacency.take(first, 0).take(first, 1)
    twin_value = (degree + true_twin).astype(float)
    diagonal = (degree - (size - 1) * true_twin).astype(float)
    if kind == RAW:
        # 0.0 - 1.0 on the joins and 0.0 - 0.0 elsewhere, so no entry is -0.0
        mat = np.subtract(0.0, joins, dtype=float)
    else:
        # an isolated class has no joins, so the 1 standing in for its
        # degree is masked away with the other non-joins
        scale = np.maximum(degree, 1).astype(float)
        mat = np.multiply.outer(scale, scale)
        np.sqrt(mat, out=mat)
        np.divide(-1.0, mat, out=mat)
        mat *= joins
        mat += 0.0  # the masked entries are -0.0
        diagonal /= scale
        np.divide(twin_value, degree, out=twin_value, where=degree > 0)
    root = np.sqrt(size)
    mat *= root[:, None]
    mat *= root
    np.fill_diagonal(mat, diagonal)
    mat.setflags(write=False)
    exact = np.repeat(twin_value, size - 1)
    exact.setflags(write=False)
    return TwinQuotient(kind, mat, exact)


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of one Laplacian, ascending; ``n`` is their count.

    ``values`` are read-only and clamped into the theoretical range of
    their kind, the kind of the quotient they were solved from;
    ``pre_clamp_min`` / ``pre_clamp_max`` record the extreme eigenvalues
    as the solver returned them.  Only :func:`eigenvalues` builds one: it
    sorts and clamps, so the constructor checks nothing.
    """

    kind: str
    values: np.ndarray
    pre_clamp_min: float
    pre_clamp_max: float

    @property
    def n(self) -> int:
        return self.values.size


def eigenvalues(matrix: TwinQuotient) -> Spectrum:
    """Full spectrum of a Laplacian, of the kind its quotient carries.

    ``matrix`` comes from :func:`laplacian`: its quotient is solved and
    its exact eigenvalues are merged in, so all n eigenvalues are
    returned.  They are ascending and clamped into [0, n] for the raw
    kind, [0, 2] for the normalized kind.  Values outside the range by
    more than ``CLAMP_TOL_FACTOR * n``, and raw spectra whose smallest
    eigenvalue is not 0 within the same band, raise
    :class:`NumericalError`.
    """
    kind, n = matrix.kind, matrix.n
    try:
        values = np.linalg.eigvalsh(matrix.dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    # with no twins exact is empty and the solver's ascending values sort to themselves
    values = np.sort(np.concatenate([values, matrix.exact]))
    lo, hi = _kind_range(kind, n)
    band = CLAMP_TOL_FACTOR * n
    violation = max(lo - values[0], values[-1] - hi, 0.0)
    if violation > band:
        raise NumericalError(
            f"{kind} eigenvalues leave [{lo:g}, {hi:g}] by {violation:.3e}")
    if kind == RAW and values[0] > band:
        raise NumericalError(
            f"smallest raw Laplacian eigenvalue must be 0, not {values[0]:.3e}")
    clamped = np.clip(values, lo, hi)
    clamped.setflags(write=False)
    return Spectrum(
        kind=kind,
        values=clamped,
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
    """Counts of eigenvalues over uniform bins; ``total`` is their sum."""

    bin_edges: np.ndarray
    counts: np.ndarray

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
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def spectrum_histogram(spectrum: Spectrum, bins: int = DEFAULT_BINS) -> Histogram:
    """Histogram of a spectrum over uniform bins on its theoretical range.

    The range is [0, n] for raw spectra and [0, 2] for normalized ones.
    :func:`eigenvalues` has clamped the values into it, so every
    eigenvalue lands in exactly one bin and the counts sum to n.
    """
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError("bins must be a positive integer")
    counts, edges = np.histogram(spectrum.values, bins=int(bins),
                                 range=_kind_range(spectrum.kind, spectrum.n))
    return Histogram(bin_edges=edges, counts=counts)


def spectrum_std(spectrum: Spectrum) -> float:
    """Population standard deviation of the eigenvalue distribution."""
    if spectrum.values.size < 1:
        raise ValueError("empty spectrum")
    return float(np.std(spectrum.values))


def zero_multiplicity(spectrum: Spectrum) -> int:
    """Number of eigenvalues equal to 0 within ``ZERO_TOL_FACTOR * n``."""
    tol = ZERO_TOL_FACTOR * spectrum.n
    return int(np.count_nonzero(np.abs(spectrum.values) <= tol))
