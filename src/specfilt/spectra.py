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

Every other spectrum is solved over the snapshot's twin classes
(:func:`laplacian`): vertices with equal open neighbourhoods (false twins)
or equal closed ones (true twins).  A snapshot is analysed once, whatever
kinds are asked of it: its certificate, computed only for a raw quotient,
and its twin classes are kept on the :class:`~specfilt.filtration.Graph`.
A certified snapshot's classes are read off its certificate (vertices of
one complement component with one degree); any other's come from one
comparison of packed adjacency rows.  Each class of size s gives s - 1
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

# |lam| <= CLAMP_TOL_FACTOR * n counts as the eigenvalue zero, and values
# within CLAMP_TOL_FACTOR * n of the theoretical range are clamped into it.
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


def _integral_raw_spectrum(graph: Graph) -> tuple[np.ndarray, np.ndarray] | None:
    """The raw spectrum of a threshold graph, or of a graph whose complement
    is a disjoint union of threshold graphs, as n integers in no order,
    with the complement component of each vertex; None for any other graph.

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
    worst.  Components are numbered from 1 in the order they are found;
    the vertices isolated in the complement, each a component alone,
    share the number 0.
    """
    n, degrees = graph.n, graph.degrees
    co_degree = n - 1 - degrees
    remaining = co_degree > 0  # a vertex of complement degree 0 is a component alone
    parts = [np.zeros(n - np.count_nonzero(remaining), dtype=degrees.dtype)]
    component = np.zeros(n, dtype=np.intp)
    while remaining.any():
        v = int(np.argmax(np.where(remaining, co_degree, -1)))
        members = remaining & ~graph.adjacency[v]
        inner = co_degree[members]
        conjugate = _conjugate(inner)
        ordered = np.sort(inner)[::-1]
        f = np.count_nonzero(ordered > np.arange(ordered.size))  # d_(k) >= k
        if (conjugate[:f] != ordered[:f] + 1).any():
            return None  # not threshold
        # a member's complement degree is at least its count of members it
        # is not joined to, so the sums are equal exactly when every
        # member's complement-neighbours lie inside
        joined = np.count_nonzero(graph.adjacency.compress(members, 0) & members)
        if int(inner.sum(dtype=np.int64)) != inner.size * (inner.size - 1) - joined:
            return None  # a member has a complement-neighbour outside
        component[members] = len(parts)
        parts.append(conjugate)
        remaining &= ~members
    spectrum = n - np.concatenate(parts)
    # one mu = 0 is the complement's on the all-ones vector, where L has 0
    spectrum[np.argmax(spectrum)] = 0
    return spectrum, component


def _certified_classes(graph: Graph, component: np.ndarray):
    """The twin classes of a certified snapshot, read off its certificate,
    in the form and order of :func:`_twin_classes`.

    In a threshold graph two vertices of equal degree are twins (Merris
    1994), and twins in the complement are twins in the graph, so each
    class is the vertices of one complement component with one degree;
    the vertices isolated in the complement, joined to every other, form
    one class of true twins.  Vertices of two components are never twins:
    their complement neighbourhoods, within their own components, are not
    empty.  A class's members are all joined or all apart, so a class of
    two or more is a true-twin class exactly when its first two members
    are joined.  Two sorts of n integers, and no row is compared.
    """
    n = graph.n
    key = component * n + graph.degrees
    _, key_first, key_class = np.unique(key, return_index=True, return_inverse=True)
    # each vertex names its class by the class's first vertex
    leader = key_first[key_class]
    first, label, size = np.unique(leader, return_inverse=True, return_counts=True)
    # every member past the first answers for its class alike; a class of
    # one vertex counts as true twins, as in _twin_classes
    others = np.flatnonzero(leader != np.arange(n))
    true_twin = np.ones(first.size, dtype=bool)
    true_twin[label[others]] = graph.adjacency[leader[others], others]
    return label, first, size, true_twin


def _certificate(graph: Graph):
    """:func:`_integral_raw_spectrum` of the snapshot, computed once."""
    derived = graph.derived
    if "certificate" not in derived:
        derived["certificate"] = _integral_raw_spectrum(graph)
    return derived["certificate"]


def _classes(graph: Graph):
    """The snapshot's twin classes, computed once: from its certificate
    when a raw quotient has certified it, by :func:`_twin_classes`
    otherwise.

    The classes are fixed when the first quotient of the graph is
    assembled, so the certificate gives them only where the raw quotient
    is assembled first, as in the kind order ``KINDS``; asked in the
    other order, a certified snapshot's classes come from the row search,
    alike.
    """
    derived = graph.derived
    if "classes" not in derived:
        certificate = derived.get("certificate")
        derived["classes"] = (_twin_classes(graph) if certificate is None
                              else _certified_classes(graph, certificate[1]))
    return derived["classes"]


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
    The certificate and the twin classes are computed at most once per
    graph and shared by its kinds; a graph certified by a raw quotient
    assembled before its first normalized one takes its classes from the
    certificate (:func:`_certified_classes`), any other from
    :func:`_twin_classes`.

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
        certificate = _certificate(graph)
        if certificate is not None:
            mat = np.zeros((0, 0))
            mat.setflags(write=False)
            exact = certificate[0].astype(float)
            exact.setflags(write=False)
            return TwinQuotient(kind, mat, exact)
    _, first, size, true_twin = _classes(graph)
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
    more than ``CLAMP_TOL_FACTOR * n``, and spectra whose smallest
    eigenvalue is not 0 within the same band, raise
    :class:`NumericalError`: the smallest eigenvalue of either kind is 0,
    on the constant vector (raw), on D^1/2 1 or on an isolated vertex's
    zero row (normalized).  A certified quotient (q = 0) calls no solver:
    its exact eigenvalues are only sorted.
    """
    kind, n = matrix.kind, matrix.n
    try:
        values = np.linalg.eigvalsh(matrix.dense) if matrix.dense.size else matrix.exact[:0]
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
    if values[0] > band:
        raise NumericalError(
            f"smallest {kind} Laplacian eigenvalue must be 0, not {values[0]:.3e}")
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
    disconnected (the eigenvalue 0 then has multiplicity >= 2).  Every
    spectrum has n >= 2 eigenvalues: every matrix has n >= 2.
    """
    return float(spectrum.values[1])


@dataclass(frozen=True)
class Histogram:
    """Counts of eigenvalues over uniform bins; ``total`` is their sum.

    Built by :func:`spectrum_histogram` (and by the CLI, which sums the
    counts of every draw's histogram on the same bins): ``bin_edges`` are
    the bins + 1 ascending edges over the kind's range, and ``counts``
    the nonnegative integer count of each bin.  The constructor takes
    ownership of both arrays, makes them read-only and checks nothing.
    """

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.bin_edges.setflags(write=False)
        self.counts.setflags(write=False)

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
    return float(np.std(spectrum.values))


def zero_multiplicity(spectrum: Spectrum) -> int:
    """Number of eigenvalues equal to 0 within ``CLAMP_TOL_FACTOR * n``."""
    tol = CLAMP_TOL_FACTOR * spectrum.n
    return int(np.count_nonzero(np.abs(spectrum.values) <= tol))
