"""Edge filtration of a symmetric matrix and graph snapshots along it.

A symmetric matrix induces a total order on the C(n, 2) unordered vertex
pairs: pairs are sorted by increasing entry value, ties broken
lexicographically by (i, j).  Truncating the order after m edges yields a
simple graph; sweeping m from 0 to C(n, 2) produces an increasing family
of graphs that starts at the edgeless graph and ends at the complete
graph.  Diagonal entries are never consulted.

One snapshot needs only to know which m pairs come first, not the order
of all of them: :func:`graph_at_density` selects them from the matrix
with one partition of the entries above the diagonal, no sort.

A sweep over many edge counts sorts once.  The order is one sort of the
C(n, 2) entries above the diagonal: numpy's default (SIMD) ``argsort``,
whose order within a run of equal entries is arbitrary, followed by an
exact repair that re-sorts only the positions of such runs by pair index
(see :func:`build_filtration`).  A stable sort gives the same order at
about three times the cost.

A filtration is held as its rank matrix R, the inverse of that sort:
``R[i, j] = R[j, i]`` is the position of pair (i, j) in the order, and
the diagonal holds C(n, 2), past every position.  The snapshot after m
edges is the graph with adjacency ``R < m``.  The connectivity index,
the fewest edges after which the snapshot is connected, is one more than
the largest rank in the minimum spanning tree of R; the filtration finds
it on first use and keeps it (:attr:`EdgeFiltration.connectivity_index`).
The pairs listed in that order, which the width curve walks, are derived
from R the same way, on first use (:attr:`EdgeFiltration.pair_order`).

Filtrations and snapshots are built only here, by :func:`build_filtration`,
by thresholding its rank matrix and by :func:`graph_at_density`'s
selection, so their constructors take what the library computes and
check nothing.

All arithmetic on edge counts is integer arithmetic; converting a target
density p to an edge count rounds half up (see
:func:`edge_count_at_density`).
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

__all__ = [
    "EdgeFiltration",
    "Graph",
    "build_filtration",
    "edge_count_at_density",
    "graph_at_density",
    "stream_prefixes",
]

# the int32 rank matrix holds C(n, 2), past every rank, up to this n
MAX_N = 65_536


class EdgeFiltration:
    """Total order on all C(n, 2) vertex pairs of an n-vertex set.

    ``rank`` is the read-only int32 rank matrix: ``rank[i, j]`` and
    ``rank[j, i]`` hold k when the pair (i, j) is inserted at step k + 1,
    and the diagonal holds C(n, 2).  The constructor takes ownership of
    ``rank`` and makes it read-only.
    """

    def __init__(self, rank: np.ndarray):
        rank.setflags(write=False)
        self.n = rank.shape[0]
        self.rank = rank

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @functools.cached_property
    def connectivity_index(self) -> int:
        """Smallest edge count m whose prefix graph is connected.

        The prefix of m edges is connected exactly when every edge of the
        minimum spanning tree of the rank matrix has rank below m, so the
        index is one more than the largest tree rank; the complete graph
        is connected, so there always is one.  The tree is grown by Prim's
        algorithm in n - 1 vectorised steps, O(n^2) in all, on first use.
        """
        total = self.total_pairs
        # reach[v]: the lowest rank of a pair joining v to the tree; the tree's
        # own vertices keep C(n, 2), above every rank, so argmin never picks one
        reach = self.rank[0].copy()
        outside = np.ones(self.n, dtype=bool)
        outside[0] = False
        largest = 0
        for _ in range(self.n - 1):
            v = int(np.argmin(reach))
            largest = max(largest, int(reach[v]))
            reach[v] = total
            outside[v] = False
            np.minimum(reach, self.rank[v], out=reach, where=outside)
        return largest + 1

    @functools.cached_property
    def pair_order(self) -> np.ndarray:
        """The pairs in filtration order, as a read-only (2, C(n, 2)) array.

        Column k holds the pair (i, j), i < j, inserted at step k + 1, so
        the edges added between the prefixes of a and b edges are the
        columns a..b - 1.  Derived from ``rank`` on first use by one
        scatter of the upper triangle's pairs to their ranks, O(C(n, 2));
        only the width curve asks for it, so other sweeps never hold it.
        """
        i, j = np.triu_indices(self.n, k=1)
        position = self.rank[i, j]
        order = np.empty((2, self.total_pairs), dtype=np.intp)
        order[0, position] = i
        order[1, position] = j
        order.setflags(write=False)
        return order

    def __repr__(self) -> str:
        return f"EdgeFiltration(n={self.n}, pairs={self.total_pairs})"


class Graph:
    """Immutable snapshot of a filtration prefix: n vertices, m edges.

    Holds the read-only boolean adjacency matrix (symmetric, False on the
    diagonal), its read-only int32 degree vector and the edge count, half
    the degree sum.  The constructor takes ownership of ``adjacency`` and
    makes it read-only.  ``derived`` is where :mod:`specfilt.spectra`
    keeps what it computes from the snapshot (its raw certificate and its
    twin classes), so that every kind asked of it shares one analysis.
    """

    def __init__(self, adjacency: np.ndarray):
        # a 32-bit row sum takes about half the time of count_nonzero and
        # holds any degree below 2**31
        degrees = adjacency.sum(axis=1, dtype=np.int32)
        adjacency.setflags(write=False)
        degrees.setflags(write=False)
        self.n = adjacency.shape[0]
        self.adjacency = adjacency
        self.degrees = degrees
        # summed in 64 bits: a platform int of 32 bits would overflow
        # past a degree sum of 2**31, which MAX_N allows
        self.edge_count = int(degrees.sum(dtype=np.int64)) // 2
        self.derived = {}

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _upper_mask(n: int) -> np.ndarray:
    """The n x n boolean mask of the pairs i < j, built in one pass."""
    index = np.arange(n)
    return np.less.outer(index, index)


def build_filtration(matrix) -> EdgeFiltration:
    """Sort the vertex pairs of a symmetric matrix by increasing entry.

    Ties are broken lexicographically by (i, j), so the order is a
    deterministic function of the matrix; -0.0 and 0.0 are equal entries.
    The pairs are sorted by numpy's default ``argsort``, and each run of
    equal entries is then put in (i, j) order (:func:`_order_ties`); the
    result equals a stable sort of the entries listed in (i, j) order.
    Each pair's position in that sort is written straight into the rank
    matrix, which is int32: C(n, 2) fits for n up to ``MAX_N``.  Raises
    ``ValueError`` for a larger n, before allocating.
    """
    n = matrix.n
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds {MAX_N}: the int32 ranks cannot hold C(n, 2)")
    upper = _upper_mask(n)
    # the entries are read row by row, in (i, j) order, the order in
    # which boolean indexing by upper writes them back
    values = matrix.dense[upper]
    by_position = np.argsort(values)
    _order_ties(values[by_position], by_position)
    del values
    positions = np.empty(by_position.size, dtype=np.int32)
    positions[by_position] = np.arange(by_position.size, dtype=np.int32)
    rank = np.empty((n, n), dtype=np.int32)
    rank[upper] = positions
    rank.T[upper] = positions
    np.fill_diagonal(rank, by_position.size)
    return EdgeFiltration(rank)


def _order_ties(sorted_values: np.ndarray, rank: np.ndarray) -> None:
    """Sort each run of equal ``sorted_values`` by ``rank``, in place.

    Only the positions inside such runs are touched: they are sorted by
    the integer key ``run * size + rank``, which keeps every run in place
    and orders it by index.  A run holds at least two positions, so the
    key stays below size**2 / 2 + size and fits in int64 while size,
    C(n, 2), is below 2**32 (n below 92 000).
    """
    size = rank.size
    # same[k]: positions k - 1 and k hold equal values (False at both ends)
    same = np.zeros(size + 1, dtype=bool)
    same[1:-1] = sorted_values[1:] == sorted_values[:-1]
    tied = np.flatnonzero(same[:-1] | same[1:])
    # runs numbered from 1: a run starts where a value differs from the last
    offset = np.cumsum(~same[tied]) * size
    rank[tied] = np.sort(offset + rank[tied]) - offset


def _edge_counts(n: int, densities):
    # round(p * C(n, 2)) half up, for one density in [0, 1] or an array of them
    return np.floor(densities * (n * (n - 1) // 2) + 0.5).astype(np.int64)


def edge_count_at_density(n: int, density: float) -> int:
    """Edge count for a target density: round(p * C(n, 2)), half up."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return int(_edge_counts(n, density))


def graph_at_density(matrix, density: float) -> Graph:
    """Snapshot on the first ``m = round(p * C(n, 2))`` pairs of the
    matrix's order, selected without sorting.

    t, the m-th smallest entry above the diagonal, is found by one
    ``np.partition``.  The snapshot holds every pair whose entry is below
    t and the first ``m - #{entry < t}`` pairs whose entry equals t in
    (i, j) order, which are exactly the first m pairs of the (value, i, j)
    order: its adjacency equals ``build_filtration(matrix).rank < m``.
    Raises ``ValueError`` for a density outside [0, 1].
    """
    n = matrix.n
    m = edge_count_at_density(n, density)
    upper = _upper_mask(n)
    values = matrix.dense[upper]
    if m == 0:
        return Graph(np.zeros((n, n), dtype=bool))
    values.partition(m - 1)
    t = values[m - 1]
    # every entry below t lies before position m - 1
    below = np.count_nonzero(values[:m - 1] < t)
    if below + np.count_nonzero(values == t) == m:  # every tie at t is in
        adjacency = matrix.dense <= t
    else:
        adjacency = matrix.dense < t
        tied = matrix.dense == t
        tied &= upper
        # nonzero lists the tied pairs row by row, in (i, j) order
        i, j = (ends[:m - below] for ends in np.nonzero(tied))
        adjacency[i, j] = True
        adjacency[j, i] = True
    np.fill_diagonal(adjacency, False)
    return Graph(adjacency)


def stream_prefixes(filtration: EdgeFiltration, checkpoints):
    """Iterate graph snapshots at the given edge counts.

    ``checkpoints`` must be non-decreasing integers in [0, C(n, 2)];
    anything else raises ``ValueError`` before the first snapshot.  The
    graph at m edges equals :func:`graph_at_density` of the filtration's
    matrix at density ``m / C(n, 2)``; the costly sort is shared across
    all checkpoints.
    """
    counts = []
    for c in checkpoints:
        integral = isinstance(c, numbers.Integral) or (
            isinstance(c, numbers.Real) and float(c).is_integer())
        if isinstance(c, bool) or not integral:
            raise ValueError("checkpoints must be integers")
        counts.append(int(c))
    total = filtration.total_pairs
    if counts != sorted(counts):
        raise ValueError("checkpoints must be sorted")
    if counts and (counts[0] < 0 or counts[-1] > total):
        raise ValueError(f"checkpoints must lie in [0, {total}]")
    return (Graph(filtration.rank < m) for m in counts)

