"""Edge filtration of a symmetric matrix and graph snapshots along it.

A symmetric matrix induces a total order on the C(n, 2) unordered vertex
pairs: pairs are sorted by increasing entry value, ties broken
lexicographically by (i, j).  Truncating the order after m edges yields a
simple graph; sweeping m from 0 to C(n, 2) produces an increasing family
of graphs that starts at the edgeless graph and ends at the complete
graph.  Diagonal entries are never consulted.

The order is one sort of the C(n, 2) entries above the diagonal: numpy's
default (SIMD) ``argsort``, whose order within a run of equal entries is
arbitrary, followed by an exact repair that re-sorts only the positions
of such runs by pair index (see :func:`build_filtration`).  A stable
sort gives the same order at about three times the cost.

Vertex pairs are checked where they enter, in :class:`EdgeFiltration`
and the public :class:`Graph` constructor; snapshots of a filtration are
unchecked read-only views of a prefix of its order, sharing its memory.

All arithmetic on edge counts is integer arithmetic; converting a target
density p to an edge count rounds half up (see
:func:`edge_count_at_density`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeFiltration",
    "Graph",
    "Partition2",
    "UNASSIGNED",
    "SIDE_A",
    "SIDE_B",
    "build_filtration",
    "edge_count_at_density",
    "graph_at_density",
    "stream_prefixes",
    "count_components",
    "connectivity_index",
    "check_bipartite",
]

UNASSIGNED, SIDE_A, SIDE_B = 0, 1, 2


class EdgeFiltration:
    """Total order on all C(n, 2) vertex pairs of an n-vertex set.

    ``order[k]`` is the pair (i, j), i < j, inserted at step k + 1.  The
    constructor checks that ``order`` lists every pair exactly once.
    """

    def __init__(self, n: int, order):
        self.n = int(n)
        self.order = _checked_pairs(n, order)
        if self.total_pairs != n * (n - 1) // 2:
            raise ValueError("order must list every unordered pair exactly once")

    @property
    def total_pairs(self) -> int:
        return self.order.shape[0]

    def __repr__(self) -> str:
        return f"EdgeFiltration(n={self.n}, pairs={self.total_pairs})"


class Graph:
    """Immutable snapshot of a filtration prefix: n vertices, m edges.

    Stores the edge array and the degree vector; adjacency lists are
    built on first use.  The constructor checks ``edges``; snapshots of a
    filtration skip the check and share the memory of its ``order``.
    """

    def __init__(self, n: int, edges):
        self._attach(int(n), _checked_pairs(n, edges))

    def _attach(self, n: int, edges: np.ndarray) -> None:
        # edges: a read-only (m, 2) int64 array of distinct pairs i < j
        self.n = n
        self.edge_array = edges
        degrees = np.bincount(edges.ravel(), minlength=n)
        degrees.setflags(write=False)
        self.degrees = degrees
        self._adjacency: tuple[tuple[int, ...], ...] | None = None

    @property
    def edge_count(self) -> int:
        return self.edge_array.shape[0]

    @property
    def density(self) -> float:
        return self.edge_count / (self.n * (self.n - 1) // 2)

    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor tuples per vertex (cached after the first call)."""
        if self._adjacency is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for i, j in self.edge_array.tolist():
                adj[i].append(j)
                adj[j].append(i)
            self._adjacency = tuple(tuple(neigh) for neigh in adj)
        return self._adjacency

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edge_array}

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count}, density={self.density:.4g})"


def _checked_pairs(n: int, pairs) -> np.ndarray:
    """Read-only int64 (m, 2) copy of ``pairs`` if they are distinct pairs
    (i, j), 0 <= i < j < n, n >= 2; raises ``ValueError`` otherwise."""
    if n < 2:
        raise ValueError("a graph needs at least 2 vertices")
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    if pairs.size and (i.min() < 0 or j.max() >= n or not (i < j).all()):
        raise ValueError("pairs must be stored as (i, j) with 0 <= i < j < n")
    # n * n bytes: an eighth of the dense Laplacian of an n-vertex graph
    seen = np.zeros(n * n, dtype=bool)
    seen[i * n + j] = True
    if np.count_nonzero(seen) != pairs.shape[0]:
        raise ValueError("duplicate pair")
    pairs.setflags(write=False)
    return pairs


def _prefix(filtration: EdgeFiltration, m: int) -> Graph:
    # the order was checked when the filtration was built
    graph = Graph.__new__(Graph)
    graph._attach(filtration.n, filtration.order[:m])
    return graph


def build_filtration(matrix) -> EdgeFiltration:
    """Sort the vertex pairs of a symmetric matrix by increasing entry.

    Ties are broken lexicographically by (i, j), so the order is a
    deterministic function of the matrix; -0.0 and 0.0 are equal entries.
    The pairs are sorted by numpy's default ``argsort``, and each run of
    equal entries is then put in (i, j) order (:func:`_order_ties`); the
    result equals a stable sort of the entries listed in (i, j) order.
    ``order`` is int64, the index type numpy's ``bincount`` and fancy
    indexing work in.  Raises ``ValueError`` if any consulted entry is NaN.
    """
    n = matrix.n
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    # the entries are read row by row, in (i, j) order; flat holds the
    # index i * n + j of each pair, in filtration order
    flat = np.flatnonzero(upper)[_ranks(matrix.dense[upper])]
    order = np.empty((flat.size, 2), dtype=np.int64)
    np.divmod(flat, n, out=(order[:, 0], order[:, 1]))
    return EdgeFiltration(n, order)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` ascending, equal values by index."""
    if np.isnan(values).any():
        raise ValueError("matrix contains NaN entries")
    rank = np.argsort(values)
    _order_ties(values[rank], rank)
    return rank


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


def edge_count_at_density(n: int, density: float) -> int:
    """Edge count for a target density: round(p * C(n, 2)), half up."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    total = n * (n - 1) // 2
    return int(math.floor(density * total + 0.5))


def graph_at_density(filtration: EdgeFiltration, density: float) -> Graph:
    """Snapshot on the first ``round(p * C(n, 2))`` filtration edges."""
    return _prefix(filtration, edge_count_at_density(filtration.n, density))


def stream_prefixes(filtration: EdgeFiltration, checkpoints):
    """Iterate graph snapshots at the given edge counts.

    ``checkpoints`` must be non-decreasing integers in
    [0, C(n, 2)].  Each yielded graph equals the corresponding
    :func:`graph_at_density` result; the costly sort is shared across
    all checkpoints.
    """
    counts = []
    for c in checkpoints:
        if isinstance(c, bool) or int(c) != c:
            raise ValueError("checkpoints must be integers")
        counts.append(int(c))
    total = filtration.total_pairs
    if counts != sorted(counts):
        raise ValueError("checkpoints must be sorted")
    if counts and (counts[0] < 0 or counts[-1] > total):
        raise ValueError(f"checkpoints must lie in [0, {total}]")
    return (_prefix(filtration, m) for m in counts)


class _DisjointSet:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def count_components(graph: Graph) -> int:
    """Number of connected components, via union-find."""
    ds = _DisjointSet(graph.n)
    merges = 0
    for i, j in graph.edge_array.tolist():
        merges += ds.union(i, j)
    return graph.n - merges


# pairs converted to Python ints at a time, so that the pass never holds
# the whole prefix (about C(n, 2)/2 pairs) as Python ints
_BLOCK = 256


def connectivity_index(filtration: EdgeFiltration, limit: int) -> int | None:
    """Smallest edge count m <= ``limit`` whose prefix graph is connected.

    One union-find pass along ``order``, stopping at the edge that leaves
    one component.  Returns ``None`` when the prefix of ``limit`` edges is
    still disconnected.  ``limit`` must lie in [0, C(n, 2)].
    """
    if not 0 <= limit <= filtration.total_pairs:
        raise ValueError(f"limit must lie in [0, {filtration.total_pairs}]")
    ds = _DisjointSet(filtration.n)
    components = filtration.n
    for start in range(0, limit, _BLOCK):
        block = filtration.order[start:min(start + _BLOCK, limit)].tolist()
        for m, (i, j) in enumerate(block, start + 1):
            components -= ds.union(i, j)
            if components == 1:
                return m
    return None


@dataclass(frozen=True)
class Partition2:
    """Result of a two-coloring attempt.

    ``side[v]`` is ``SIDE_A`` or ``SIDE_B`` for vertices in components
    that were completely two-colored, ``UNASSIGNED`` otherwise.  When
    ``bipartite`` is False the labels of the components completed before
    the first conflict are retained.
    """

    side: np.ndarray
    bipartite: bool

    def vertices_on(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.side == label)


def check_bipartite(graph: Graph) -> Partition2:
    """Breadth-first two-coloring, one component at a time."""
    side = np.zeros(graph.n, dtype=np.int8)
    adj = graph.adjacency_lists()
    for start in range(graph.n):
        if side[start] != UNASSIGNED:
            continue
        members = [start]
        side[start] = SIDE_A
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] == UNASSIGNED:
                    side[w] = SIDE_A + SIDE_B - side[u]
                    members.append(w)
                    queue.append(w)
                elif side[w] == side[u]:
                    side[np.array(members)] = UNASSIGNED
                    side.setflags(write=False)
                    return Partition2(side=side, bipartite=False)
    side.setflags(write=False)
    return Partition2(side=side, bipartite=True)
