"""Edge filtration of a symmetric matrix and graph snapshots along it.

A symmetric matrix induces a total order on the C(n, 2) unordered vertex
pairs: pairs are sorted by increasing entry value, ties broken
lexicographically by (i, j).  Truncating the order after m edges yields a
simple graph; sweeping m from 0 to C(n, 2) produces an increasing family
of graphs that starts at the edgeless graph and ends at the complete
graph.  Diagonal entries are never consulted.

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
    deterministic function of the matrix.  Raises ``ValueError`` if any
    consulted entry is NaN.
    """
    n = matrix.n
    i, j = np.triu_indices(n, k=1)
    values = matrix.dense[i, j]
    if np.isnan(values).any():
        raise ValueError("matrix contains NaN entries")
    # triu_indices lists the pairs in (i, j) order, which a stable sort keeps
    rank = np.argsort(values, kind="stable")
    return EdgeFiltration(n, np.column_stack([i[rank], j[rank]]))


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
