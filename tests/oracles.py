"""Independent brute-force oracles used across the test suite.

Nothing here touches the library's eigensolver path.  Eigenvalues are
recomputed from scratch: exact characteristic polynomial of an integer
matrix (Berkowitz, division free), exact square-free factorization over
rationals (Yun's algorithm), then high-precision root finding with
mpmath on the simple-root factors.
Graph quantities (components, two-colouring, bipartite prefix, twin
classes, threshold peeling) use their own independent algorithms.
The Laplacians are also scattered from an edge list, a bit-for-bit
reference for the library's assembly from the adjacency matrix, and the
width of a spectrum is taken from an edge list's degrees, apart from the
library's streamed trace formula.  Hand-built filtrations and graphs
come from pair lists through :func:`filtration_from_order` and
:func:`graph_from_edges`, which check the pairs before handing the
library its own inputs.
Matrix CSVs are written, written curves read back, histogram bins looked
up and lines fitted here too, and the exact law of the Gaussian
filtration's no-isolated-vertex index is summed in Python integers.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from specfilt.filtration import EdgeFiltration, Graph

# ---------------------------------------------------------------------------
# exact polynomial helpers (dense coefficient lists, highest degree first)
# ---------------------------------------------------------------------------


def _poly_trim(p):
    k = 0
    while k < len(p) - 1 and p[k] == 0:
        k += 1
    return p[k:]


def _poly_monic(p):
    lead = p[0]
    return [c / lead for c in p]


def _poly_deriv(p):
    n = len(p) - 1
    if n == 0:
        return [Fraction(0)]
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(den)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(c != 0 for c in num):
        num = _poly_trim(num)
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[0] / den[0]
        quot[len(quot) - 1 - shift] = factor
        for k in range(len(den)):
            num[k] -= factor * den[k]
        num = num[1:] if num and num[0] == 0 else num
    rem = _poly_trim(num) if num else [Fraction(0)]
    return _poly_trim(quot), rem


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while len(b) > 1 or b[0] != 0:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _square_free_factors(p):
    """Yun's algorithm: exact factors [(poly, multiplicity)], each square-free."""
    p = _poly_monic(_poly_trim(list(p)))
    if len(p) == 1:
        return []
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    w, _ = _poly_divmod(p, g)
    y, _ = _poly_divmod(dp, g)
    factors = []
    i = 1
    while len(w) > 1:
        dw = _poly_deriv(w)
        z = [Fraction(0)] * max(len(y), len(dw))
        for k, c in enumerate(reversed(y)):
            z[len(z) - 1 - k] += c
        for k, c in enumerate(reversed(dw)):
            z[len(z) - 1 - k] -= c
        z = _poly_trim(z)
        gi = _poly_gcd(w, z)
        if len(gi) > 1:
            factors.append((gi, i))
        w, _ = _poly_divmod(w, gi)
        y, _ = _poly_divmod(z, gi)
        i += 1
    return factors


def _charpoly(matrix):
    """Exact characteristic polynomial by Berkowitz's division-free method.

    ``matrix`` is a square list of lists of ints; returns the integer
    coefficients of det(xI - A), highest degree first.  The polynomial of
    each leading principal block is the Toeplitz matrix of
    1, -a_kk, -R C, -R A C, ..., -R A^(k-1) C (A the block before, R and C
    the new row and column) times the polynomial of the block before.
    """
    coeffs = [1]
    for k in range(len(matrix)):
        row = matrix[k][:k]
        column = [matrix[i][k] for i in range(k)]
        toeplitz = [1, -matrix[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(row, column)))
            column = [sum(a * c for a, c in zip(matrix[i][:k], column)) for i in range(k)]
        coeffs = [sum(toeplitz[i - j] * coeffs[j]
                      for j in range(max(0, i - k - 1), min(i, k) + 1))
                  for i in range(k + 2)]
    return coeffs


def charpoly_eigenvalues(matrix, scale: int = 1) -> np.ndarray:
    """All eigenvalues (with multiplicity) of ``matrix / scale``, ascending.

    ``matrix`` is a square list of lists of ints.  Intended for matrices
    similar to a real symmetric one, so every root is real; a complex root
    triggers an assertion failure.  The roots are divided by ``scale``
    exactly, before any is found: coefficient k of the polynomial is
    divided by ``scale**k``.
    """
    coeffs = [Fraction(c, scale**k) for k, c in enumerate(_charpoly(matrix))]
    roots: list[float] = []
    with mpmath.workdps(50):
        for factor, multiplicity in _square_free_factors(coeffs):
            mp_coeffs = [
                mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in factor
            ]
            for root in mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=100):
                root = mpmath.mpc(root)
                assert abs(root.imag) < 1e-20, f"complex eigenvalue {root}"
                roots.extend([float(root.real)] * multiplicity)
    expected = len(matrix)
    assert len(roots) == expected, f"found {len(roots)} roots, wanted {expected}"
    return np.sort(np.array(roots))


def raw_laplacian_integers(graph):
    """Integer raw Laplacian of a Graph as a list of lists of ints."""
    n = graph.n
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = int(graph.degrees[i])
    for i, j in edges_of(graph):
        mat[i][j] = -1
        mat[j][i] = -1
    return mat


def normalized_similar_integers(graph):
    """An integer matrix and a scale l whose quotient has the spectrum of
    the normalized Laplacian.

    Row i of the raw Laplacian divided by deg(i) (zero row for isolated
    vertices) is similar to D^{-1/2} L D^{-1/2} on the non-isolated
    block, and both conventions put exact zero rows on isolated
    vertices, so the characteristic polynomials coincide.  Those rows
    times l, the least common multiple of the nonzero degrees, are
    integers.
    """
    degrees = [int(d) for d in graph.degrees]
    scale = math.lcm(*(d for d in degrees if d))
    return [[entry * (scale // d) if d else 0 for entry in row]
            for d, row in zip(degrees, raw_laplacian_integers(graph))], scale


# ---------------------------------------------------------------------------
# edge lists and edge-list Laplacians
# ---------------------------------------------------------------------------


def _edge_array(edges) -> np.ndarray:
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _checked_pairs(n, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Vertex arrays i, j of ``pairs``; raises ``ValueError`` unless n >= 2
    and the pairs are distinct with 0 <= i < j < n."""
    if n < 2:
        raise ValueError("a graph needs at least 2 vertices")
    pairs = _edge_array(pairs)
    i, j = pairs[:, 0], pairs[:, 1]
    if pairs.size and (i.min() < 0 or j.max() >= n or not (i < j).all()):
        raise ValueError("pairs must be stored as (i, j) with 0 <= i < j < n")
    if len(set(zip(i.tolist(), j.tolist()))) != i.size:
        raise ValueError("repeated pair")
    return i, j


def filtration_from_order(n, order) -> EdgeFiltration:
    """The filtration inserting ``order``, all C(n, 2) pairs (i, j), i < j,
    each once, in the given sequence."""
    i, j = _checked_pairs(n, order)
    total = n * (n - 1) // 2
    if i.size != total:
        raise ValueError("order must list every unordered pair exactly once")
    rank = np.full((n, n), total, dtype=np.int32)
    rank[i, j] = rank[j, i] = np.arange(total, dtype=np.int32)
    return EdgeFiltration(rank)


def graph_from_edges(n, edges) -> Graph:
    """The n-vertex graph on ``edges``, distinct pairs (i, j), i < j."""
    i, j = _checked_pairs(n, edges)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[i, j] = adjacency[j, i] = True
    return Graph(adjacency)


def order_of(filtration) -> np.ndarray:
    """The (C(n, 2), 2) array of pairs (i, j), i < j, in filtration order."""
    i, j = np.triu_indices(filtration.n, k=1)
    by_rank = np.argsort(filtration.rank[i, j])
    return np.column_stack([i[by_rank], j[by_rank]])


def edges_of(graph) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of a Graph, read from its adjacency."""
    i, j = np.nonzero(np.triu(graph.adjacency))
    return list(zip(i.tolist(), j.tolist()))


def raw_laplacian_scatter(n, edges) -> np.ndarray:
    """Raw Laplacian scattered from an edge list (i, j), i < j."""
    edges = _edge_array(edges)
    degrees = np.bincount(edges.ravel(), minlength=n)
    mat = np.zeros((n, n))
    if edges.size:
        i, j = edges[:, 0], edges[:, 1]
        mat[i, j] = -1.0
        mat[j, i] = -1.0
    mat[np.arange(n), np.arange(n)] = degrees.astype(float)
    return mat


def normalized_laplacian_scatter(n, edges) -> np.ndarray:
    """Normalized Laplacian scattered from an edge list (i, j), i < j,
    with zero rows for isolated vertices."""
    edges = _edge_array(edges)
    degrees = np.bincount(edges.ravel(), minlength=n).astype(float)
    mat = np.zeros((n, n))
    if edges.size:
        i, j = edges[:, 0], edges[:, 1]
        w = -1.0 / np.sqrt(degrees[i] * degrees[j])
        mat[i, j] = w
        mat[j, i] = w
    mat[np.arange(n), np.arange(n)] = (degrees > 0).astype(float)
    return mat


def laplacian_n2_variance(n, edges, kind) -> int | float:
    """n^2 times the variance of a Laplacian spectrum, ``n tr L^2 - (tr L)^2``,
    from the degrees of an edge list (i, j), i < j, alone.

    Raw: ``n (sum d^2 + sum d) - (sum d)^2``, an exact Python int.
    Normalized: ``n k - k^2 + 2 n S``, k the non-isolated vertices and S
    the ``math.fsum`` over the edges of ``1 / (d_i d_j)``, each term one
    rounding of the exact integer product.
    """
    edges = _edge_array(edges)
    degrees = np.bincount(edges.ravel(), minlength=n)
    if kind == "raw":
        total = int(degrees.sum())
        return n * (int((degrees * degrees).sum()) + total) - total * total
    k = int(np.count_nonzero(degrees))
    terms = 1.0 / (degrees[edges[:, 0]] * degrees[edges[:, 1]])
    return n * k - k * k + 2 * n * math.fsum(terms.tolist())


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------


def components_by_bfs(n, edges) -> int:
    """Connected components by plain breadth-first flood fill."""
    adj = {v: [] for v in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def twin_classes(n, edges) -> tuple[set[frozenset], set[frozenset]]:
    """Twin classes by comparing the neighbourhoods of every vertex pair.

    Vertices are twins when their open neighbourhoods are equal (false
    twins) or their closed ones are (true twins).  Returns the set of
    classes, which is a partition exactly when no vertex has twins of
    both kinds, and the set of classes of two or more true twins.
    """
    around = [{v} for v in range(n)]  # closed neighbourhoods
    for i, j in edges:
        around[i].add(j)
        around[j].add(i)

    def false_twins(u, v):
        return around[u] - {u} == around[v] - {v}

    def true_twins(u, v):
        return around[u] == around[v]

    classes = {frozenset(v for v in range(n) if false_twins(u, v) or true_twins(u, v))
               for u in range(n)}
    true = {c for c in classes if len(c) > 1
            and all(true_twins(u, v) for u in c for v in c)}
    return classes, true


def _peels_away(vertices, around) -> bool:
    """Whether the graph on ``vertices`` (neighbour sets ``around``) empties
    by removing, one at a time, a vertex isolated or dominating in what
    is left."""
    left = set(vertices)
    while left:
        for u in left:
            inside = around[u] & left
            if not inside or len(inside) == len(left) - 1:
                left.remove(u)
                break
        else:
            return False
    return True


def threshold_certified(n, edges) -> bool:
    """Whether a graph is threshold, or its complement is a disjoint union
    of threshold graphs, by peeling actual vertices.

    The graph itself is peeled first; then each component of the
    complement, found by flood fill over the non-edges, is peeled within
    the complement.
    """
    around = [set() for _ in range(n)]
    for i, j in edges:
        around[i].add(j)
        around[j].add(i)
    if _peels_away(range(n), around):
        return True
    apart = [set(range(n)) - around[v] - {v} for v in range(n)]
    unseen = set(range(n))
    while unseen:
        start = unseen.pop()
        component, stack = {start}, [start]
        while stack:
            for w in apart[stack.pop()] - component:
                component.add(w)
                stack.append(w)
        unseen -= component
        if not _peels_away(component, apart):
            return False
    return True


def two_colouring(n, edges) -> tuple[bool, list[int]]:
    """Breadth-first two-colouring, one component at a time.

    Returns (bipartite, side).  ``side[v]`` is 0 or 1 for the vertices of
    every component coloured without conflict and -1 for the others; the
    colouring stops at the first component that holds an odd cycle.
    """
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    side = [-1] * n
    for start in range(n):
        if side[start] != -1:
            continue
        members = [start]
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    members.append(w)
                    queue.append(w)
                elif side[w] == side[u]:
                    for v in members:
                        side[v] = -1
                    return False, side
    return True, side


def first_odd_cycle_index(order) -> int:
    """1-based index of the first edge that closes an odd cycle.

    Uses union-find with parity, entirely separate from the BFS
    two-colouring.  Returns len(order) + 1 when every prefix is
    bipartite.
    """
    n = int(np.max(order)) + 1 if len(order) else 0
    parent = list(range(n))
    parity = [0] * n

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        p = 0
        for v in reversed(path):
            p ^= parity[v]
            parent[v] = x
            parity[v] = p
        return x

    def parity_to_root(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return p

    for idx, (i, j) in enumerate(np.asarray(order).tolist(), start=1):
        ri, rj = find(i), find(j)
        pi, pj = parity_to_root(i), parity_to_root(j)
        if ri == rj:
            if pi == pj:
                return idx
        else:
            parent[ri] = rj
            parity[ri] = pi ^ pj ^ 1
    return len(order) + 1


def no_isolated_vertex_law(n: int, m: int) -> Fraction:
    """P(tau_1 <= m) in the random graph process on n vertices: the chance
    that m pairs drawn uniformly without replacement from the C(n, 2)
    leave no vertex isolated.  Inclusion-exclusion over the k vertices
    forced isolated, whose complement holds C(n - k, 2) pairs:
    sum_k (-1)^k C(n, k) C(C(n - k, 2), m) / C(C(n, 2), m)."""
    hits = sum((-1) ** k * math.comb(n, k) * math.comb(math.comb(n - k, 2), m)
               for k in range(n + 1))
    return Fraction(hits, math.comb(math.comb(n, 2), m))


def sorted_pairs_by_entry(dense) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, sorted by (entry, i, j) with python's sort."""
    n = dense.shape[0]
    triples = [
        (float(dense[i, j]), i, j) for i in range(n) for j in range(i + 1, n)
    ]
    triples.sort()
    return [(i, j) for _, i, j in triples]


# ---------------------------------------------------------------------------
# writing matrix files, reading written curves, locating histogram bins
# ---------------------------------------------------------------------------


def matrix_csv_rows(dense, render=repr) -> list[str]:
    """The lines of a matrix CSV, one per row, each cell as ``render``
    renders it; with ``repr``, parsing the file recovers every bit."""
    return [",".join(map(render, row)) for row in np.asarray(dense).tolist()]


def write_matrix_file(path, dense, render=repr) -> None:
    """Write a headerless matrix CSV, as ``--matrix`` reads it."""
    Path(path).write_text("".join(f"{row}\n" for row in matrix_csv_rows(dense, render)),
                          encoding="utf-8", newline="")


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a curve CSV written by ``specfilt.output.write_csv`` back
    into arrays."""
    xs, ys = [], []
    with open(Path(path), "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "p,value":
            raise ValueError(f"unexpected curve CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            x_text, y_text = line.split(",")
            xs.append(float(x_text))
            ys.append(float(y_text))
    return np.array(xs), np.array(ys)


def bin_of(histogram, value: float) -> int:
    """Index of the histogram bin containing ``value`` (the last bin is
    closed)."""
    idx = int(np.searchsorted(histogram.bin_edges, value, side="right")) - 1
    return min(max(idx, 0), histogram.counts.size - 1)


# ---------------------------------------------------------------------------
# least-squares fit diagnostics for the acceptance criteria
# ---------------------------------------------------------------------------


def r_squared(xs, ys) -> float:
    """Coefficient of determination of the least-squares line through
    (xs, ys), fitted by ``numpy.polyfit``."""
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_residual = float(((ys - (slope * xs + intercept)) ** 2).sum())
    ss_total = float(((ys - ys.mean()) ** 2).sum())
    return 1.0 - ss_residual / ss_total
