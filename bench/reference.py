"""Independent numpy reference used to verify benchmark outputs.

Nothing here imports specfilt.  The samplers follow the documented
randomness contract (PCG64 seeded with the integer, Box-Muller over
consecutive uniform pairs, cosine variate first); the rest is the
textbook pipeline: sort the pairs by (value, i, j), keep the first
``floor(p * C(n, 2) + 0.5)``, assemble the Laplacian, call ``eigvalsh``.

Verification runs outside every timed region.  A failed check is
reported as a message; the harness counts it against the run.
"""

from __future__ import annotations

import math

import numpy as np

RAW = "raw"
BINS = 100
REFINE_LEVELS = 8


def _normals(rng: np.random.Generator, count: int) -> np.ndarray:
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(points.shape[0], k=1)
    diff = points[i] - points[j]
    return np.sqrt((diff * diff).sum(axis=1))


def gaussian_upper(n: int, seed: int) -> np.ndarray:
    """Upper-triangle entries (``triu_indices`` order) of the Gaussian ensemble."""
    return _normals(_rng(seed), n * (n - 1) // 2)


def wishart_upper(n: int, seed: int) -> np.ndarray:
    """Upper-triangle entries of ``v v^T`` with v standard normal."""
    v = _normals(_rng(seed), n)
    i, j = np.triu_indices(n, k=1)
    return v[i] * v[j]


def circle_points(n: int, seed: int, sigma: float = 0.1) -> np.ndarray:
    rng = _rng(seed)
    angle = (2.0 * np.pi) * rng.random(n)
    points = np.column_stack([np.cos(angle), np.sin(angle)])
    return points + sigma * _normals(rng, 2 * n).reshape(n, 2)


def torus_upper(n: int, seed: int, major: float = 2.0, minor: float = 1.0,
                sigma: float = 0.1) -> np.ndarray:
    """Upper-triangle distances of a noisy torus point cloud."""
    rng = _rng(seed)
    theta = (2.0 * np.pi) * rng.random(n)
    phi = (2.0 * np.pi) * rng.random(n)
    ring = major + minor * np.cos(phi)
    points = np.column_stack(
        [ring * np.cos(theta), ring * np.sin(theta), minor * np.sin(phi)]
    )
    points = points + sigma * _normals(rng, 3 * n).reshape(n, 3)
    return _pairwise_distances(points)


def circle_distances(n: int, seed: int) -> np.ndarray:
    """Full distance matrix of a noisy circle (zero diagonal)."""
    upper = _pairwise_distances(circle_points(n, seed))
    dense = np.zeros((n, n))
    i, j = np.triu_indices(n, k=1)
    dense[i, j] = upper
    dense[j, i] = upper
    return dense


def edge_count(n: int, p: float) -> int:
    return int(math.floor(p * (n * (n - 1) // 2) + 0.5))


def grid(n: int, uniform_steps: int, refined: bool) -> np.ndarray:
    """Densities a curve reports: one per distinct edge count, first wins."""
    points = np.arange(uniform_steps + 1) / uniform_steps
    if refined:
        extra = (10.0 / n) * 0.5 ** np.arange(REFINE_LEVELS)
        points = np.concatenate([points, extra[extra <= 1.0]])
    kept, seen = [], set()
    for p in np.unique(points):
        m = edge_count(n, float(p))
        if m not in seen:
            seen.add(m)
            kept.append(float(p))
    return np.array(kept)


class Filtration:
    """Sorted pair order of one matrix, shared by every density checked."""

    def __init__(self, n: int, upper: np.ndarray):
        i, j = np.triu_indices(n, k=1)
        rank = np.lexsort((j, i, upper))
        self.n = n
        self.i, self.j = i[rank], j[rank]

    def spectrum(self, p: float, kind: str) -> np.ndarray:
        """Ascending Laplacian eigenvalues at density p, clamped to range."""
        n, m = self.n, edge_count(self.n, p)
        i, j = self.i[:m], self.j[:m]
        degrees = np.bincount(np.concatenate([i, j]), minlength=n).astype(float)
        lap = np.zeros((n, n))
        if kind == RAW:
            lap[i, j] = lap[j, i] = -1.0
            np.fill_diagonal(lap, degrees)
            hi = float(n)
        else:
            w = -1.0 / np.sqrt(degrees[i] * degrees[j])
            lap[i, j] = lap[j, i] = w
            np.fill_diagonal(lap, (degrees > 0).astype(float))
            hi = 2.0
        return np.clip(np.linalg.eigvalsh(lap), 0.0, hi)


def _read_csv(path, header: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


class CurveCheck:
    """Expected values for a gap or width curve of one kind, at every density."""

    def __init__(self, filtration: Filtration, kind: str, statistic: str,
                 xs: np.ndarray):
        self.n, self.kind, self.statistic, self.xs = filtration.n, kind, statistic, xs
        self.expected = {}
        for k, p in enumerate(xs):
            values = filtration.spectrum(float(p), kind)
            self.expected[k] = float(values[1] if statistic == "gap" else np.std(values))

    def problems(self, path) -> list[str]:
        table = _read_csv(path, "p,value")
        tol = 1e-8 * self.n
        if table.shape != (self.xs.size, 2):
            return [f"{path.name}: {table.shape[0]} rows, expected {self.xs.size}"]
        xs, ys = table[:, 0], table[:, 1]
        out = []
        if np.abs(xs - self.xs).max() > 1e-12:
            out.append(f"{path.name}: densities differ from the grid")
        for k, want in self.expected.items():
            if not abs(ys[k] - want) <= tol:
                out.append(f"{path.name}: p={xs[k]:g} value {float(ys[k])!r}, expected {want!r}")
        if self.statistic == "gap" and self.xs[-1] == 1.0:
            full = float(self.n) if self.kind == RAW else self.n / (self.n - 1)
            if not abs(ys[-1] - full) <= tol:
                out.append(f"{path.name}: complete-graph gap {float(ys[-1])!r}, expected {full!r}")
        if self.statistic == "std" and (ys < 0).any():
            out.append(f"{path.name}: negative width")
        return out


class HistogramCheck:
    """Expected spectral histogram of one kind at one density."""

    def __init__(self, filtration: Filtration, kind: str, p: float):
        self.n = filtration.n
        hi = float(self.n) if kind == RAW else 2.0
        values = filtration.spectrum(p, kind)
        _, self.edges = np.histogram(values, bins=BINS, range=(0.0, hi))
        # Laplacian spectra often hold integer eigenvalues, with multiplicity,
        # exactly on a raw bin edge; rounding puts each on either side.  So
        # every bin gets the range of counts the eigenvalues allow when each
        # may move by the tolerance: `least` counts those that stay inside,
        # `most` those that can reach it.
        tol = 1e-8 * self.n
        first, last = (np.clip(np.searchsorted(self.edges, values + shift, side="right") - 1,
                               0, BINS - 1) for shift in (-tol, tol))
        self.least = np.bincount(first[first == last], minlength=BINS)
        self.most = np.zeros(BINS, dtype=np.int64)
        for a, b in zip(first, last):
            self.most[a:b + 1] += 1

    def problems(self, path) -> list[str]:
        table = _read_csv(path, "bin_lo,bin_hi,count")
        if table.shape != (BINS, 3):
            return [f"{path.name}: {table.shape[0]} bins, expected {BINS}"]
        out = []
        counts = table[:, 2].astype(np.int64)
        if int(counts.sum()) != self.n:
            out.append(f"{path.name}: counts sum to {int(counts.sum())}, expected {self.n}")
        edges = np.append(table[:, 0], table[-1, 1])
        if np.abs(edges - self.edges).max() > 1e-8 * self.n:
            out.append(f"{path.name}: bin edges differ")
        bad = np.flatnonzero((counts < self.least) | (counts > self.most))
        if bad.size:
            k = int(bad[0])
            out.append(f"{path.name}: {bad.size} bins off, first [{edges[k]:g}, "
                       f"{edges[k + 1]:g}) holds {counts[k]}, expected "
                       f"{self.least[k]}..{self.most[k]}")
        return out
