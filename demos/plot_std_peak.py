"""
Width of the spectral density as a function of edge density
===========================================================

The spread of the normalized eigenvalue distribution, measured by its
standard deviation, rises sharply at very low density and peaks around
p = 1/n before declining.  A uniform 50-point grid steps right over
that region, so the default std-curve grid mixes in log-spaced points
(10/n) * 2^-j near zero.

The Gaussian ensemble peaks close to 1/n.  The rank-one models peak
later and lower, and the Wishart model keeps a visible change of
behavior near p = 0.5 where the complete bipartite stage ends.
"""

from pathlib import Path

import numpy as np

import specfilt as sf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

N = 200
SEED = 5

grid = sf.DensityGrid.with_zero_refinement(N)

for name, matrix in {
    "gaussian": sf.sample_gaussian_symmetric(N, SEED),
    "positive-rank1": sf.sample_positive_rank_one(N, SEED),
    "wishart-rank1": sf.sample_wishart_rank_one(N, SEED),
}.items():
    series, = sf.std_curve(matrix, grid, (sf.NORMALIZED,))
    path = OUT / f"std-{name}-normalized.svg"
    sf.write_svg(series, path, f"normalized spectrum std vs density ({name}, n={N})")
    sf.write_csv(series, path.with_suffix(".csv"))
    peak = int(np.argmax(series.ys))
    print(
        f"{name:15s} peak std {series.ys[peak]:.4f} at p = {series.xs[peak]:.5f}"
        f"   (1/n = {1 / N:.5f})"
    )
