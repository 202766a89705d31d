"""
Square-root transform of the positive rank-one gap curve
========================================================

The raw spectral gap of the positive rank-one filtration looks
parabolic.  Plotting sqrt(gap) against p straightens it into a line,
which is the quadratic-growth diagnostic: if gap ~ c * p^2 then
sqrt(gap) ~ sqrt(c) * p.

Two least-squares fits (``numpy.polyfit``) quantify this.  Both are
reported side by side:

* sqrt(gap) against p       (linear if the growth is quadratic)
* gap       against p^2     (linear for the same reason)
"""

from pathlib import Path

import numpy as np

import specfilt as sf


def line_fit(xs, ys):
    """Least-squares line through (xs, ys): (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_residual = float(((ys - (slope * xs + intercept)) ** 2).sum())
    ss_total = float(((ys - ys.mean()) ** 2).sum())
    return slope, intercept, 1.0 - ss_residual / ss_total


OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

N = 200
SEED = 3

matrix = sf.sample_positive_rank_one(N, SEED)
points = np.arange(51) / 50
grid = sf.DensityGrid(points[(points >= 0.1) & (points <= 0.9)])

gap, = sf.gap_curve(matrix, grid, (sf.RAW,))
root = sf.sqrt_curve(gap)

sf.write_svg(gap, OUT / "posrank1-gap.svg", f"raw spectral gap (positive-rank1, n={N})")
sf.write_svg(root, OUT / "posrank1-sqrt-gap.svg",
             f"square root of raw spectral gap (positive-rank1, n={N})")

slope, intercept, r2 = line_fit(root.xs, root.ys)
print(f"sqrt(gap) vs p : slope {slope:.3f}, intercept {intercept:.3f}, R^2 {r2:.5f}")

print(f"{'sqrt_gap_vs_p':20s} R^2 = {r2:.5f}")
print(f"{'gap_vs_p_squared':20s} R^2 = {line_fit(gap.xs**2, gap.ys)[2]:.5f}")
