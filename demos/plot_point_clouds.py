"""
Distance-matrix filtrations of noisy point clouds
=================================================

The motivating construction: sample a point cloud near a shape, take
its Euclidean distance matrix, and filter the complete graph by
increasing distance.  Low densities connect only nearby points, so the
early graphs trace the shape's geometry.

This script builds a noisy circle (2d) and a noisy torus (3d), writes
the clouds themselves to CSV, and compares their spectral-gap curves
with the positive rank-one model, which they resemble closely: the raw
gap grows like p^2 and the normalized gap climbs steadily to 1.
"""

from pathlib import Path

import specfilt as sf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

N = 150
SEED = 4

circle = sf.sample_noisy_circle(N, sigma=0.1, seed=SEED)
torus = sf.sample_noisy_torus(N, major_radius=2.0, minor_radius=1.0, sigma=0.1,
                              seed=SEED)

# one point per line under an x,y[,z] header, each coordinate as specfilt
# renders reals in CSV
for name, cloud in {"circle": circle, "torus": torus}.items():
    header = "x,y" if cloud.dim == 2 else "x,y,z"
    rows = [",".join(map(sf.format_real, point)) for point in cloud.points]
    (OUT / f"{name}-points.csv").write_text("\n".join([header, *rows]) + "\n",
                                             encoding="utf-8", newline="")

grid = sf.DensityGrid.uniform(50)
reference = sf.sample_positive_rank_one(N, SEED)

for name, matrix in {
    "circle": sf.distance_matrix(circle),
    "torus": sf.distance_matrix(torus),
    "positive-rank1": reference,
}.items():
    for kind, series in zip(sf.KINDS, sf.gap_curve(matrix, grid, sf.KINDS)):
        path = OUT / f"cloud-gap-{name}-{kind}.svg"
        sf.write_svg(series, path, f"{kind} spectral gap ({name}, n={N})")
        half = series.ys[len(series.ys) // 2]
        print(f"{name:15s} {kind:10s} gap at p=0.5: {half:8.4f}   endpoint: {series.ys[-1]:.4f}")
    print()

# the gap curves can be rebuilt from the written clouds alone:
# a distance matrix CSV (one row per line, no header, reals rendered as
# for the clouds) round-trips through the matrix-file ensemble
mat_path = OUT / "circle-distances.csv"
rows = [",".join(map(sf.format_real, row)) for row in sf.distance_matrix(circle).dense]
mat_path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="")
reloaded = sf.read_matrix_csv(mat_path)
print(f"distance matrix round trip: n={reloaded.n}, ensemble={reloaded.ensemble}")
