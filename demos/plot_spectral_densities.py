"""
Spectral densities at fixed edge density
========================================

Histograms of all n Laplacian eigenvalues at a few snapshot densities.
The raw spectra are binned on [0, n], the normalized ones on [0, 2].

Salient features:

* Gaussian: a semicircle-like raw bulk whose width shrinks as p grows;
  the normalized density is a bump centered at 1.
* Positive rank-one: extreme concentration of normalized eigenvalues in
  the bin at 1, far sharper than the Gaussian bump.
* Wishart rank-one: the same spike at 1 plus, below p = 0.5, a heavy
  spike at 0 coming from the many connected components; by p = 0.6 the
  zero spike is gone.
"""

from pathlib import Path

import specfilt as sf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

N = 300
SEED = 12

ensembles = {
    "gaussian": sf.sample_gaussian_symmetric(N, SEED),
    "positive-rank1": sf.sample_positive_rank_one(N, SEED),
    "wishart-rank1": sf.sample_wishart_rank_one(N, SEED),
}

for name, matrix in ensembles.items():
    for p in (0.05, 0.2, 0.6):
        for kind, hist in zip(sf.KINDS, sf.density_snapshot(matrix, p, sf.KINDS)):
            path = OUT / f"density-{name}-{kind}-p{int(p * 100):02d}.svg"
            sf.write_svg(hist, path, f"{kind} spectral density at p={p:g} ({name})")
            top = int(hist.counts.argmax())
            lo, hi = hist.bin_edges[top], hist.bin_edges[top + 1]
            print(
                f"{name:15s} p={p:<4g} {kind:10s} top bin [{lo:6.3f}, {hi:6.3f}) "
                f"holds {hist.counts[top]:3d}/{hist.total}"
            )
    print()
