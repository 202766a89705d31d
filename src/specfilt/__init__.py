"""specfilt: spectral statistics of matrix-ordered graph filtrations.

A symmetric matrix orders the C(n, 2) vertex pairs by increasing entry;
inserting edges in that order sweeps out an increasing family of graphs
parameterized by edge density.  This package samples matrices from
several random ensembles (Gaussian symmetric, rank-one positive and
Wishart, point-cloud distance matrices), builds the filtration, and
studies raw and normalized Laplacian spectra along it: spectral-gap
curves, spectral-density histograms, and the standard deviation of the
eigenvalue distribution as functions of density.

Everything is deterministic given a seed; see :mod:`specfilt.ensembles`
for the exact randomness contract.  The ``specfilt`` command-line tool
(:mod:`specfilt.cli`) writes CSV data files and self-contained SVG plots.
"""

from .curves import (
    CurveSeries,
    DensityGrid,
    density_snapshot,
    gap_curve,
    growth_fits,
    linear_fit,
    sqrt_curve,
    std_curve,
)
from .ensembles import (
    PointCloud,
    RankOneMatrix,
    SymmetricMatrix,
    distance_matrix,
    rank_one_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from .filtration import (
    EdgeFiltration,
    Graph,
    build_filtration,
    edge_count_at_density,
    graph_at_density,
    stream_prefixes,
)
from .output import (
    read_matrix_csv,
    write_csv,
    write_matrix_csv,
    write_points_csv,
    write_svg,
)
from .spectra import (
    NORMALIZED,
    RAW,
    Histogram,
    NumericalError,
    Spectrum,
    TwinQuotient,
    eigenvalues,
    laplacian,
    laplacian_std,
    spectral_gap,
    spectrum_histogram,
    spectrum_std,
    zero_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "CurveSeries",
    "DensityGrid",
    "EdgeFiltration",
    "Graph",
    "Histogram",
    "NORMALIZED",
    "NumericalError",
    "PointCloud",
    "RAW",
    "RankOneMatrix",
    "Spectrum",
    "SymmetricMatrix",
    "TwinQuotient",
    "build_filtration",
    "density_snapshot",
    "distance_matrix",
    "edge_count_at_density",
    "eigenvalues",
    "gap_curve",
    "graph_at_density",
    "growth_fits",
    "laplacian",
    "laplacian_std",
    "linear_fit",
    "rank_one_matrix",
    "read_matrix_csv",
    "sample_gaussian_symmetric",
    "sample_noisy_circle",
    "sample_noisy_torus",
    "sample_positive_rank_one",
    "sample_wishart_rank_one",
    "spectral_gap",
    "spectrum_histogram",
    "spectrum_std",
    "sqrt_curve",
    "std_curve",
    "stream_prefixes",
    "write_csv",
    "write_matrix_csv",
    "write_points_csv",
    "write_svg",
    "zero_multiplicity",
]
