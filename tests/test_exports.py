"""Every exported name resolves, so ``from specfilt import *`` and the
same import from any submodule cannot fail on a stale ``__all__`` entry;
the package exports exactly its modules' public names, once each."""

import importlib
import pkgutil

import pytest

import specfilt
from specfilt import curves, ensembles, filtration, output, spectra

SUBMODULES = sorted(
    f"specfilt.{info.name}" for info in pkgutil.iter_modules(specfilt.__path__)
    if info.name != "__main__"  # the entry point, which exports nothing
)

EXPORTING = (curves, ensembles, filtration, output, spectra)

# the package's public names before it re-exported its modules' __all__,
# less the two line fits that left the library for the square-root demo,
# rank_one_matrix, whose body became the RankOneMatrix constructor,
# laplacian_std, whose trace formula only the width curve applies, and
# write_points_csv, whose only caller, the point-cloud demo, writes its
# clouds itself
NAMES_BEFORE_REEXPORT = {
    "CurveSeries", "DensityGrid", "EdgeFiltration", "Graph", "Histogram", "NORMALIZED",
    "NumericalError", "PointCloud", "RAW", "RankOneMatrix", "Spectrum", "SymmetricMatrix",
    "TwinQuotient", "build_filtration", "density_snapshot", "distance_matrix",
    "edge_count_at_density", "eigenvalues", "gap_curve", "graph_at_density",
    "laplacian", "read_matrix_csv",
    "sample_gaussian_symmetric", "sample_noisy_circle", "sample_noisy_torus",
    "sample_positive_rank_one", "sample_wishart_rank_one", "spectral_gap",
    "spectrum_histogram", "spectrum_std", "sqrt_curve", "std_curve", "stream_prefixes",
    "write_csv", "write_matrix_csv", "write_svg", "zero_multiplicity",
}


@pytest.mark.parametrize("name", ["specfilt"] + SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_exports_its_modules_public_names_once():
    assert specfilt.__all__ == [name for module in EXPORTING for name in module.__all__]
    assert len(set(specfilt.__all__)) == len(specfilt.__all__)
    assert len(NAMES_BEFORE_REEXPORT) == 37
    assert NAMES_BEFORE_REEXPORT <= set(specfilt.__all__)


def test_package_names_are_the_modules_objects():
    for module in EXPORTING:
        for name in module.__all__:
            assert getattr(specfilt, name) is getattr(module, name), name
