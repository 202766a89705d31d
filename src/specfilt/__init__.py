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

Values from outside are checked once, where they enter: the matrix by
its constructor, :func:`~specfilt.ensembles.distance_matrix` or
:func:`~specfilt.output.read_matrix_csv`, the grid by
:class:`~specfilt.curves.DensityGrid`, and each scalar or sequence
argument by the public function that takes it.  The types the library
builds from them (filtrations, snapshots, spectra, curves, histograms)
check nothing.

A name is public when its module lists it in ``__all__``; this package
re-exports exactly those names, module by module.
"""

from . import curves, ensembles, filtration, output, spectra
from .curves import *
from .ensembles import *
from .filtration import *
from .output import *
from .spectra import *

__version__ = "0.1.0"

__all__ = [*curves.__all__, *ensembles.__all__, *filtration.__all__,
           *output.__all__, *spectra.__all__]
