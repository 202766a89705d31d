"""CSV and SVG serialization for curves, histograms, matrices, and clouds.

CSV conventions: UTF-8, header row, ``.`` decimal separator, no
thousands separators, rows in ascending x order, trailing newline.
Curves use the columns ``p,value``; histograms use
``bin_lo,bin_hi,count``.  Reals are rendered with 12 significant digits;
where that would lose more than 1e-12 (relative to max(1, |x|)) on a
round trip, the shortest exact representation is used instead, so parsing
a written file always recovers the series to 1e-12.  That widening is
common for eigenvalues, so their last bits reach the file: the bytes are
the same for one numpy/BLAS build and BLAS thread count.

Every writer checks its payload, then streams the file line by line, so
memory does not grow with the size of the file.
"""

from __future__ import annotations

import re
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .curves import CurveSeries
from .ensembles import PointCloud, SymmetricMatrix
from .filtration import MAX_N
from .spectra import Histogram
from .svg import bar_chart, line_chart

__all__ = [
    "format_real",
    "write_csv",
    "write_svg",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_points_csv",
]


def format_real(value: float) -> str:
    """Render a real for CSV output (12 significant digits, round-trip safe)."""
    value = float(value)
    text = f"{value:.12g}"
    if abs(float(text) - value) <= 1e-12 * max(1.0, abs(value)):
        return text
    return repr(value)


def _write_lines(path, lines) -> None:
    """Write each line and a newline to a fresh UTF-8 file, one at a time."""
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_csv(data, path) -> None:
    """Write a CurveSeries or Histogram as CSV."""
    # a memoryview yields Python numbers one at a time, so no list is held
    if isinstance(data, CurveSeries):
        header = "p,value"
        rows = (f"{format_real(x)},{format_real(y)}"
                for x, y in zip(memoryview(data.xs), memoryview(data.ys)))
    elif isinstance(data, Histogram):
        header = "bin_lo,bin_hi,count"
        # each edge is formatted once, and is the high end of one bin and
        # the low end of the next
        labels = pairwise(map(format_real, memoryview(data.bin_edges)))
        rows = (f"{lo},{hi},{c}" for (lo, hi), c in zip(labels, memoryview(data.counts)))
    else:
        raise TypeError(f"cannot serialize {type(data).__name__} to CSV")
    _write_lines(path, chain([header], rows))


def write_svg(data, path, title: str) -> None:
    """Write a CurveSeries or Histogram as a self-contained SVG plot."""
    if isinstance(data, CurveSeries):
        lines = line_chart(data.xs, data.ys, title, x_label="p", y_label=data.statistic)
    elif isinstance(data, Histogram):
        lines = bar_chart(data.bin_edges, data.counts, title,
                          x_label="eigenvalue", y_label="count")
    else:
        raise TypeError(f"cannot plot {type(data).__name__}")
    _write_lines(path, lines)


def write_matrix_csv(matrix: SymmetricMatrix, path) -> None:
    """Write the full dense matrix, one CSV row per matrix row, no header."""
    _write_lines(path, (",".join(map(format_real, row)) for row in matrix.dense))


def read_matrix_csv(path) -> SymmetricMatrix:
    """Read a full symmetric matrix from CSV (as written by write_matrix_csv).

    A leading UTF-8 byte-order mark is ignored, blank lines are skipped,
    and every cell is parsed by ``numpy.loadtxt``
    (no ``#`` comments, no ``_`` digit separators); an unparsable cell is
    named by its file line and column, both from 1.  Near-symmetric input
    (entries matching across the diagonal to 1e-9, relative to the
    largest magnitude) is accepted; the upper triangle wins and is
    mirrored so the stored matrix is exactly symmetric.
    """
    with open(Path(path), "r", encoding="utf-8-sig") as fh:
        line = 0  # the file line (from 1) of the last row handed to numpy

        def rows():
            nonlocal line
            for number, text in enumerate(fh, 1):
                if text.strip():
                    line = number
                    yield text

        lines = rows()
        first = next(lines, None)
        if first is None:  # before numpy, which would warn "input contained no data"
            raise ValueError("matrix file is empty")
        try:
            # numpy.loadtxt parses every cell; comments=None keeps "#" an
            # unparsable character, not the start of a comment
            dense = np.loadtxt(chain([first], lines), delimiter=",", ndmin=2,
                               comments=None)
        except ValueError as exc:
            if isinstance(exc, UnicodeDecodeError):
                raise
            message = str(exc)
            if "could not convert" in message:
                # numpy pulls one row at a time and stops at the bad one, but
                # counts rows from 0 among the non-blank lines only
                raise ValueError(re.sub(r" at row \d+, column (\d+)\.$",
                                        rf" on line {line}, column \1", message)) from None
            raise ValueError("matrix file must be square") from exc  # ragged rows
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("matrix file must be square")
    if dense.shape[0] > MAX_N:
        raise ValueError(f"matrix size must be at most {MAX_N}")
    # from here on, at most one n x n temporary besides dense
    if not np.isfinite(dense).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(dense).max()))
    with np.errstate(over="ignore"):  # an overflowing difference is inf: asymmetric
        asymmetry = dense - dense.T
    np.abs(asymmetry, out=asymmetry)
    if float(asymmetry.max()) > 1e-9 * scale:
        raise ValueError("matrix file is not symmetric")
    del asymmetry
    if dense.shape[0] < 2:
        raise ValueError("matrix size must be at least 2")
    dense = np.triu(dense)
    dense += np.triu(dense, k=1).T
    return SymmetricMatrix._trusted(dense, ensemble="matrix-file")


def write_points_csv(cloud: PointCloud, path) -> None:
    """Write point coordinates with an x,y[,z] header row."""
    header = "x,y" if cloud.dim == 2 else "x,y,z"
    rows = (",".join(map(format_real, pt)) for pt in cloud.points)
    _write_lines(path, chain([header], rows))
