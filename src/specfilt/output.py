"""CSV and SVG writers for curves and histograms; the matrix CSV reader.

CSV conventions: UTF-8, header row, ``.`` decimal separator, no
thousands separators, rows in ascending x order, trailing newline.
Curves use the columns ``p,value``; histograms use
``bin_lo,bin_hi,count``.  Reals are rendered with 12 significant digits;
where that would lose more than 1e-12 (relative to max(1, |x|)) on a
round trip, the shortest exact representation is used instead, so parsing
a written file always recovers the series to 1e-12.  That widening is
common for eigenvalues, so their last bits reach the file: the bytes are
the same for one numpy/BLAS build and BLAS thread count.

The matrix file that ``--matrix`` reads is described at
:func:`read_matrix_csv`.  One parser reads it: the whole file, or, for a
large one, each of two parts at once, the second in a worker process;
any failure of either part is raised as the one-part error.  The library
writes no matrix or point cloud: the cloud demo renders both with
:func:`format_real` itself.

Every writer checks its payload, then streams the file line by line, so
memory does not grow with the size of the file.
"""

from __future__ import annotations

import io
import math
import re
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .curves import CurveSeries
from .ensembles import SymmetricMatrix
from .filtration import MAX_N
from .spectra import Histogram
from .svg import bar_chart, line_chart

__all__ = [
    "format_real",
    "write_csv",
    "write_svg",
    "read_matrix_csv",
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
        lines = line_chart(data.xs, data.ys, title, data.statistic)
    elif isinstance(data, Histogram):
        lines = bar_chart(data.bin_edges, data.counts, title)
    else:
        raise TypeError(f"cannot plot {type(data).__name__}")
    _write_lines(path, lines)


def _parse(raw, encoding: str = "utf-8-sig") -> tuple[int, np.ndarray]:
    """Parse the non-blank lines of a matrix CSV byte stream into a 2-D
    float64 array, with n, the first row's cell count, checked as the
    matrix size before any cell is parsed."""
    line, row = 0, ""  # the file line (from 1) and the text of the last line read

    def nonblank(text):
        nonlocal line, row
        for line, row in enumerate(text, 1):
            if row.strip():
                yield row

    # surrogateescape decodes each byte that is not UTF-8 to one of
    # U+DC80..U+DCFF, so the line that holds it fails to parse like any
    # bad cell, wherever the decoder's chunks end
    with io.TextIOWrapper(raw, encoding=encoding, errors="surrogateescape") as text:
        rows = nonblank(text)
        first = next(rows, None)
        if first is None:  # before numpy, which would warn "input contained no data"
            raise ValueError("matrix file is empty")
        n = first.count(",") + 1  # numpy splits at every comma
        if n > MAX_N:
            raise ValueError(f"matrix size must be at most {MAX_N}")
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        try:
            # comments=None keeps "#" an unparsable character, not the start
            # of a comment
            return n, np.loadtxt(chain([first], rows), delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            # numpy pulls one row at a time and stops at the bad one
            if byte := re.search("[\udc80-\udcff]", row):
                raise ValueError(
                    f"byte 0x{ord(byte[0]) - 0xdc00:02x} on line {line}, column "
                    f"{row.count(',', 0, byte.start()) + 1} is not UTF-8") from None
            message = str(exc)
            if "could not convert" in message:
                # numpy counts rows from 0 among the non-blank lines only
                raise ValueError(re.sub(r" at row \d+, column (\d+)\.$",
                                        rf" on line {line}, column \1", message)) from None
            raise ValueError("matrix file must be square") from exc  # ragged rows


def _symmetrized(dense: np.ndarray) -> np.ndarray:
    """Check a square array is finite and symmetric, and mirror its upper
    triangle in place, a block of rows at a time."""
    n = dense.shape[0]
    high, low = float(dense.max()), float(dense.min())  # NaN propagates
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("matrix entries must be finite")
    tolerance = 1e-9 * max(1.0, high, -low)  # max(1, max |a|)
    step = max(1, (1 << 17) // n)  # rows per block: temporaries of 1 MiB
    for start in range(0, n, step):
        stop = min(start + step, n)
        # rows start:stop from the diagonal on, against the same entries
        # across the diagonal, which no earlier block has written
        with np.errstate(over="ignore"):  # an overflowing difference is inf: asymmetric
            asymmetry = dense[start:stop, start:] - dense[start:, start:stop].T
        np.abs(asymmetry, out=asymmetry)
        if float(asymmetry.max()) > tolerance:
            raise ValueError("matrix file is not symmetric")
        del asymmetry
        dense[start:stop, :start] = dense[:start, start:stop].T
        square = dense[start:stop, start:stop]
        np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))
        # as x + 0.0 does, turn -0.0 into 0.0, the sign the stored matrix
        # has always had
        dense[start:stop] += 0.0
    return dense


def read_matrix_csv(path) -> SymmetricMatrix:
    """Read a full symmetric matrix from CSV.

    The file has no header and one comma-separated row per line.  A
    leading UTF-8 byte-order mark is ignored, blank lines are skipped,
    and every cell is parsed by ``numpy.loadtxt``
    (no ``#`` comments, no ``_`` digit separators); an unparsable cell,
    or a byte that is not UTF-8, is named by its file line and column,
    both from 1, alike from a file and from a pipe.  The size n is the
    first row's cell count, refused outside 2 to ``MAX_N`` before any
    cell is parsed.  Near-symmetric input (entries matching across the
    diagonal to 1e-9, relative to the largest magnitude) is accepted; the
    upper triangle wins and is mirrored so the stored matrix is exactly
    symmetric.

    A regular file of at least ``specfilt._twopart.SPLIT_MIN_BYTES``, on
    a POSIX machine with two or more CPUs, is split just past the first
    newline past its middle, and a worker process parses the second part
    while this one parses the first, both with the one-part parser.  A
    pipe or a small file is read in one part, and so is the whole file
    again when either part fails in any way or the worker cannot start:
    every error is raised here, with the message the one-part read gives.
    The worker is always waited for, and killed when this process raises
    or is interrupted.
    """
    # imported here, so that a run that reads no matrix neither compiles
    # nor holds the two-part reader
    from . import _twopart

    path = Path(path)
    with open(path, "rb") as fh:
        dense = None
        if (split := _twopart.split_point(fh)) is not None:
            try:
                dense = _twopart.read_in_two(fh, split, path)
            except (ValueError, OSError):
                fh.seek(0)
        if dense is None:
            n, dense = _parse(fh)
            if len(dense) != n:
                raise ValueError("matrix file must be square")
    return SymmetricMatrix._trusted(_symmetrized(dense), ensemble="matrix-file")
