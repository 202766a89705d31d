"""Command-line front end.

Grammar::

    specfilt <experiment> --ensemble E [--n N] [--seed S]
             [--kind raw|normalized|both] [--p P] [--bins B]
             [--grid uniform:K|file:PATH] [--repeats R] [--output DIR]
             [--matrix PATH] [--sigma X] [--major R --minor r]

Experiments: gap-curve, std-curve, density, sqrt-gap.  Each run writes
``<output>/<experiment>-<ensemble>-<kind>.csv`` plus a matching ``.svg``
and prints a one-line summary per kind.  The environment variable
``SPECFILT_OUTPUT`` overrides ``--output``.

The kinds, the ``--bins`` default and the default grid are the
library's: :data:`specfilt.spectra.KINDS`,
:data:`specfilt.spectra.DEFAULT_BINS` and
:meth:`specfilt.curves.DensityGrid.uniform`.  A ``--grid file:PATH``
holds one density per line; blank lines and lines starting with ``#``
are skipped, and a byte that is not UTF-8 is named by its line.  A
leading UTF-8 byte-order mark is ignored there and in the ``--matrix``
file.

Exit status: 0 success, 1 usage error (including an n whose matrices do
not fit in memory), 2 I/O failure, 3 numerical failure, 130 interrupted
(Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from .curves import (
    CurveSeries,
    DensityGrid,
    density_snapshot,
    gap_curve,
    sqrt_curve,
    std_curve,
)
from .ensembles import (
    SEED_MAX,
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from .filtration import MAX_N
from .output import read_matrix_csv, write_csv, write_svg
from .spectra import DEFAULT_BINS, KINDS, Histogram, NumericalError

__all__ = ["UsageError", "parse_args", "run", "main",
           "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_NUMERICAL", "EXIT_INTERRUPTED"]

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERICAL = 0, 1, 2, 3
EXIT_INTERRUPTED = 130  # the shell's 128 + SIGINT

# far more bins than any spectrum has eigenvalues; at this limit a run of
# both kinds writes about 210 MB of CSV and SVG, line by line, and peaks
# at 121 MB of memory (n = 2)
MAX_BINS = 10**6
# a larger uniform:K, or a grid file of more than K + 1 densities, would
# allocate every density before the sweep drops those of a repeated edge count
MAX_GRID_STEPS = 10**6
# a grid file's line is read at most this many characters at a time, its
# newline included, so a file without newlines cannot be read whole
MAX_GRID_LINE = 1 << 16
# far more draws than an average needs: memory does not grow with the
# draws, but at this limit the smallest run (n = 2, both kinds) already
# takes about a minute
MAX_REPEATS = 10**5

EXPERIMENTS = ("gap-curve", "std-curve", "density", "sqrt-gap")
ENSEMBLES = ("gaussian", "positive-rank1", "wishart-rank1", "circle", "torus",
             "matrix-file")


class UsageError(ValueError):
    """Invalid configuration detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="specfilt",
        description="Spectral-gap and spectral-density experiments on "
                    "matrix-ordered graph filtrations.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which curve or snapshot to compute")
    parser.add_argument("--ensemble", choices=ENSEMBLES, required=True,
                        help="matrix model to draw from")
    parser.add_argument("--n", type=int, default=None,
                        help="vertex count (point count for circle/torus), "
                             f"2 to {MAX_N}")
    parser.add_argument("--seed", type=int, default=0,
                        help="unsigned 64-bit seed (default 0)")
    parser.add_argument("--kind", choices=(*KINDS, "both"), default="both",
                        help="which Laplacian to analyze (default both)")
    parser.add_argument("--p", type=float, default=None,
                        help="edge density (density experiment only)")
    parser.add_argument("--bins", type=int, default=DEFAULT_BINS,
                        help=f"histogram bin count, 1 to {MAX_BINS} "
                             f"(default {DEFAULT_BINS})")
    parser.add_argument("--grid", default=None, metavar="uniform:K|file:PATH",
                        help=f"density grid spec: K from 1 to {MAX_GRID_STEPS}, a file of "
                             "at most K + 1 densities (default uniform:50, with extra "
                             "points near 0 for std-curve)")
    parser.add_argument("--repeats", type=int, default=1,
                        help=f"independent draws to average, 1 to {MAX_REPEATS} "
                             "(default 1)")
    parser.add_argument("--output", default=".",
                        help="output directory (default .)")
    parser.add_argument("--matrix", default=None,
                        help="CSV file with a full symmetric matrix "
                             "(matrix-file ensemble)")
    parser.add_argument("--sigma", type=float, default=0.1,
                        help="point-cloud noise level (default 0.1)")
    parser.add_argument("--major", type=float, default=2.0,
                        help="torus major radius (default 2)")
    parser.add_argument("--minor", type=float, default=1.0,
                        help="torus minor radius (default 1)")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate arguments; usage problems exit with status 1.

    The namespace holds one attribute per flag; ``output`` is taken from
    ``SPECFILT_OUTPUT`` when that is set, and ``grid`` is the
    :class:`DensityGrid` that ``--grid`` names, or None without the flag.
    A ``file:`` grid is read here, before any matrix is drawn: a file that
    cannot be read exits 2, one that does not hold a grid exits 1, each
    with one line and no usage block.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.ensemble == "matrix-file":
        if args.matrix is None:
            parser.error("--matrix is required when --ensemble is matrix-file")
        if args.n is not None:
            parser.error("--n is not a matrix-file flag: the size is read from --matrix")
        if args.repeats > 1:
            parser.error("--repeats is not a matrix-file flag: one matrix is read")
    else:
        if args.matrix is not None:
            parser.error(f"--matrix is not a {args.ensemble} flag")
        if args.n is None:
            parser.error(f"--n is required for the {args.ensemble} ensemble")
        if args.n < 2:
            parser.error("--n must be at least 2")
        if args.n > MAX_N:
            parser.error(f"--n must be at most {MAX_N}")
    if not 0 <= args.seed < SEED_MAX:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.experiment == "density":
        if args.p is None:
            parser.error("--p is required for the density experiment")
        if not 0.0 <= args.p <= 1.0:
            parser.error("--p must lie in [0, 1]")
        args.p += 0.0  # -0.0 becomes 0.0, which prints as "0", not "-0"
        if args.grid is not None:
            parser.error("--grid is not a density flag")
    elif args.p is not None:
        parser.error(f"--p is not a {args.experiment} flag")
    if not 1 <= args.bins <= MAX_BINS:
        parser.error(f"--bins must lie in [1, {MAX_BINS}]")
    if not 1 <= args.repeats <= MAX_REPEATS:
        parser.error(f"--repeats must lie in [1, {MAX_REPEATS}]")
    if not 0 <= args.sigma < np.inf:
        parser.error("--sigma must be finite and nonnegative")
    if args.ensemble == "torus" and not np.inf > args.major > args.minor > 0:
        parser.error("--major must exceed --minor, both finite and positive")
    if args.grid is not None:
        args.grid = _grid(parser, args.grid)

    args.output = os.environ.get("SPECFILT_OUTPUT") or args.output
    return args


def _grid(parser: _Parser, spec: str) -> DensityGrid:
    """The grid a ``--grid`` spec names; a bad spec or file exits here."""
    head, _, tail = spec.partition(":")
    if head == "uniform":
        try:
            steps = int(tail)
        except ValueError:
            steps = 0
        if not 1 <= steps <= MAX_GRID_STEPS:
            parser.error(f"--grid uniform:K needs an integer K in [1, {MAX_GRID_STEPS}]")
        return DensityGrid.uniform(steps)
    if head != "file":
        parser.error("--grid must be uniform:K or file:PATH")
    if not tail:
        parser.error("--grid file:PATH needs a path")
    # a file's errors are the run's: one line, no usage block
    try:
        points = []
        # line by line, each line read to at most MAX_GRID_LINE + 1
        # characters, so that the cap stops the read and an over-long line
        # is refused unread; surrogateescape decodes each byte that is not
        # UTF-8 to one of U+DC80..U+DCFF
        with Path(tail).open(encoding="utf-8-sig", errors="surrogateescape") as fh:
            for number, line in enumerate(iter(lambda: fh.readline(MAX_GRID_LINE + 1), ""), 1):
                if len(line) > MAX_GRID_LINE:
                    raise ValueError(f"line {number} is longer than {MAX_GRID_LINE} characters")
                if not line.isascii() and (byte := re.search("[\udc80-\udcff]", line)):
                    raise ValueError(f"byte 0x{ord(byte[0]) - 0xdc00:02x} on line {number} "
                                     "is not UTF-8")
                line = line.strip()
                if line and not line.startswith("#"):
                    if len(points) > MAX_GRID_STEPS:
                        raise ValueError(f"more than {MAX_GRID_STEPS + 1} densities")
                    try:
                        points.append(float(line))
                    except ValueError:
                        raise ValueError(f"unparsable density {line!r}") from None
        return DensityGrid(points)
    except OSError as exc:
        parser.exit(EXIT_IO, f"{parser.prog}: i/o error: {exc}\n")
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: --grid file: {exc}\n")


def _seeds(config: argparse.Namespace):
    # a matrix-file run has one repeat, so it reads its matrix once
    return ((config.seed + k) % SEED_MAX for k in range(config.repeats))


def _draw(config: argparse.Namespace, seed: int):
    if config.ensemble == "matrix-file":
        try:
            return read_matrix_csv(config.matrix)
        except ValueError as exc:
            raise UsageError(f"--matrix: {exc}") from exc
    try:
        return _sample(config, seed)
    except ValueError as exc:
        # e.g. a finite --sigma so large that coordinates or distances overflow
        raise UsageError(f"{config.ensemble} ensemble: {exc}") from exc


def _sample(config: argparse.Namespace, seed: int):
    if config.ensemble == "gaussian":
        return sample_gaussian_symmetric(config.n, seed)
    if config.ensemble == "positive-rank1":
        return sample_positive_rank_one(config.n, seed)
    if config.ensemble == "wishart-rank1":
        return sample_wishart_rank_one(config.n, seed)
    if config.ensemble == "circle":
        return distance_matrix(sample_noisy_circle(config.n, config.sigma, seed))
    if config.ensemble == "torus":
        return distance_matrix(sample_noisy_torus(config.n, config.major,
                                                  config.minor, config.sigma, seed))
    raise UsageError(f"unknown ensemble {config.ensemble!r}")


def _pooled(first, total, config: argparse.Namespace):
    # the one result of a kind: the first draw's bins or grid, with the
    # summed counts, or the summed values divided by the number of draws
    if config.experiment == "density":
        return Histogram(bin_edges=first.bin_edges, counts=total)
    curve = CurveSeries(first.statistic, first.xs, total / config.repeats)
    if config.experiment == "sqrt-gap":
        curve = sqrt_curve(curve)
    return curve


def _summary(config: argparse.Namespace, kind: str, result) -> str:
    tag = f"{config.experiment} {config.ensemble} {kind}"
    if isinstance(result, Histogram):
        top = int(np.argmax(result.counts))
        lo, hi = result.bin_edges[top], result.bin_edges[top + 1]
        return (f"{tag} p={config.p:g}: top bin [{lo:.4g}, {hi:.4g}) holds "
                f"{int(result.counts[top])} of {result.total} eigenvalues")
    if config.experiment == "std-curve":
        peak = int(np.argmax(result.ys))
        return (f"{tag}: peak std {result.ys[peak]:.6g} "
                f"at p={result.xs[peak]:.6g}")
    return f"{tag}: value {result.ys[-1]:.6g} at p={result.xs[-1]:g}"


def _title(config: argparse.Namespace, kind: str, n: int) -> str:
    if config.experiment == "density":
        name = f"{kind} spectral density at p={config.p:g}"
    elif config.experiment == "std-curve":
        name = f"{kind} spectrum standard deviation vs density"
    elif config.experiment == "sqrt-gap":
        name = f"square root of {kind} spectral gap vs density"
    else:
        name = f"{kind} spectral gap vs density"
    return f"{name} ({config.ensemble}, n={n})"


def run(config: argparse.Namespace) -> int:
    """Execute one experiment; returns the process exit status.

    Matrices are drawn one at a time, and each is handed, as the only
    reference, to one experiment call for every kind at once
    (:func:`gap_curve`, :func:`std_curve` or :func:`density_snapshot`),
    which lets go of it before the first quotient is assembled: a sweep
    once it has sorted the matrix into one filtration, a density run once
    it has selected its one snapshot, with no sort.  On two or more CPUs
    with a one-thread BLAS, a gap sweep of at least
    ``specfilt.curves._MIN_SPLIT_N`` vertices hands every second connected
    checkpoint to a forked worker process, and any other snapshot's two
    kinds are solved at once where both quotients are large; otherwise the
    kinds are solved one after the other, with one quotient held at a
    time.  The bytes, messages and exit codes are the same either way, and
    a worker that cannot be forked (``os.fork`` raising ``OSError``) leaves
    the sweep to this process, not to the i/o exit.  Each result is added
    to one running total per kind as soon as it is computed (histogram
    counts are summed, curves are averaged), so memory does not grow with
    ``--repeats``.  Files are written once every matrix has been
    processed.
    """
    n, grid = None, config.grid
    try:
        kinds = KINDS if config.kind == "both" else (config.kind,)
        firsts, totals = {}, {}  # per kind: first draw's result, running total
        for seed in _seeds(config):
            # a list, so that the matrix is passed on without keeping a
            # reference to it here
            drawn = [_draw(config, seed)]
            if n is None:
                n = drawn[0].n
                out_dir = Path(config.output)
                out_dir.mkdir(parents=True, exist_ok=True)
                if grid is None and config.experiment != "density":
                    grid = (DensityGrid.with_zero_refinement(n)
                            if config.experiment == "std-curve" else DensityGrid.uniform())
            if config.experiment == "density":
                results = density_snapshot(drawn.pop(), config.p, kinds, bins=config.bins)
            elif config.experiment == "std-curve":
                results = std_curve(drawn.pop(), grid, kinds)
            else:
                results = gap_curve(drawn.pop(), grid, kinds)
            for kind, result in zip(kinds, results):
                values = result.counts if config.experiment == "density" else result.ys
                if kind in totals:
                    totals[kind] += values
                else:
                    # a writable copy: a result's arrays are read-only
                    firsts[kind], totals[kind] = result, values.copy()
            # only the first results and totals outlive a draw
            del drawn, results, result, values
        for kind in kinds:
            result = _pooled(firsts[kind], totals[kind], config)
            stem = f"{config.experiment}-{config.ensemble}-{kind}"
            write_csv(result, out_dir / f"{stem}.csv")
            write_svg(result, out_dir / f"{stem}.svg", _title(config, kind, n))
            print(_summary(config, kind, result))
        return EXIT_OK
    except UsageError as exc:
        print(f"specfilt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the size it could not allocate; a matrix
        # file's n is known only once it has been read
        size = n if n is not None else config.n
        what = f"n={size}" if size is not None else f"the matrix in {config.matrix}"
        detail = f": {exc}" if str(exc) else ""
        print(f"specfilt: error: not enough memory for {what}{detail}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        where = f" at p={exc.density:g}" if exc.density is not None else ""
        print(f"specfilt: numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"specfilt: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except KeyboardInterrupt:
        print("specfilt: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
