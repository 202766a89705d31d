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

Exit status: 0 success, 1 usage error, 2 I/O failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import (
    CurveSeries,
    DensityGrid,
    average_series,
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
from .output import read_matrix_csv, write_csv, write_svg
from .spectra import NORMALIZED, RAW, Histogram, NumericalError

__all__ = ["RunConfig", "UsageError", "parse_args", "run", "main",
           "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_NUMERICAL"]

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERICAL = 0, 1, 2, 3

# far more bins than any spectrum has eigenvalues; at this limit one kind
# peaks near 400 MB of memory and writes about 100 MB of CSV and SVG
MAX_BINS = 10**6

EXPERIMENTS = ("gap-curve", "std-curve", "density", "sqrt-gap")
ENSEMBLES = ("gaussian", "positive-rank1", "wishart-rank1", "circle", "torus",
             "matrix-file")


class UsageError(ValueError):
    """Invalid configuration detected after argument parsing."""


@dataclass
class RunConfig:
    experiment: str
    ensemble: str
    n: int | None
    seed: int
    kind: str
    p: float | None
    bins: int
    grid: str | None  # grid spec string; resolved against n at run time
    output: str
    repeats: int
    sigma: float
    major: float
    minor: float
    matrix: str | None


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
                        help="vertex count (point count for circle/torus)")
    parser.add_argument("--seed", type=int, default=0,
                        help="unsigned 64-bit seed (default 0)")
    parser.add_argument("--kind", choices=(RAW, NORMALIZED, "both"), default="both",
                        help="which Laplacian to analyze (default both)")
    parser.add_argument("--p", type=float, default=None,
                        help="edge density (density experiment only)")
    parser.add_argument("--bins", type=int, default=100,
                        help=f"histogram bin count, 1 to {MAX_BINS} (default 100)")
    parser.add_argument("--grid", default=None, metavar="uniform:K|file:PATH",
                        help="density grid spec (default uniform:50, with "
                             "extra points near 0 for std-curve)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="independent draws to average (default 1)")
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


def parse_args(argv) -> RunConfig:
    """Parse and validate arguments; usage problems exit with status 1."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.ensemble == "matrix-file":
        if args.matrix is None:
            parser.error("--matrix is required when --ensemble is matrix-file")
    else:
        if args.n is None:
            parser.error(f"--n is required for the {args.ensemble} ensemble")
        if args.n < 2:
            parser.error("--n must be at least 2")
    if not 0 <= args.seed < SEED_MAX:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.experiment == "density":
        if args.p is None:
            parser.error("--p is required for the density experiment")
        if not 0.0 <= args.p <= 1.0:
            parser.error("--p must lie in [0, 1]")
    elif args.p is not None:
        parser.error(f"--p is not a {args.experiment} flag")
    if not 1 <= args.bins <= MAX_BINS:
        parser.error(f"--bins must lie in [1, {MAX_BINS}]")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not 0 <= args.sigma < np.inf:
        parser.error("--sigma must be finite and nonnegative")
    if args.ensemble == "torus" and not np.inf > args.major > args.minor > 0:
        parser.error("--major must exceed --minor, both finite and positive")
    if args.grid is not None:
        head, _, tail = args.grid.partition(":")
        if head == "uniform":
            try:
                steps = int(tail)
            except ValueError:
                steps = 0
            if steps < 1:
                parser.error("--grid uniform:K needs a positive integer K")
        elif head == "file":
            if not tail:
                parser.error("--grid file:PATH needs a path")
        else:
            parser.error("--grid must be uniform:K or file:PATH")

    output = os.environ.get("SPECFILT_OUTPUT") or args.output
    return RunConfig(
        experiment=args.experiment,
        ensemble=args.ensemble,
        n=args.n,
        seed=args.seed,
        kind=args.kind,
        p=args.p,
        bins=args.bins,
        grid=args.grid,
        output=output,
        repeats=args.repeats,
        sigma=args.sigma,
        major=args.major,
        minor=args.minor,
        matrix=args.matrix,
    )


def _draw_matrices(config: RunConfig) -> list:
    if config.ensemble == "matrix-file":
        try:
            return [read_matrix_csv(config.matrix)]
        except ValueError as exc:
            raise UsageError(f"--matrix: {exc}") from exc
    seeds = [(config.seed + k) % SEED_MAX for k in range(config.repeats)]
    try:
        return [_sample(config, s) for s in seeds]
    except ValueError as exc:
        # e.g. a finite --sigma so large that coordinates or distances overflow
        raise UsageError(f"{config.ensemble} ensemble: {exc}") from exc


def _sample(config: RunConfig, seed: int):
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


def _resolve_grid(config: RunConfig, n: int) -> DensityGrid:
    spec = config.grid
    if spec is None:
        if config.experiment == "std-curve":
            return DensityGrid.with_zero_refinement(n)
        return DensityGrid.uniform(50)
    head, _, tail = spec.partition(":")
    if head == "uniform":
        return DensityGrid.uniform(int(tail))
    points = []
    with open(tail, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                points.append(float(line))
            except ValueError as exc:
                raise UsageError(f"--grid file: unparsable density {line!r}") from exc
    try:
        return DensityGrid(points)
    except ValueError as exc:
        raise UsageError(f"--grid file: {exc}") from exc


def _pooled_histogram(matrices, config: RunConfig, kind: str) -> Histogram:
    parts = [density_snapshot(m, config.p, kind, bins=config.bins) for m in matrices]
    counts = np.sum([h.counts for h in parts], axis=0)
    return Histogram(bin_edges=parts[0].bin_edges, counts=counts,
                     total=int(counts.sum()))


def _curve_for(matrices, grid: DensityGrid, config: RunConfig, kind: str) -> CurveSeries:
    if config.experiment == "std-curve":
        series = [std_curve(m, grid, kind) for m in matrices]
    else:
        series = [gap_curve(m, grid, kind) for m in matrices]
    curve = average_series(series) if len(series) > 1 else series[0]
    if config.experiment == "sqrt-gap":
        curve = sqrt_curve(curve)
    return curve


def _summary(config: RunConfig, kind: str, result) -> str:
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


def _title(config: RunConfig, kind: str, n: int) -> str:
    if config.experiment == "density":
        name = f"{kind} spectral density at p={config.p:g}"
    elif config.experiment == "std-curve":
        name = f"{kind} spectrum standard deviation vs density"
    elif config.experiment == "sqrt-gap":
        name = f"square root of {kind} spectral gap vs density"
    else:
        name = f"{kind} spectral gap vs density"
    return f"{name} ({config.ensemble}, n={n})"


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        matrices = _draw_matrices(config)
        n = matrices[0].n
        out_dir = Path(config.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        kinds = (RAW, NORMALIZED) if config.kind == "both" else (config.kind,)
        grid = None if config.experiment == "density" else _resolve_grid(config, n)
        for kind in kinds:
            if config.experiment == "density":
                result = _pooled_histogram(matrices, config, kind)
            else:
                result = _curve_for(matrices, grid, config, kind)
            stem = f"{config.experiment}-{config.ensemble}-{kind}"
            write_csv(result, out_dir / f"{stem}.csv")
            write_svg(result, out_dir / f"{stem}.svg", _title(config, kind, n))
            print(_summary(config, kind, result))
        return EXIT_OK
    except UsageError as exc:
        print(f"specfilt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        where = f" at p={exc.density:g}" if exc.density is not None else ""
        print(f"specfilt: numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"specfilt: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    return run(parse_args(argv))
