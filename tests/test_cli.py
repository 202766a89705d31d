"""Command-line contract: parsing, run outputs, exit codes, determinism."""

import errno
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import specfilt._twopart as _twopart
import specfilt._worker as _worker
import specfilt.cli as cli
import specfilt.curves as curves
import specfilt.output as output
from specfilt.cli import (EXIT_INTERRUPTED, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                          main, parse_args, run)
from specfilt.curves import CurveSeries, DensityGrid, gap_curve
from specfilt.ensembles import (distance_matrix, sample_gaussian_symmetric,
                                sample_noisy_circle, sample_wishart_rank_one)
from specfilt.filtration import MAX_N, EdgeFiltration
from specfilt.output import write_csv
from specfilt.spectra import NumericalError, laplacian

from oracles import read_curve_csv, write_matrix_file


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestParseArgs:
    def test_gap_curve_defaults(self):
        config = parse_args(
            ["gap-curve", "--ensemble", "gaussian", "--n", "200", "--seed", "7"]
        )
        assert config.experiment == "gap-curve"
        assert config.ensemble == "gaussian"
        assert config.n == 200
        assert config.seed == 7
        assert config.kind == "both"
        assert config.bins == 100
        assert config.repeats == 1
        assert config.p is None
        assert config.grid is None

    def test_density_with_p(self):
        config = parse_args(
            ["density", "--ensemble", "wishart-rank1", "--n", "500", "--p", "0.2"]
        )
        assert config.p == 0.2
        assert config.seed == 0

    def test_p_rejected_outside_density_experiment(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "gaussian", "--n", "10", "--p", "1.5"])
        assert info.value.code == EXIT_USAGE

    def test_p_range_checked(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["density", "--ensemble", "gaussian", "--n", "10", "--p", "1.5"])
        assert info.value.code == EXIT_USAGE

    def test_non_finite_floats_rejected(self):
        for flag, value in (("--sigma", "nan"), ("--sigma", "inf"),
                            ("--major", "inf"), ("--minor", "nan")):
            with pytest.raises(SystemExit) as info:
                parse_args(["density", "--ensemble", "torus", "--n", "10",
                            "--p", "0.5", flag, value])
            assert info.value.code == EXIT_USAGE

    def test_bins_bounded(self, capsys):
        base = ["density", "--ensemble", "gaussian", "--n", "10", "--p", "0.5"]
        assert parse_args(base + ["--bins", str(cli.MAX_BINS)]).bins == cli.MAX_BINS
        for bins in ("0", str(cli.MAX_BINS + 1), "100000000000"):
            with pytest.raises(SystemExit) as info:
                parse_args(base + ["--bins", bins])
            assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit):
            parse_args(["--help"])
        assert f"1 to {cli.MAX_BINS}" in capsys.readouterr().out

    def test_grid_steps_bounded(self, capsys):
        base = ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--grid"]
        limit = cli.MAX_GRID_STEPS
        assert len(parse_args(base + [f"uniform:{limit}"]).grid) == limit + 1
        for steps in (str(limit + 1), "100000000000000"):
            with pytest.raises(SystemExit) as info:
                parse_args(base + [f"uniform:{steps}"])
            assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit):
            parse_args(["--help"])
        assert f"K from 1 to {limit}" in " ".join(capsys.readouterr().out.split())

    def test_repeats_bounded(self, capsys):
        base = ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--repeats"]
        limit = cli.MAX_REPEATS
        assert parse_args(base + [str(limit)]).repeats == limit
        for repeats in ("0", str(limit + 1), "1000000000000"):
            with pytest.raises(SystemExit) as info:
                parse_args(base + [repeats])
            assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit):
            parse_args(["--help"])
        assert f"1 to {limit}" in " ".join(capsys.readouterr().out.split())

    def test_n_bounded(self, capsys):
        # past MAX_N the int32 rank matrix cannot hold C(n, 2)
        base = ["gap-curve", "--ensemble", "gaussian", "--n"]
        assert parse_args(base + [str(MAX_N)]).n == MAX_N
        for n in (str(MAX_N + 1), "10000000000"):
            with pytest.raises(SystemExit) as info:
                parse_args(base + [n])
            assert info.value.code == EXIT_USAGE
        assert f"--n must be at most {MAX_N}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            parse_args(["--help"])
        assert f"2 to {MAX_N}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv", [
        ["density", "--ensemble", "gaussian", "--n", "10", "--p", "0.5",
         "--grid", "uniform:10"],
        ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--matrix", "/nonexistent"],
        ["gap-curve", "--ensemble", "matrix-file", "--matrix", "m.csv", "--n", "10"],
        ["gap-curve", "--ensemble", "matrix-file", "--matrix", "m.csv", "--repeats", "2"],
    ], ids=["grid-density", "matrix-gaussian", "n-matrix-file", "repeats-matrix-file"])
    def test_flags_the_run_ignores_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            parse_args(argv)
        assert info.value.code == EXIT_USAGE
        assert f"error: {argv[-2]} is not a" in capsys.readouterr().err

    def test_matrix_file_takes_the_defaulted_flags(self):
        args = parse_args(["density", "--ensemble", "matrix-file", "--matrix", "m.csv",
                           "--p", "0.5", "--seed", "3", "--repeats", "1", "--bins", "7"])
        assert (args.n, args.seed, args.repeats, args.bins) == (None, 3, 1, 7)

    def test_density_requires_p(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["density", "--ensemble", "gaussian", "--n", "10"])
        assert info.value.code == EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "gaussian", "--n", "10", "--what"])
        assert info.value.code == EXIT_USAGE

    def test_missing_ensemble(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--n", "10"])
        assert info.value.code == EXIT_USAGE

    def test_unparsable_number(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "gaussian", "--n", "ten"])
        assert info.value.code == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    def test_matrix_file_requires_matrix(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "matrix-file"])
        assert info.value.code == EXIT_USAGE

    def test_generator_requires_n(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "gaussian"])
        assert info.value.code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(["--help"])
        assert info.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_bad_grid_specs(self):
        for grid_spec in ("uniform:0", "uniform:x", "weird:3", "file:"):
            with pytest.raises(SystemExit) as info:
                parse_args(
                    ["gap-curve", "--ensemble", "gaussian", "--n", "10",
                     "--grid", grid_spec]
                )
            assert info.value.code == EXIT_USAGE

    def test_output_env_override(self, monkeypatch):
        monkeypatch.setenv("SPECFILT_OUTPUT", "/tmp/elsewhere")
        config = parse_args(
            ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--output", "here"]
        )
        assert config.output == "/tmp/elsewhere"

    def test_bad_seed(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["gap-curve", "--ensemble", "gaussian", "--n", "10",
                        "--seed", "-3"])
        assert info.value.code == EXIT_USAGE


class TestRun:
    def test_gap_curve_endpoint_row(self, tmp_path, capsys):
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "40", "--seed", "7",
             "--kind", "raw", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        csv_path = tmp_path / "gap-curve-gaussian-raw.csv"
        svg_path = tmp_path / "gap-curve-gaussian-raw.svg"
        assert csv_path.exists() and svg_path.exists()
        last = csv_path.read_text().strip().split("\n")[-1]
        assert last == "1,40"
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "gap-curve gaussian raw" in out

    def test_density_histogram_totals(self, tmp_path):
        code = main(
            ["density", "--ensemble", "positive-rank1", "--n", "60", "--seed", "2",
             "--p", "0.2", "--kind", "normalized", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "density-positive-rank1-normalized.csv").read_text()
        body = rows.strip().split("\n")[1:]
        assert len(body) == 100
        assert sum(int(r.split(",")[2]) for r in body) == 60

    def test_kind_both_writes_two_pairs(self, tmp_path, capsys):
        code = main(
            ["std-curve", "--ensemble", "gaussian", "--n", "24", "--seed", "5",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "std-curve-gaussian-normalized.csv",
            "std-curve-gaussian-normalized.svg",
            "std-curve-gaussian-raw.csv",
            "std-curve-gaussian-raw.svg",
        ]
        assert capsys.readouterr().out.count("\n") == 2

    def test_sqrt_gap_values(self, tmp_path):
        code = main(
            ["sqrt-gap", "--ensemble", "positive-rank1", "--n", "30", "--seed", "4",
             "--kind", "raw", "--grid", "uniform:10", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        xs, ys = read_curve_csv(tmp_path / "sqrt-gap-positive-rank1-raw.csv")
        assert len(xs) == 11
        assert abs(ys[-1] - np.sqrt(30.0)) <= 1e-6

    def test_repeats_average(self, tmp_path):
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "20", "--seed", "3",
             "--kind", "raw", "--grid", "uniform:5", "--repeats", "3",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        xs, ys = read_curve_csv(tmp_path / "gap-curve-gaussian-raw.csv")
        assert abs(ys[-1] - 20.0) <= 1e-6  # all repeats share the K_n endpoint

    def test_grid_file(self, tmp_path):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("# densities\n0\n0.5\n1\n")
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
             "--kind", "raw", "--grid", f"file:{grid_path}",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        xs, _ = read_curve_csv(tmp_path / "gap-curve-gaussian-raw.csv")
        assert xs.tolist() == [0.0, 0.5, 1.0]

    def test_grid_file_byte_order_mark_is_ignored(self, tmp_path):
        written = {}
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            grid_path = tmp_path / f"{name}.txt"
            grid_path.write_bytes(prefix + b"0\n0.25\n1\n")
            out = tmp_path / name
            code = main(
                ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
                 "--kind", "raw", "--grid", f"file:{grid_path}", "--output", str(out)]
            )
            assert code == EXIT_OK
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written["plain"]) == 2
        assert written["bom"] == written["plain"]

    def test_negative_zero_density_is_zero_in_any_order(self, tmp_path):
        written = {}
        for name, text in (("zero-first", "0\n-0.0\n0.5\n"), ("minus-first", "-0.0\n0\n0.5\n")):
            grid_path = tmp_path / f"{name}.txt"
            grid_path.write_text(text)
            out = tmp_path / name
            code = main(
                ["gap-curve", "--ensemble", "gaussian", "--n", "6", "--kind", "raw",
                 "--grid", f"file:{grid_path}", "--output", str(out)]
            )
            assert code == EXIT_OK
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert written["minus-first"] == written["zero-first"]
        assert written["zero-first"]["gap-curve-gaussian-raw.csv"].split(b"\n")[1] == b"0,0"

    def test_negative_zero_p_prints_as_zero(self, tmp_path, capsys):
        code = main(["density", "--ensemble", "gaussian", "--n", "6", "--p", "-0.0",
                     "--kind", "raw", "--output", str(tmp_path)])
        assert code == EXIT_OK
        assert " p=0: " in capsys.readouterr().out
        title = (tmp_path / "density-gaussian-raw.svg").read_text().split("\n")[1]
        assert "at p=0 (" in title

    def test_grid_resolved_once_for_both_kinds(self, tmp_path, monkeypatch):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("0\n0.5\n1\n")
        reads = []
        path_open = Path.open

        def counting(self, *args, **kwargs):
            if self == grid_path:
                reads.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting)
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
             "--kind", "both", "--grid", f"file:{grid_path}",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert len(reads) == 1

    def test_grid_file_unparsable_is_usage_error(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("0\nnot-a-number\n")
        with pytest.raises(SystemExit) as info:
            main(["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
                  "--grid", f"file:{grid_path}", "--output", str(tmp_path)])
        assert info.value.code == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err

    def test_grid_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_bytes(b"\xff0.5\n")
        with pytest.raises(SystemExit) as info:
            main(["gap-curve", "--ensemble", "gaussian", "--n", "10", "--seed", "1",
                  "--grid", f"file:{grid_path}", "--output", str(tmp_path)])
        assert info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("specfilt: error: --grid file: ")
        assert err.count("\n") == 1

    def test_grid_file_holds_at_most_one_more_density_than_steps(self, tmp_path,
                                                                  monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GRID_STEPS", 3)
        grid_path = tmp_path / "grid.txt"
        argv = ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--kind", "raw",
                "--grid", f"file:{grid_path}"]
        grid_path.write_text("# four densities\n0\n0.25\n\n0.5\n1\n")
        assert main(argv + ["--output", str(tmp_path / "four")]) == EXIT_OK
        capsys.readouterr()
        grid_path.write_text("0\n0.25\n0.5\n0.75\n1\n")
        with pytest.raises(SystemExit) as info:
            main(argv + ["--output", str(tmp_path / "five")])
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err == "specfilt: error: --grid file: more than 4 densities\n"
        assert not (tmp_path / "five").exists()

    def test_grid_file_read_stops_at_the_cap(self, tmp_path, monkeypatch, capsys):
        # a file read whole is decoded whole: the byte past the comments
        # would fail the read before the densities were counted
        monkeypatch.setattr(cli, "MAX_GRID_STEPS", 3)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_bytes(b"0\n0.25\n0.5\n0.75\n1\n" + (b"#" * 99 + b"\n") * 1000
                              + b"\xff\n")
        with pytest.raises(SystemExit) as info:
            main(["gap-curve", "--ensemble", "gaussian", "--n", "10",
                  "--grid", f"file:{grid_path}", "--output", str(tmp_path / "out")])
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err == "specfilt: error: --grid file: more than 4 densities\n"

    def test_grid_file_line_is_read_to_the_line_limit(self, tmp_path, monkeypatch, capsys):
        # a line read whole is read to its newline, or to the end of a file
        # without one; the over-long line here is a comment, which a whole
        # read would hold and then skip
        monkeypatch.setattr(cli, "MAX_GRID_LINE", 8)
        grid_path = tmp_path / "grid.txt"
        argv = ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--grid", f"file:{grid_path}"]
        grid_path.write_bytes(b"0\n#234567\n1")  # 8 characters with the newline
        assert parse_args(argv).grid.points.tolist() == [0.0, 1.0]
        grid_path.write_bytes(b"0\n#234567\n1\n" + b"#" * 2_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as info:
                parse_args(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --grid file: line 4 is longer than 8 characters\n")
        assert peak < 500_000

    def test_missing_grid_file_is_io_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
                  "--grid", f"file:{tmp_path}/nope.txt", "--output", str(tmp_path)])
        assert info.value.code == EXIT_IO

    # a spec error prints the usage block, a file error one line
    @pytest.mark.parametrize("spec,contents,code,message", [
        ("uniform:0", None, EXIT_USAGE,
         f"error: --grid uniform:K needs an integer K in [1, {cli.MAX_GRID_STEPS}]"),
        ("weird:3", None, EXIT_USAGE, "error: --grid must be uniform:K or file:PATH"),
        ("file:", None, EXIT_USAGE, "error: --grid file:PATH needs a path"),
        ("file:{path}", None, EXIT_IO,
         "i/o error: [Errno 2] No such file or directory: '{path}'"),
        ("file:{path}", b"0\n\xff0.5\n", EXIT_USAGE,
         "error: --grid file: byte 0xff on line 2 is not UTF-8"),
        ("file:{path}", b"0\nx\n", EXIT_USAGE, "error: --grid file: unparsable density 'x'"),
        ("file:{path}", b"# none\n\n", EXIT_USAGE,
         "error: --grid file: a density grid needs at least one point"),
        ("file:{path}", b"0\n1.5\n", EXIT_USAGE, "error: --grid file: densities must lie in [0, 1]"),
    ], ids=["steps", "head", "empty-path", "missing", "not-utf8", "unparsable", "no-points",
            "out-of-range"])
    def test_bad_grid_exits_before_any_draw(self, tmp_path, monkeypatch, capsys, spec,
                                            contents, code, message):
        def unreached(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(cli, "_draw", unreached)
        path = tmp_path / "grid.txt"
        if contents is not None:
            path.write_bytes(contents)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["gap-curve", "--ensemble", "gaussian", "--n", "10",
                  "--grid", spec.format(path=path), "--output", str(out)])
        assert info.value.code == code
        usage = "" if spec.startswith("file:{") else cli._build_parser().format_usage()
        assert capsys.readouterr().err == usage + f"specfilt: {message.format(path=path)}\n"
        assert not out.exists()

    def test_matrix_file_matches_direct_ensemble(self, tmp_path):
        mat = sample_wishart_rank_one(24, 9)
        matrix_path = tmp_path / "matrix.csv"
        write_matrix_file(matrix_path, mat.dense)
        code = main(
            ["gap-curve", "--ensemble", "matrix-file", "--matrix", str(matrix_path),
             "--kind", "raw", "--grid", "uniform:8", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        _, from_file = read_curve_csv(tmp_path / "gap-curve-matrix-file-raw.csv")
        direct_dir = tmp_path / "direct"
        code = main(
            ["gap-curve", "--ensemble", "wishart-rank1", "--n", "24", "--seed", "9",
             "--kind", "raw", "--grid", "uniform:8", "--output", str(direct_dir)]
        )
        assert code == EXIT_OK
        _, direct = read_curve_csv(direct_dir / "gap-curve-wishart-rank1-raw.csv")
        assert np.abs(from_file - direct).max() <= 1e-6

    def test_circle_and_torus_flags(self, tmp_path):
        code = main(
            ["gap-curve", "--ensemble", "torus", "--n", "20", "--seed", "2",
             "--kind", "raw", "--grid", "uniform:4", "--sigma", "0.05",
             "--major", "3", "--minor", "0.5", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK

    def test_overflowing_sigma_is_usage_error(self, tmp_path, capsys):
        # the overflow is caught by the finiteness checks, not reported as
        # a numpy RuntimeWarning: any warning would raise here
        for ensemble, sigma, message in (("torus", "1e308", "coordinates must be finite"),
                                         ("circle", "1e200", "matrix entries must be finite")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(
                    ["density", "--ensemble", ensemble, "--n", "10", "--p", "0.5",
                     "--sigma", sigma, "--output", str(tmp_path)]
                )
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("specfilt: error: ")
            assert err.count("\n") == 1
            assert message in err

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--seed", "1",
             "--output", str(blocker / "sub")]
        )
        assert code == EXIT_IO

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            exc = NumericalError("synthetic failure")
            exc.density = 0.25
            raise exc

        monkeypatch.setattr(cli, "gap_curve", explode)
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--seed", "1",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_NUMERICAL
        assert "p=0.25" in capsys.readouterr().err

    def test_density_numerical_failure_names_its_density(self, tmp_path, monkeypatch,
                                                         capsys):
        def explode(matrix):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(curves, "eigenvalues", explode)
        code = main(["density", "--ensemble", "gaussian", "--n", "10", "--p", "0.3",
                     "--output", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "specfilt: numerical failure at p=0.3: synthetic failure\n"

    @pytest.mark.parametrize("sampler,ensemble,message", [
        ("sample_gaussian_symmetric", "gaussian", "Unable to allocate 1.82 TiB"),
        ("distance_matrix", "torus", ""),
    ])
    def test_out_of_memory_is_one_usage_line(self, tmp_path, monkeypatch, capsys,
                                             sampler, ensemble, message):
        # a stand-in for a draw too large for memory: nothing is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, sampler, exhausted)
        code = main(["density", "--ensemble", ensemble, "--n", str(MAX_N), "--p", "0.5",
                     "--output", str(tmp_path)])
        assert code == EXIT_USAGE
        expected = f"specfilt: error: not enough memory for n={MAX_N}"
        assert capsys.readouterr().err == (
            f"{expected}: {message}\n" if message else f"{expected}\n")
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_is_one_line_and_status_130(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "sample_gaussian_symmetric", interrupted)
        code = main(["gap-curve", "--ensemble", "gaussian", "--n", "10",
                     "--output", str(tmp_path)])
        assert code == EXIT_INTERRUPTED == 130
        assert capsys.readouterr().err == "specfilt: interrupted\n"


class TestOneFiltrationPerMatrix:
    """Every kind computed from one matrix shares one sort and, for the gap
    curve, one connectivity pass and one snapshot per checkpoint."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("argv, builds", [
        # a density run selects its snapshot and sorts nothing
        (["density", "--ensemble", "torus", "--n", "30", "--p", "0.3"], 0),
        (["std-curve", "--ensemble", "gaussian", "--n", "20"], 1),
        (["gap-curve", "--ensemble", "gaussian", "--n", "20", "--seed", "4",
          "--repeats", "3", "--grid", "uniform:10"], 3),
    ], ids=["density", "std-curve", "gap-curve-repeats"])
    def test_one_sort_per_matrix(self, tmp_path, monkeypatch, argv, builds):
        calls = self.count_calls(monkeypatch, curves, "build_filtration")
        code = main(argv + ["--kind", "both", "--output", str(tmp_path)])
        assert code == EXIT_OK
        assert len(calls) == builds

    def test_gap_curve_both_kinds_one_connectivity_pass(self, tmp_path, monkeypatch):
        # the library's own cached property, counting the trees it grows
        tree = EdgeFiltration.connectivity_index
        passes = self.count_calls(monkeypatch, tree, "func")
        code = main(["gap-curve", "--ensemble", "wishart-rank1", "--n", "30",
                     "--kind", "both", "--grid", "uniform:20", "--output", str(tmp_path)])
        assert code == EXIT_OK
        assert len(passes) == 1

    def test_gap_curve_both_kinds_one_snapshot_per_checkpoint(self, tmp_path, monkeypatch):
        streamed = []  # every Graph the sweep builds
        stream = curves.stream_prefixes

        def recording(filtration, checkpoints):
            for graph in stream(filtration, checkpoints):
                streamed.append(graph)
                yield graph

        monkeypatch.setattr(curves, "stream_prefixes", recording)
        code = main(["gap-curve", "--ensemble", "wishart-rank1", "--n", "30", "--seed", "2",
                     "--kind", "both", "--grid", "uniform:20", "--output", str(tmp_path)])
        assert code == EXIT_OK
        filtration = curves.build_filtration(sample_wishart_rank_one(30, 2))
        counts, _ = curves._checkpoints(DensityGrid.uniform(20), 30)
        connected = [m for m in counts.tolist() if m >= filtration.connectivity_index]
        assert 0 < len(connected) < len(counts)
        assert [graph.edge_count for graph in streamed] == connected

    def test_repeats_hold_one_matrix_at_a_time(self, tmp_path, monkeypatch):
        drawn = []
        draw = cli._draw

        def tracking(config, seed):
            # every earlier matrix, with its filtration, is gone by now
            assert all(ref() is None for ref in drawn)
            matrix = draw(config, seed)
            drawn.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(cli, "_draw", tracking)
        code = main(["std-curve", "--ensemble", "wishart-rank1", "--n", "20",
                     "--kind", "both", "--repeats", "3", "--output", str(tmp_path)])
        assert code == EXIT_OK
        assert len(drawn) == 3

    def test_unparsable_matrix_cell_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        path.write_text("0,1,2\n1,0,x\n2,x,0\n")
        code = main(["density", "--ensemble", "matrix-file", "--matrix", str(path),
                     "--p", "0.5", "--output", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("specfilt: error: --matrix: could not convert")
        assert err.count("\n") == 1


class TestPooledRepeats:
    """Each draw is added to one running total per kind as it arrives."""

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            code = main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_repeats(self, tmp_path, monkeypatch, capsys):
        # from the second draw on, the peak is one draw's histogram of
        # 100000 bins held while it is added to the running totals, whatever
        # the number of draws; keeping every draw's histogram would add
        # 1.6 MB per draw and kind. The SVG is left out: tracing its
        # strings takes seconds
        monkeypatch.setattr(cli, "write_svg", lambda *args: None)
        argv = ["density", "--ensemble", "gaussian", "--n", "2", "--p", "0.5",
                "--bins", "100000", "--output", str(tmp_path)]
        code, single = self.traced_peak(argv + ["--repeats", "2"])
        assert code == EXIT_OK
        code, pooled = self.traced_peak(argv + ["--repeats", "20"])
        assert code == EXIT_OK
        assert pooled <= 1.1 * single, (single, pooled)
        pooled_summaries = capsys.readouterr().out.splitlines()[-2:]
        assert all(line.endswith(" of 40 eigenvalues") for line in pooled_summaries)

    def test_repeated_curve_is_the_mean_of_single_draws(self, tmp_path):
        seed, repeats, grid = 11, 3, DensityGrid.uniform(10)
        code = main(["gap-curve", "--ensemble", "gaussian", "--n", "20",
                     "--seed", str(seed), "--repeats", str(repeats), "--kind", "both",
                     "--grid", "uniform:10", "--output", str(tmp_path / "cli")])
        assert code == EXIT_OK
        for kind in ("raw", "normalized"):
            draws = [gap_curve(sample_gaussian_symmetric(20, seed + k), grid, (kind,))[0]
                     for k in range(repeats)]
            mean = CurveSeries("gap", draws[0].xs, np.mean([d.ys for d in draws], axis=0))
            expected = tmp_path / f"{kind}.csv"
            write_csv(mean, expected)
            written = tmp_path / "cli" / f"gap-curve-gaussian-{kind}.csv"
            assert written.read_bytes() == expected.read_bytes()


class TestSolvesAtOnce:
    """A run of both kinds solves the second kind of a snapshot on a worker
    thread when two of its quotients have at least ``_MIN_CONCURRENT_Q``
    classes and the process may run on two CPUs with a one-thread BLAS; its
    bytes, messages and exit codes are those of one solve after the other.
    Each case runs as ``density`` here and as ``gap-curve`` in the subclass
    below."""

    experiment = "density"

    @pytest.fixture(autouse=True)
    def floor_at_64_classes(self, monkeypatch):
        # the floor lowered to 64 classes, so that snapshots of 80 vertices
        # reach the worker thread
        monkeypatch.setattr(curves, "_MIN_CONCURRENT_Q", 64)

    @staticmethod
    def at(tmp_path, p):
        """The options that put the run's one snapshot at density p."""
        return ["--p", p]

    @staticmethod
    def threads_started(monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        return started

    @staticmethod
    def large_pairs(monkeypatch):
        """Per call to _solve, whether two of its quotients have
        ``_MIN_CONCURRENT_Q`` or more classes."""
        large, solve = [], curves._solve

        def recording(snapshot, kinds, density):
            sizes = [laplacian(snapshot[0], kind).dense.shape[0] for kind in kinds]
            large.append(sum(q >= curves._MIN_CONCURRENT_Q for q in sizes) >= 2)
            return solve(snapshot, kinds, density)

        monkeypatch.setattr(curves, "_solve", recording)
        return large

    def run(self, tmp_path, *argv, ensemble="gaussian", p="0.3"):
        return main([self.experiment, "--ensemble", ensemble, "--n", "80", "--seed", "2",
                     *self.at(tmp_path, p), "--kind", "both", *argv,
                     "--output", str(tmp_path / "out")])

    @pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
    def test_same_bytes_as_one_after_the_other(self, tmp_path, monkeypatch, capsys, ensemble):
        if ensemble == "matrix-file":
            path = tmp_path / "matrix.csv"
            write_matrix_file(path, distance_matrix(sample_noisy_circle(80, 0.1, 4)).dense)
            size, repeats = ["--matrix", str(path)], ["1"]
        else:
            size, repeats = ["--n", "80"], ["1", "3"]
        started = self.threads_started(monkeypatch)
        large = self.large_pairs(monkeypatch)
        for p in ("0", "0.05", "0.2", "1"):
            for draws in repeats:
                written = {}
                for at_once in (False, True):
                    monkeypatch.setattr(curves, "_concurrent_solves", lambda: at_once)
                    out = tmp_path / f"{p}-{draws}-{at_once}"
                    started.clear()
                    large.clear()
                    assert main([self.experiment, "--ensemble", ensemble, *size, "--seed", "5",
                                 *self.at(tmp_path, p), "--repeats", draws, "--kind", "both",
                                 "--output", str(out)]) == EXIT_OK
                    # a thread exactly where two quotients reach the floor:
                    # never at p = 0 or 1, nor for the rank-one ensembles,
                    # whose raw quotients are certified (0 classes)
                    assert len(started) == at_once * sum(large)
                    if p in ("0", "1") or ensemble.endswith("rank1"):
                        assert not any(large)
                    elif ensemble in ("gaussian", "torus") and p == "0.2":
                        assert sum(large) == int(draws)
                    written[at_once] = ({f.name: f.read_bytes() for f in out.iterdir()},
                                        capsys.readouterr().out)
                assert len(written[True][0]) == 4
                assert written[True] == written[False], (p, draws)

    def test_torus_snapshot_starts_one_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(curves, "_concurrent_solves", lambda: True)
        started = self.threads_started(monkeypatch)
        assert self.run(tmp_path, ensemble="torus", p="0.2") == EXIT_OK
        assert [thread.name for thread in started] == ["specfilt-solve"]

    @pytest.mark.parametrize("failing", [("raw",), ("normalized",), ("raw", "normalized")],
                             ids=["first", "second", "both"])
    def test_numerical_failure_is_the_serial_line(self, tmp_path, monkeypatch, capsys,
                                                  failing):
        solve = curves.eigenvalues

        def failing_solve(quotient):
            if quotient.kind in failing:
                raise NumericalError(f"synthetic {quotient.kind} failure")
            return solve(quotient)

        monkeypatch.setattr(curves, "eigenvalues", failing_solve)
        reported = {}
        for at_once in (False, True):
            monkeypatch.setattr(curves, "_concurrent_solves", lambda: at_once)
            assert self.run(tmp_path) == EXIT_NUMERICAL
            reported[at_once] = capsys.readouterr()
        assert reported[True] == reported[False]
        assert reported[True].out == ""
        assert reported[True].err == (
            f"specfilt: numerical failure at p=0.3: synthetic {failing[0]} failure\n")

    def test_out_of_memory_in_the_worker_is_one_usage_line(self, tmp_path, monkeypatch,
                                                           capsys):
        solve, threads = curves.eigenvalues, []

        def exhausted(quotient):
            if quotient.kind == "normalized":
                threads.append(threading.current_thread())
                raise MemoryError()
            return solve(quotient)

        monkeypatch.setattr(curves, "eigenvalues", exhausted)
        for at_once in (False, True):
            monkeypatch.setattr(curves, "_concurrent_solves", lambda: at_once)
            assert self.run(tmp_path) == EXIT_USAGE
            assert capsys.readouterr().err == "specfilt: error: not enough memory for n=80\n"
        assert threads[0] is threading.main_thread() is not threads[1]

    def test_interrupt_does_not_wait_for_the_worker(self, tmp_path, monkeypatch, capsys):
        solve, release, solved = curves.eigenvalues, threading.Event(), []

        def interrupted(quotient):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            release.wait(timeout=30)  # a solve that outlasts the main thread's
            solved.append(solve(quotient))
            return solved[-1]

        monkeypatch.setattr(curves, "eigenvalues", interrupted)
        monkeypatch.setattr(curves, "_concurrent_solves", lambda: True)
        started = self.threads_started(monkeypatch)
        try:
            assert self.run(tmp_path) == EXIT_INTERRUPTED
            assert solved == []
        finally:
            release.set()
            for worker in started:
                worker.join(timeout=30)
        assert [(worker.daemon, worker.is_alive()) for worker in started] == [(True, False)]
        assert len(solved) == 1
        assert capsys.readouterr().err == "specfilt: interrupted\n"

    @pytest.mark.parametrize("cpus,env,at_once", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (4, {"GOTO_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {}, False),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ], ids=["openblas", "goto", "omp", "openblas-0", "one-cpu", "unset", "two-threads",
            "first-set-wins"])
    def test_threads_only_on_two_cpus_with_one_blas_thread(self, tmp_path, monkeypatch,
                                                           cpus, env, at_once):
        # the variables are read as OpenBLAS reads them at load time; the
        # library's own BLAS is not affected by setting them here
        for var in curves._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(_worker, "cpu_count", lambda: cpus)
        assert curves._concurrent_solves() is at_once
        started = self.threads_started(monkeypatch)
        assert self.run(tmp_path) == EXIT_OK
        assert len(started) == at_once

    def test_single_kind_starts_no_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(curves, "_concurrent_solves", lambda: True)
        started = self.threads_started(monkeypatch)
        assert self.run(tmp_path, "--kind", "raw") == EXIT_OK
        assert started == []

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 the caller's stack holds a call's arguments")
    def test_matrix_is_freed_before_the_quotients_are_assembled(self, tmp_path,
                                                                monkeypatch):
        made, freed = [], []  # a weak reference to each matrix drawn
        draw, assemble = cli._draw, curves.laplacian

        def tracking(config, seed):
            matrix = draw(config, seed)
            made.append(weakref.ref(matrix))
            return matrix

        def checking(graph, kind):
            freed.append(made[-1]() is None)
            return assemble(graph, kind)

        monkeypatch.setattr(cli, "_draw", tracking)
        monkeypatch.setattr(curves, "laplacian", checking)
        assert self.run(tmp_path, "--repeats", "2") == EXIT_OK
        assert freed == [True] * 4

    @pytest.mark.parametrize("ensemble", ["gaussian", "torus"])
    def test_one_quotient_at_a_time_one_after_the_other(self, tmp_path, monkeypatch,
                                                        capsys, ensemble):
        # solved at once, both quotients are assembled before either solve
        made, alive = [], []  # weak references to every quotient, live ones per assembly
        assemble = curves.laplacian

        def tracking(graph, kind):
            quotient = assemble(graph, kind)
            made.append(weakref.ref(quotient))
            alive.append(sum(ref() is not None for ref in made))
            return quotient

        monkeypatch.setattr(curves, "laplacian", tracking)
        written = {}
        for at_once in (True, False):
            monkeypatch.setattr(curves, "_concurrent_solves", lambda: at_once)
            made.clear()
            alive.clear()
            work = tmp_path / str(at_once)
            work.mkdir()
            assert self.run(work, ensemble=ensemble) == EXIT_OK
            assert alive == ([1, 2] if at_once else [1, 1])
            out = work / "out"
            written[at_once] = ({f.name: f.read_bytes() for f in out.iterdir()},
                                capsys.readouterr().out)
        assert len(written[False][0]) == 4
        assert written[False] == written[True]


class TestGapCurveSolvesAtOnce(TestSolvesAtOnce):
    """The cases above as ``gap-curve`` runs on a one-point grid, and the
    benchmark's sweep, whose quotients are too small to solve at once."""

    experiment = "gap-curve"

    @staticmethod
    def at(tmp_path, p):
        grid = tmp_path / f"grid-{p}.txt"
        grid.write_text(f"{p}\n")
        return ["--grid", f"file:{grid}"]

    def test_rank_one_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        # wishart-rank1, n = 500, uniform:50: every raw quotient has at
        # most 6 classes
        monkeypatch.setattr(curves, "_concurrent_solves", lambda: True)
        started = self.threads_started(monkeypatch)
        assert main(["gap-curve", "--ensemble", "wishart-rank1", "--n", "500", "--seed", "1",
                     "--kind", "both", "--grid", "uniform:50",
                     "--output", str(tmp_path)]) == EXIT_OK
        assert started == []


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                    reason="a sweep is split only where a worker can be forked and moved")
class TestSweepInTwoProcesses:
    """A gap sweep of at least ``curves._MIN_SPLIT_N`` vertices, on two or
    more CPUs with a one-thread BLAS, hands its odd-indexed connected
    checkpoints to a forked worker; its files, stdout, messages and exit
    codes are those of one process, whatever the worker does."""

    FLOOR = str(curves._MIN_SPLIT_N)

    @pytest.fixture(autouse=True)
    def two_cpus_one_blas_thread(self, monkeypatch):
        # the gate as on a 2-CPU host with OPENBLAS_NUM_THREADS=1, whatever
        # this host and environment are; the loaded BLAS is not affected
        for var in curves._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(_worker, "cpu_count", lambda: 2)

    @staticmethod
    def run(tmp_path, capsys, argv, split=True):
        """The exit status, written files and captured output of one run,
        in two processes where the gate allows, or in one with split off."""
        out = tmp_path / ("split" if split else "serial")
        with pytest.MonkeyPatch.context() as patch:
            if not split:
                patch.setattr(curves, "_split_sweep", lambda n, checkpoints: False)
            code = main([*argv, "--output", str(out)])
        written = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return code, written, capsys.readouterr()

    @pytest.mark.parametrize("n", [FLOOR, "500"])
    @pytest.mark.parametrize("ensemble", ["gaussian", "positive-rank1", "wishart-rank1",
                                          "circle", "torus"])
    def test_same_bytes_as_one_process(self, tmp_path, capsys, forks, ensemble, n):
        runs = [("gap-curve", kind, "1") for kind in ("both", "raw", "normalized")]
        runs += [("gap-curve", "both", "3"), ("sqrt-gap", "both", "1")]
        for experiment, kind, repeats in runs:
            argv = [experiment, "--ensemble", ensemble, "--n", n, "--seed", "3",
                    "--kind", kind, "--repeats", repeats, "--grid", "uniform:3"]
            forks.clear()
            split = self.run(tmp_path, capsys, argv)
            # a worker per draw, but for a raw sweep of a rank-one matrix
            raw_rank_one = kind == "raw" and ensemble.endswith("rank1")
            assert len(forks) == (0 if raw_rank_one else int(repeats)), argv
            serial = self.run(tmp_path, capsys, argv, split=False)
            assert len(forks) == (0 if raw_rank_one else int(repeats))
            assert split[0] == EXIT_OK and len(split[1]) == (4 if kind == "both" else 2)
            assert split == serial, argv

    @staticmethod
    def failing_at(monkeypatch, densities):
        """Raise a NumericalError in every assembly of a snapshot at one of
        ``densities`` (n = 400, so C(n, 2) = 79800 pairs)."""
        assemble = curves.laplacian
        counts = {round(p * 79800) for p in densities}

        def failing(graph, kind):
            if graph.edge_count in counts:
                raise NumericalError(f"synthetic failure at m={graph.edge_count}")
            return assemble(graph, kind)

        monkeypatch.setattr(curves, "laplacian", failing)

    # uniform:4 at n = 400: the connected checkpoints are p = 0.25 and 0.75
    # here, 0.5 and 1 in the worker
    @pytest.mark.parametrize("densities", [(0.5, 0.75), (0.25, 1.0), (0.75,), (1.0,)],
                             ids=["worker-first", "here-first", "here-only", "worker-only"])
    def test_first_failure_in_density_order_is_the_serial_line(self, tmp_path, monkeypatch,
                                                              capsys, forks, densities):
        self.failing_at(monkeypatch, densities)
        argv = ["gap-curve", "--ensemble", "gaussian", "--n", "400", "--seed", "2",
                "--kind", "both", "--grid", "uniform:4"]
        split = self.run(tmp_path, capsys, argv)
        assert len(forks) == 1
        assert split == self.run(tmp_path, capsys, argv, split=False)
        assert split[:2] == (EXIT_NUMERICAL, {})
        assert split[2].err == (f"specfilt: numerical failure at p={densities[0]:g}: "
                                f"synthetic failure at m={round(densities[0] * 79800)}\n")

    @pytest.mark.parametrize("fault", ["fails", "exits", "killed", "fork-refused"])
    def test_a_worker_that_fails_changes_nothing(self, tmp_path, monkeypatch, capsys, forks,
                                                fault):
        # the worker fails at its first checkpoint, ends after sending one
        # checkpoint's gaps, or is killed then; or it cannot be forked at all
        # (os.fork raising EAGAIN must not make the run an i/o error)
        here, assemble, send, sent = os.getpid(), curves.laplacian, _worker.send, []

        def failing(graph, kind):
            if os.getpid() != here:
                raise NumericalError("synthetic failure in the worker")
            return assemble(graph, kind)

        def faulty(out, data):
            if len(sent) == 1:
                if fault == "exits":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(send(out, data))

        def refused():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        if fault == "fails":
            monkeypatch.setattr(curves, "laplacian", failing)
        elif fault == "fork-refused":
            monkeypatch.setattr(os, "fork", refused)
        else:
            monkeypatch.setattr(_worker, "send", faulty)
        argv = ["gap-curve", "--ensemble", "wishart-rank1", "--n", "400", "--seed", "4",
                "--kind", "both", "--grid", "uniform:8"]
        cpus = os.sched_getaffinity(0)
        split = self.run(tmp_path, capsys, argv)
        assert len(forks) == (fault != "fork-refused")
        assert os.sched_getaffinity(0) == cpus
        assert sent == []  # only the worker sent anything
        assert split[0] == EXIT_OK and len(split[1]) == 4
        assert split == self.run(tmp_path, capsys, argv, split=False)

    @pytest.mark.parametrize("case", ["at-the-floor", "below-the-floor", "one-cpu",
                                      "two-blas-threads", "blas-unset", "raw-rank-one"])
    def test_fork_only_where_the_gate_allows(self, tmp_path, monkeypatch, capsys, forks,
                                             case):
        n = int(self.FLOOR) - (case == "below-the-floor")
        if case == "one-cpu":
            monkeypatch.setattr(_worker, "cpu_count", lambda: 1)
        elif case == "two-blas-threads":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        elif case == "blas-unset":
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        kind = "raw" if case == "raw-rank-one" else "both"
        argv = ["gap-curve", "--ensemble", "wishart-rank1", "--n", str(n), "--kind", kind,
                "--grid", "uniform:4"]
        assert self.run(tmp_path, capsys, argv)[0] == EXIT_OK
        assert len(forks) == (case == "at-the-floor")

    def test_no_fork_beside_another_thread(self, tmp_path, capsys, forks, second_thread):
        argv = ["gap-curve", "--ensemble", "gaussian", "--n", self.FLOOR, "--kind", "both",
                "--grid", "uniform:2"]
        assert self.run(tmp_path, capsys, argv)[0] == EXIT_OK
        assert forks == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGINT], ids=["kill", "interrupt"])
    def test_no_worker_outlives_a_killed_run(self, tmp_path, running, sig):
        # the worker, once started, writes its pid to a file and takes a
        # minute; the run is then killed outright (no cleanup: the kernel
        # ends the worker) or interrupted (its finally kills the worker)
        started = tmp_path / "worker.pid"
        env = {k: v for k, v in os.environ.items() if k not in curves._BLAS_THREAD_VARS}
        env["OPENBLAS_NUM_THREADS"] = "1"
        run = subprocess.Popen([sys.executable, "-c", _SLOW_SWEEP, str(SRC), str(started),
                                str(tmp_path / "out")], env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not started.exists():
                assert run.poll() is None and time.monotonic() < deadline, run.stderr.read()
                time.sleep(0.01)
            worker = int(started.read_text())
            run.send_signal(sig)
            code = run.wait(timeout=60)
            deadline = time.monotonic() + 1
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not running(worker)
            if sig == signal.SIGINT:
                assert (code, run.stderr.read()) == (EXIT_INTERRUPTED, "specfilt: interrupted\n")
            else:
                assert code == -signal.SIGKILL
        finally:
            run.kill()
            run.wait()
            run.stderr.close()
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)


SRC = Path(cli.__file__).resolve().parents[1]

# a split gap sweep whose worker, once started, writes its pid to argv[2]
# and sleeps a minute before its part of the sweep
_SLOW_SWEEP = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from specfilt import _worker, cli, curves
_worker.cpu_count = lambda: 2
send_gaps = curves._send_gaps
def slow(*args):
    with open(sys.argv[2] + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(sys.argv[2] + ".tmp", sys.argv[2])
    time.sleep(60)
    send_gaps(*args)
curves._send_gaps = slow
sys.exit(cli.main(["gap-curve", "--ensemble", "wishart-rank1", "--n", "400",
                   "--grid", "uniform:4", "--output", sys.argv[3]]))
"""


class TestMatrixFile:
    @staticmethod
    def run_matrix(tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        return main(["density", "--ensemble", "matrix-file", "--matrix", str(path),
                     "--p", "0.5", "--output", str(tmp_path)])

    def test_one_wide_row_is_not_square(self, tmp_path, capsys):
        # the first row's width must not size an n x n array (32 GiB here)
        code = self.run_matrix(tmp_path, ",".join(["0"] * MAX_N) + "\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix file must be square\n")

    def test_one_cell_file_is_too_small(self, tmp_path, capsys):
        code = self.run_matrix(tmp_path, "0\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix size must be at least 2\n")

    def test_more_rows_than_the_rank_matrix_holds(self, tmp_path, monkeypatch, capsys):
        # the first row's cell count is the size, refused before any cell
        # is parsed or any n x n array is allocated
        def unreached(*args, **kwargs):
            raise AssertionError("a cell was parsed")

        monkeypatch.setattr(output.np, "loadtxt", unreached)
        assert self.run_matrix(tmp_path, ",".join(["0"] * (MAX_N + 1)) + "\n1,0\n") == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"specfilt: error: --matrix: matrix size must be at most {MAX_N}\n")

    def test_blank_only_file_is_empty(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run_matrix(tmp_path, "\n \n\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "specfilt: error: --matrix: matrix file is empty\n"

    def test_overflowing_asymmetry_warns_nothing(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run_matrix(tmp_path, "0,1.7e308\n-1.7e308,0\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix file is not symmetric\n")

    @pytest.mark.parametrize("text,line,column", [
        ("\n\n0,1\n1,abc\n", 4, 2),
        ("abc,1\n1,0\n", 1, 1),
        ("0,1,2\n \n\n1,0,3\n\n2,3,abc\n", 6, 3),
    ])
    def test_unparsable_cell_is_named_by_file_line(self, tmp_path, capsys, text, line, column):
        assert self.run_matrix(tmp_path, text) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: could not convert string 'abc' to float64 "
            f"on line {line}, column {column}\n")

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                        reason="no worker without os.fork and os.sched_setaffinity")
    def test_bad_cell_in_the_workers_part_is_one_usage_line(self, tmp_path, monkeypatch,
                                                          capsys, forks):
        # the file is split just past the newline past its middle, so the
        # worker parses the last row
        monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(_worker, "cpu_count", lambda: 2)
        text = "0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,abc,0\n"
        assert self.run_matrix(tmp_path, text) == EXIT_USAGE
        assert len(forks) == 1
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: could not convert string 'abc' to float64 "
            "on line 4, column 3\n")

    # the reader's finiteness check is the only one: the filtration and
    # the snapshot take the matrix as it is
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_usage_error(self, tmp_path, capsys, cell):
        text = f"0,1,2,3\n1,0,4,5\n2,4,0,{cell}\n3,5,{cell},0\n"
        assert self.run_matrix(tmp_path, text) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix entries must be finite\n")

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                        reason="no worker without os.fork and os.sched_setaffinity")
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_in_the_workers_part_is_usage_error(self, tmp_path, monkeypatch,
                                                               capsys, cell):
        monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(_worker, "cpu_count", lambda: 2)
        read_in_two, parts = _twopart.read_in_two, []

        def recorded(fh, split, path):
            parts.append((split, read_in_two(fh, split, path)))
            return parts[-1][1]

        monkeypatch.setattr(_twopart, "read_in_two", recorded)
        text = f"0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,{cell},0\n"
        assert self.run_matrix(tmp_path, text) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix entries must be finite\n")
        # both parts were parsed, and the worker's held the cell
        (split, dense), = parts
        assert text.index(cell) >= split
        assert not np.isfinite(dense[3, 2])

    def test_out_of_memory_names_the_file(self, tmp_path, monkeypatch, capsys):
        # the size is not known before the file is read
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(cli, "read_matrix_csv", exhausted)
        assert self.run_matrix(tmp_path, "0,1\n1,0\n") == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"specfilt: error: not enough memory for the matrix in {tmp_path / 'matrix.csv'}\n")

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, sample_wishart_rank_one(15, 3).dense)
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        written = {}
        for name, matrix in (("plain", path), ("bom", bom_path)):
            out = tmp_path / name
            assert main(["gap-curve", "--ensemble", "matrix-file", "--matrix", str(matrix),
                         "--grid", "uniform:6", "--output", str(out)]) == EXIT_OK
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written["plain"]) == 4
        assert written["bom"] == written["plain"]

    def test_matrix_from_stdin(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, sample_wishart_rank_one(15, 3).dense)
        argv = ["gap-curve", "--ensemble", "matrix-file", "--kind", "raw",
                "--grid", "uniform:6"]
        assert main(argv + ["--matrix", str(path), "--output", str(tmp_path / "file")]) == EXIT_OK
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "specfilt", *argv, "--matrix", "/dev/stdin",
             "--output", str(tmp_path / "stdin")],
            input=path.read_text(), capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        name = "gap-curve-matrix-file-raw.csv"
        assert (tmp_path / "stdin" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestReproducibility:
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    @pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
    def test_each_kind_of_both_is_its_single_kind_run(self, tmp_path, capsys, experiment,
                                                      ensemble):
        if ensemble == "matrix-file":
            path = tmp_path / "matrix.csv"
            write_matrix_file(path, distance_matrix(sample_noisy_circle(24, 0.1, 4)).dense)
            size = ["--matrix", str(path)]
        else:
            size = ["--n", "24", "--seed", "4"]
        extra = ["--p", "0.3"] if experiment == "density" else []
        runs = {}
        for kind in ("both", "raw", "normalized"):
            out = tmp_path / kind
            assert main([experiment, "--ensemble", ensemble, *size, *extra, "--kind", kind,
                         "--output", str(out)]) == EXIT_OK
            runs[kind] = ({f.name: f.read_bytes() for f in out.iterdir()},
                          capsys.readouterr().out.splitlines())
        files, lines = runs["both"]
        assert len(files) == 4 and len(lines) == 2
        for index, kind in enumerate(("raw", "normalized")):
            assert {name: data for name, data in files.items()
                    if name.rsplit(".", 1)[0].endswith(f"-{kind}")} == runs[kind][0]
            assert [lines[index]] == runs[kind][1]

    def test_same_arguments_same_bytes(self, tmp_path):
        argv = ["density", "--ensemble", "wishart-rank1", "--n", "50", "--seed", "6",
                "--p", "0.3", "--output", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = {
            p.name: file_digest(p) for p in tmp_path.iterdir() if p.is_file()
        }
        assert main(argv) == EXIT_OK
        second = {
            p.name: file_digest(p) for p in tmp_path.iterdir() if p.is_file()
        }
        assert first == second
        assert len(first) == 4

    def test_svg_plots_exactly_the_csv_rows(self, tmp_path):
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "18", "--seed", "8",
             "--kind", "raw", "--grid", "uniform:12", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        xs, _ = read_curve_csv(tmp_path / "gap-curve-gaussian-raw.csv")
        svg = (tmp_path / "gap-curve-gaussian-raw.svg").read_text()
        points_attr = svg.split('<polyline points="')[1].split('"')[0]
        assert len(points_attr.split()) == len(xs)

    def test_python_dash_m_entry_point(self, tmp_path):
        argv = [sys.executable, "-m", "specfilt", "gap-curve", "--ensemble",
                "gaussian", "--n", "12", "--seed", "3", "--kind", "raw",
                "--grid", "uniform:4", "--output", str(tmp_path)]
        # the child imports specfilt from where this process did
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK
        assert (tmp_path / "gap-curve-gaussian-raw.csv").exists()
        assert "gap-curve gaussian raw" in proc.stdout

    def test_complete_graph_gap_is_written_exactly(self, tmp_path):
        n = 500
        argv = ["gap-curve", "--ensemble", "gaussian", "--n", str(n), "--grid", "uniform:1",
                "--output", str(tmp_path)]
        assert main(argv) == EXIT_OK
        for kind, gap in (("raw", n), ("normalized", n / (n - 1))):
            xs, ys = read_curve_csv(tmp_path / f"gap-curve-gaussian-{kind}.csv")
            assert xs[-1] == 1.0 and ys[-1] == gap

    def test_rank_one_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # the rank-one snapshots are full of twins: whatever size of quotient
        # their spectra come from, the thread count must not move a byte
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        written = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            for ensemble in ("wishart-rank1", "positive-rank1"):
                for experiment in (["gap-curve"], ["density", "--p", "0.3"]):
                    proc = subprocess.run(
                        [sys.executable, "-m", "specfilt", *experiment, "--ensemble", ensemble,
                         "--n", "60", "--seed", "5", "--kind", "raw", "--output", str(out)],
                        capture_output=True, text=True, env=env)
                    assert proc.returncode == EXIT_OK, proc.stderr
            written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written["1"]) == 8
        assert written["1"] == written["2"]


@pytest.mark.parametrize("experiment", ["gap-curve", "std-curve"])
def test_curve_runs_do_not_import_numpy_ma(tmp_path, experiment):
    # numpy.ma takes about 10 ms to import; a fresh process shows whether a run pulls it in
    script = (
        "import sys, specfilt.cli\n"
        f"code = specfilt.cli.main(['{experiment}', '--ensemble', 'gaussian', '--n', '20',"
        f" '--output', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


def test_density_runs_import_no_pool_modules(tmp_path):
    # concurrent.futures and multiprocessing take milliseconds to import; the
    # second solve runs on a plain threading.Thread, and threading is loaded
    # by numpy already
    script = (
        "import sys, specfilt.cli\n"
        "code = specfilt.cli.main(['density', '--ensemble', 'gaussian', '--n', '20',"
        f" '--p', '0.5', '--kind', 'both', '--output', {str(tmp_path)!r}])\n"
        "print(code, [name for name in ('concurrent.futures', 'multiprocessing')"
        " if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"
