"""Command-line contract: parsing, run outputs, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import specfilt.cli as cli
import specfilt.curves as curves
import specfilt.output as output
from specfilt.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_args, run
from specfilt.curves import CurveSeries, DensityGrid, gap_curve
from specfilt.ensembles import sample_gaussian_symmetric, sample_wishart_rank_one
from specfilt.filtration import MAX_N, EdgeFiltration
from specfilt.output import write_csv, write_matrix_csv
from specfilt.spectra import NumericalError

from oracles import read_curve_csv


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
        assert parse_args(base + [f"uniform:{limit}"]).grid == f"uniform:{limit}"
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
        calls = []
        resolve = cli._resolve_grid

        def counting(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(cli, "_resolve_grid", counting)
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
             "--kind", "both", "--grid", f"file:{grid_path}",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_grid_file_unparsable_is_usage_error(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("0\nnot-a-number\n")
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
             "--grid", f"file:{grid_path}", "--output", str(tmp_path)]
        )
        assert code == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err

    def test_grid_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_bytes(b"\xff0.5\n")
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--seed", "1",
             "--grid", f"file:{grid_path}", "--output", str(tmp_path)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("specfilt: error: --grid file: ")
        assert err.count("\n") == 1

    def test_missing_grid_file_is_io_error(self, tmp_path):
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "16", "--seed", "1",
             "--grid", f"file:{tmp_path}/nope.txt", "--output", str(tmp_path)]
        )
        assert code == EXIT_IO

    def test_matrix_file_matches_direct_ensemble(self, tmp_path):
        mat = sample_wishart_rank_one(24, 9)
        matrix_path = tmp_path / "matrix.csv"
        write_matrix_csv(mat, matrix_path)
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


class TestOneFiltrationPerMatrix:
    """Every kind computed from one matrix shares one sort and, for the gap
    curve, one connectivity pass."""

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
        (["density", "--ensemble", "torus", "--n", "30", "--p", "0.3"], 1),
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
            draws = [gap_curve(sample_gaussian_symmetric(20, seed + k), grid, kind)
                     for k in range(repeats)]
            mean = CurveSeries("gap", draws[0].xs, np.mean([d.ys for d in draws], axis=0))
            expected = tmp_path / f"{kind}.csv"
            write_csv(mean, expected)
            written = tmp_path / "cli" / f"gap-curve-gaussian-{kind}.csv"
            assert written.read_bytes() == expected.read_bytes()


class TestMatrixFile:
    @staticmethod
    def run_matrix(tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        return main(["density", "--ensemble", "matrix-file", "--matrix", str(path),
                     "--p", "0.5", "--output", str(tmp_path)])

    def test_one_wide_row_is_not_square(self, tmp_path, capsys):
        # the first row's width must not size an n x n array (75 GiB here)
        code = self.run_matrix(tmp_path, ",".join(["0"] * 100_000) + "\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix file must be square\n")

    def test_one_cell_file_is_too_small(self, tmp_path, capsys):
        code = self.run_matrix(tmp_path, "0\n")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "specfilt: error: --matrix: matrix size must be at least 2\n")

    def test_more_rows_than_the_rank_matrix_holds(self, tmp_path, monkeypatch, capsys):
        # a read-only view of one zero stands in for the parsed file: the
        # size is refused before any n x n array is allocated
        monkeypatch.setattr(output.np, "loadtxt",
                            lambda *args, **kwargs: np.broadcast_to(0.0, (MAX_N + 1,) * 2))
        assert self.run_matrix(tmp_path, "0,1\n1,0\n") == EXIT_USAGE
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
        write_matrix_csv(sample_wishart_rank_one(15, 3), path)
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
        write_matrix_csv(sample_wishart_rank_one(15, 3), path)
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
