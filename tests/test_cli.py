"""Command-line contract: parsing, run outputs, exit codes, determinism."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

import specfilt.cli as cli
from specfilt.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_args, run
from specfilt.ensembles import sample_wishart_rank_one
from specfilt.output import read_curve_csv, write_matrix_csv
from specfilt.spectra import NumericalError


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
        for ensemble, sigma, message in (("torus", "1e308", "coordinates must be finite"),
                                         ("circle", "1e200", "matrix entries must be finite")):
            code = main(
                ["density", "--ensemble", ensemble, "--n", "10", "--p", "0.5",
                 "--sigma", sigma, "--output", str(tmp_path)]
            )
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("specfilt: error: ")
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
            raise NumericalError("synthetic failure", density=0.25)

        monkeypatch.setattr(cli, "gap_curve", explode)
        code = main(
            ["gap-curve", "--ensemble", "gaussian", "--n", "10", "--seed", "1",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_NUMERICAL
        assert "p=0.25" in capsys.readouterr().err


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
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert (tmp_path / "gap-curve-gaussian-raw.csv").exists()
        assert "gap-curve gaussian raw" in proc.stdout
