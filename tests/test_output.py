"""CSV and SVG serialization: exact formats, round trips, determinism."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from specfilt import _twopart, output, svg
from specfilt.curves import CurveSeries, DensityGrid, gap_curve
from specfilt.ensembles import sample_gaussian_symmetric, sample_noisy_circle, distance_matrix
from specfilt.filtration import MAX_N
from specfilt.output import (
    format_real,
    read_matrix_csv,
    write_csv,
    write_svg,
)
from specfilt.spectra import RAW, Histogram

from oracles import matrix_csv_rows, read_curve_csv, write_matrix_file


class TestFormatReal:
    def test_exact_values_stay_unpadded(self):
        assert format_real(0.0) == "0"
        assert format_real(1.0) == "1"
        assert format_real(4.0) == "4"
        assert format_real(200.0) == "200"
        assert format_real(0.02) == "0.02"
        assert format_real(-0.5) == "-0.5"

    def test_twelve_significant_digits(self):
        assert format_real(1.0 / 3.0) == "0.333333333333"

    def test_falls_back_when_twelve_digits_lose_too_much(self):
        value = 1.0000000000015
        text = format_real(value)
        assert float(text) == value

    def test_round_trip_bound_on_random_values(self):
        rng = np.random.default_rng(12)
        for value in rng.normal(scale=10.0, size=1000):
            parsed = float(format_real(value))
            assert abs(parsed - value) <= 1e-12 * max(1.0, abs(value))


class TestCurveCsv:
    def test_exact_bytes(self, tmp_path):
        series = CurveSeries("gap", np.array([0.0, 1.0]), np.array([0.0, 4.0]))
        path = tmp_path / "curve.csv"
        write_csv(series, path)
        assert path.read_bytes() == b"p,value\n0,0\n1,4\n"

    def test_round_trip(self, tmp_path):
        mat = sample_gaussian_symmetric(25, 44)
        series, = gap_curve(mat, DensityGrid.uniform(20), (RAW,))
        path = tmp_path / "gap.csv"
        write_csv(series, path)
        xs, ys = read_curve_csv(path)
        assert np.all(np.abs(xs - series.xs) <= 1e-12 * np.maximum(1.0, np.abs(series.xs)))
        assert np.all(np.abs(ys - series.ys) <= 1e-12 * np.maximum(1.0, np.abs(series.ys)))

    def test_rejects_unknown_payload(self, tmp_path):
        # the payload is checked before the file is opened, so nothing is left
        with pytest.raises(TypeError):
            write_csv({"not": "supported"}, tmp_path / "x.csv")
        with pytest.raises(TypeError):
            write_svg({"not": "supported"}, tmp_path / "x.svg", "title")
        assert list(tmp_path.iterdir()) == []


class TestHistogramCsv:
    def test_format(self, tmp_path):
        hist = Histogram(
            bin_edges=np.array([0.0, 0.5, 1.0]),
            counts=np.array([2, 3]),
        )
        path = tmp_path / "hist.csv"
        write_csv(hist, path)
        assert path.read_text() == "bin_lo,bin_hi,count\n0,0.5,2\n0.5,1,3\n"


class TestSvg:
    def test_curve_has_exactly_one_polyline(self, tmp_path):
        series = CurveSeries("gap", np.array([0.0, 1.0]), np.array([0.0, 4.0]))
        path = tmp_path / "curve.svg"
        write_svg(series, path, "two point curve")
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "<rect" not in text
        assert "two point curve" in text

    def test_histogram_has_one_rect_per_bin(self, tmp_path):
        edges = np.linspace(0.0, 2.0, 101)
        counts = np.zeros(100, dtype=int)
        counts[50] = 7
        hist = Histogram(bin_edges=edges, counts=counts)
        path = tmp_path / "hist.svg"
        write_svg(hist, path, "hundred bins")
        text = path.read_text()
        assert text.count("<rect") == 100
        assert text.count("<polyline") == 0

    def test_bars_match_the_per_bin_formula(self):
        # uneven edges, as np.histogram gives over a raw range [0, n]
        rng = np.random.default_rng(3)
        counts, edges = np.histogram(rng.uniform(0.0, 37.0, 5000), bins=10**4,
                                     range=(0.0, 37.0))
        xlo, xhi = svg._padded(0.0, 37.0)
        ylo, yhi = svg._padded(0.0, float(counts.max()))
        px, py = svg._scales(xlo, xhi, ylo, yhi)
        base = py(0.0)
        expected = []
        for k in range(counts.size):
            left = px(edges[k])
            width = px(edges[k + 1]) - left
            top = py(float(counts[k]))
            expected.append(f'<rect x="{left:.2f}" y="{top:.2f}" width="{width:.2f}" '
                            f'height="{base - top:.2f}" {svg._BAR}/>')
        lines = list(svg.bar_chart(edges, counts, "ten thousand bins"))
        assert [line for line in lines if line.startswith("<rect")] == expected

    def test_deterministic_bytes(self, tmp_path):
        series = CurveSeries("std", np.linspace(0, 1, 40), np.sin(np.linspace(0, 3, 40)) ** 2)
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        write_svg(series, first, "same input")
        write_svg(series, second, "same input")
        assert first.read_bytes() == second.read_bytes()

    def test_title_is_escaped_and_no_external_references(self, tmp_path):
        series = CurveSeries("gap", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        path = tmp_path / "esc.svg"
        write_svg(series, path, "a < b & c")
        text = path.read_text()
        assert "a &lt; b &amp; c" in text
        assert "href" not in text
        assert "url(" not in text

    def test_flat_curve_renders(self, tmp_path):
        series = CurveSeries("gap", np.array([0.0, 1.0]), np.zeros(2))
        write_svg(series, tmp_path / "flat.svg", "flat")
        assert (tmp_path / "flat.svg").read_text().count("<polyline") == 1


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        mat = distance_matrix(sample_noisy_circle(12, seed=5))
        path = tmp_path / "matrix.csv"
        # each cell as the point-cloud demo writes it
        write_matrix_file(path, mat.dense, format_real)
        loaded = read_matrix_csv(path)
        assert loaded.n == 12
        bound = 1e-12 * np.maximum(1.0, np.abs(mat.dense))
        assert (np.abs(loaded.dense - mat.dense) <= bound).all()
        assert np.array_equal(loaded.dense, loaded.dense.T)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2,0\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty"):
                read_matrix_csv(path)

    def test_repr_values_round_trip_bit_exactly(self, tmp_path):
        dense = distance_matrix(sample_noisy_circle(30, seed=8)).dense
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, dense)
        loaded = read_matrix_csv(path)
        assert np.array_equal(loaded.dense.view(np.int64), dense.view(np.int64))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, distance_matrix(sample_noisy_circle(10, seed=2)).dense)
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(read_matrix_csv(bom_path).dense, read_matrix_csv(path).dense)

    def test_byte_order_mark_only_at_the_start(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes("0,1\n\ufeff1,0\n".encode())
        with pytest.raises(ValueError, match="could not convert.*on line 2, column 1"):
            read_matrix_csv(path)

    def test_crlf_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_bytes(b"\r\n0, 1.5 ,-2\r\n\r\n 1.5,0,3e0\r\n-2 ,3,  0\r\n\r\n\r\n")
        loaded = read_matrix_csv(path)
        assert loaded.dense.tolist() == [[0.0, 1.5, -2.0], [1.5, 0.0, 3.0], [-2.0, 3.0, 0.0]]

    def test_negative_zero_is_stored_as_zero(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("-0,1,-0.0\n1,-0.0,2\n0,2,0\n")
        loaded = read_matrix_csv(path).dense
        assert loaded.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]
        assert not np.signbit(loaded).any()

    # n = 400 spans two row blocks; (390, 10) lies left of the second
    # block's diagonal square, (380, 370) inside it
    @pytest.mark.parametrize("entry", [(390, 10), (380, 370), (10, 390)])
    def test_symmetry_is_checked_and_mirrored_across_row_blocks(self, tmp_path, entry):
        dense = distance_matrix(sample_noisy_circle(400, seed=3)).dense
        near = dense.copy()
        near[entry] += 1e-12
        far = dense.copy()
        far[entry] += 1e-6
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, near)
        upper = np.triu(near)
        assert np.array_equal(read_matrix_csv(path).dense, upper + np.triu(near, k=1).T)
        write_matrix_file(path, far)
        with pytest.raises(ValueError, match="not symmetric"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["0,1\n1,0,2\n", "0,1,2\n1,0\n2,0,1\n",
                                      "0,1\n1,0\n0,0\n", "0,1,2\n1,0,3\n"])
    def test_ragged_or_non_square_rows(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="must be square"):
            read_matrix_csv(path)

    # "1_0" is a float() literal; "0 # x" would read as 0 if "#" began a comment
    @pytest.mark.parametrize("cell", ["abc", "0x10", "", "1 2", "1_0", "0 # x"])
    def test_unparsable_cell(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1\n1,{cell}\n")
        with pytest.raises(ValueError, match="could not convert"):
            read_matrix_csv(path)

    def test_blank_only_file_is_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n  \n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty"):
                read_matrix_csv(path)

    def test_undecodable_byte_is_not_a_shape_error(self, tmp_path):
        # the bad byte lies past the first decoded chunk, so it is met while
        # numpy is reading lines, not while the first line is looked for;
        # it is named by its line and column, not by its offset in a chunk
        path = tmp_path / "bad.csv"
        rows = [",".join(["0"] * 100)] * 100
        path.write_bytes("\n".join(rows).encode() + b"\xff\n")
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == "byte 0xff on line 100, column 100 is not UTF-8"

    @pytest.mark.parametrize("contents,message", [
        (b"\xfe0,1\n1,0\n", "byte 0xfe on line 1, column 1"),
        (b"0,1\n\n1,\x800\n", "byte 0x80 on line 3, column 2"),
        (b"0,1\n\xff\n", "byte 0xff on line 2, column 1"),  # a row of one cell
        (b"0,1\n1,0\xc3\n", "byte 0xc3 on line 2, column 2"),  # a sequence cut short
    ], ids=["first-row", "after-blank", "alone", "cut-short"])
    def test_byte_that_is_not_utf8_is_named_by_line_and_column(self, tmp_path, contents,
                                                               message):
        path = tmp_path / "bad.csv"
        path.write_bytes(contents)
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{message} is not UTF-8"

    def test_peak_memory_is_at_most_one_temporary_besides_the_matrix(self, tmp_path):
        dense = distance_matrix(sample_noisy_circle(400, seed=4)).dense
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, dense)
        tracemalloc.start()
        try:
            read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * dense.nbytes, (peak, dense.nbytes)


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="the worker is started by posix_spawn")
class TestMatrixCsvInTwoParts:
    """A large regular file is parsed in two parts at once, the second by a worker."""

    @pytest.fixture
    def workers(self, monkeypatch):
        # every regular file is split, whatever its size and the host's
        # CPUs; the list collects the pid of every worker started
        monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(_twopart, "_cpu_count", lambda: 2)
        started = []
        spawn = os.posix_spawn

        def counted(*args, **kwargs):
            started.append(spawn(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(os, "posix_spawn", counted)
        return started

    @pytest.fixture
    def in_two(self, monkeypatch):
        # every matrix read_in_two returns; one that raised, and so left the
        # file to a one-part read, adds none
        read_in_two = _twopart.read_in_two
        returned = []

        def recorded(*args):
            returned.append(read_in_two(*args))
            return returned[-1]

        monkeypatch.setattr(_twopart, "read_in_two", recorded)
        return returned

    @staticmethod
    def write(path, rows):
        """Write rows as CRLF lines after a byte-order mark, with no line end
        after the last, and blank lines on both sides of the split."""
        head = "".join(f"{row}\r\n" for row in rows[:len(rows) // 2])
        tail = "\r\n".join(rows[len(rows) // 2:])
        # enough 3-byte blank lines that the middle falls among them
        blanks = " \r\n" * (abs(len(head) - len(tail)) // 3 + 5)
        path.write_bytes(("\ufeff" + head + blanks + tail).encode())
        with open(path, "rb") as fh:
            split = _twopart.split_point(fh)
        assert path.read_bytes()[split - 6:split + 6] == b" \r\n" * 4
        return split

    def test_two_parts_equal_one_part_bit_for_bit(self, tmp_path, workers):
        # the parse alone: any array will do, square or not
        dense = np.random.default_rng(5).standard_normal((40, 40)) * 1e-300
        path = tmp_path / "matrix.csv"
        split = self.write(path, matrix_csv_rows(dense))
        with open(path, "rb") as fh:
            two = _twopart.read_in_two(fh, split, path)
        with open(path, "rb") as fh:
            one = output._parse(fh)[1]
        assert len(workers) == 1
        assert np.array_equal(two.view(np.int64), one.view(np.int64))
        assert np.array_equal(two.view(np.int64), dense.view(np.int64))

    def test_read_takes_the_second_part_from_the_worker(self, tmp_path, workers, in_two,
                                                        monkeypatch):
        dense = distance_matrix(sample_noisy_circle(40, seed=6)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))
        two = read_matrix_csv(path).dense
        monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 10**18)
        one = read_matrix_csv(path).dense
        assert len(workers) == 1
        assert len(in_two) == 1 and isinstance(in_two[0], np.ndarray)
        assert np.array_equal(two.view(np.int64), one.view(np.int64))
        assert np.array_equal(two, dense)

    def test_worker_imports_this_specfilt_before_the_working_directory(
            self, tmp_path, workers, in_two, monkeypatch):
        # python -c puts the working directory first on the worker's path
        decoy = tmp_path / "cwd" / "specfilt"
        decoy.mkdir(parents=True)
        (decoy / "__init__.py").write_text('raise ImportError("a decoy specfilt")\n')
        monkeypatch.chdir(decoy.parent)
        dense = distance_matrix(sample_noisy_circle(40, seed=6)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))
        assert np.array_equal(read_matrix_csv(path).dense, dense)
        assert len(workers) == 1
        assert len(in_two) == 1 and isinstance(in_two[0], np.ndarray)

    def test_rows_that_arrive_in_pieces_are_read_whole(self, tmp_path, workers, in_two,
                                                       monkeypatch):
        # each readinto of the pipe must wait for the whole array, however
        # the worker's writes are cut and spaced
        dense = distance_matrix(sample_noisy_circle(200, seed=6)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))
        monkeypatch.setattr(_twopart, "_WORKER", _TRICKLING_WORKER)
        assert np.array_equal(read_matrix_csv(path).dense, dense)
        assert len(workers) == 1
        assert len(in_two) == 1 and isinstance(in_two[0], np.ndarray)

    # "wider" and "longer" parse cleanly in the worker, which then sends
    # a shape other than the rows the first part leaves; a fault in the
    # first part ("-3": in row 3, or a first row too wide) raises while
    # the worker parses, and the worker is killed
    @pytest.mark.parametrize("fault", ["cell", "ragged", "byte", "wider", "longer",
                                       "cell-3", "byte-3", "wide"])
    def test_error_in_the_second_part_is_the_one_part_error(self, tmp_path, workers,
                                                           monkeypatch, fault):
        rows = matrix_csv_rows(distance_matrix(sample_noisy_circle(40, seed=7)).dense)
        row = 3 if fault.endswith("-3") else 35
        fault = fault.removesuffix("-3")
        cells = rows[row].split(",")
        if fault in ("cell", "ragged", "byte"):
            cells[6] = {"cell": "abc", "ragged": f"{cells[6]},0", "byte": "1@"}[fault]
            rows[row] = ",".join(cells)
        elif fault == "wider":
            rows[20:] = [f"{text},0" for text in rows[20:]]
        elif fault == "wide":
            rows[0] = ",".join(["0"] * (MAX_N + 1))
        else:
            rows.append(rows[0])
        path = tmp_path / "matrix.csv"
        self.write(path, rows)
        path.write_bytes(path.read_bytes().replace(b"@", b"\xff"))
        with pytest.raises(ValueError) as two:
            read_matrix_csv(path)
        assert len(workers) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 10**18)
        with pytest.raises(ValueError) as one:
            read_matrix_csv(path)
        assert len(workers) == 1
        assert (type(two.value), str(two.value)) == (type(one.value), str(one.value))
        if fault == "cell":
            line = path.read_bytes().split(b"\r\n").index(rows[row].encode()) + 1
            assert str(two.value) == (
                f"could not convert string 'abc' to float64 on line {line}, column 7")
        if fault == "wide":
            assert str(two.value) == f"matrix size must be at most {MAX_N}"

    def test_a_first_part_of_blank_lines_is_read_in_one_part(self, tmp_path, workers):
        path = tmp_path / "matrix.csv"
        path.write_text(" \n" * 100 + "".join(f"{row}\n" for row in matrix_csv_rows(np.eye(3))))
        with open(path, "rb") as fh:
            assert _twopart.split_point(fh) < 200
        assert np.array_equal(read_matrix_csv(path).dense, np.eye(3))
        assert len(workers) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("worker", ["import sys; sys.exit(3)",
                                        "import sys; sys.stdout.buffer.write(bytes(16))",
                                        "import sys; sys.stdout.buffer.write(b'short')"])
    def test_a_failing_worker_leaves_the_file_to_one_part(self, tmp_path, workers,
                                                          monkeypatch, worker):
        dense = distance_matrix(sample_noisy_circle(40, seed=8)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))
        monkeypatch.setattr(_twopart, "_WORKER", worker)
        assert np.array_equal(read_matrix_csv(path).dense, dense)
        assert len(workers) == 1

    def test_a_worker_that_cannot_start_leaves_the_file_to_one_part(self, tmp_path, workers,
                                                                    monkeypatch):
        dense = distance_matrix(sample_noisy_circle(40, seed=8)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))

        def refused(*args, **kwargs):
            raise OSError("no process")

        monkeypatch.setattr(os, "posix_spawn", refused)
        assert np.array_equal(read_matrix_csv(path).dense, dense)

    def test_an_empty_interpreter_path_leaves_the_file_to_one_part(self, tmp_path, workers,
                                                                  monkeypatch):
        # posix_spawn refuses an empty program path with ValueError
        dense = distance_matrix(sample_noisy_circle(40, seed=8)).dense
        path = tmp_path / "matrix.csv"
        self.write(path, matrix_csv_rows(dense))
        monkeypatch.setattr(sys, "executable", "")
        assert np.array_equal(read_matrix_csv(path).dense, dense)
        assert workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_is_read_in_one_part(self, workers):
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:
            fh.write("\n".join(matrix_csv_rows(np.eye(40))).encode())
        try:
            loaded = read_matrix_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert np.array_equal(loaded.dense, np.eye(40))
        assert workers == []

    def test_small_file_or_one_cpu_is_one_part(self, tmp_path, monkeypatch):
        path = tmp_path / "matrix.csv"
        path.write_text("0,1\n1,0\n \n")
        monkeypatch.setattr(_twopart, "_cpu_count", lambda: 2)
        with open(path, "rb") as fh:
            assert _twopart.split_point(fh) is None  # below SPLIT_MIN_BYTES
            monkeypatch.setattr(_twopart, "SPLIT_MIN_BYTES", 0)
            assert _twopart.split_point(fh) == 8  # past the newline past byte 5
            monkeypatch.setattr(_twopart, "_cpu_count", lambda: 1)
            assert _twopart.split_point(fh) is None

    @pytest.mark.parametrize("bad_row", [None, 3, 35])
    def test_no_worker_outlives_the_call(self, tmp_path, workers, bad_row):
        rows = matrix_csv_rows(distance_matrix(sample_noisy_circle(40, seed=9)).dense)
        if bad_row is not None:
            rows[bad_row] = "abc" + rows[bad_row][rows[bad_row].index(","):]
        path = tmp_path / "matrix.csv"
        self.write(path, rows)
        if bad_row is None:
            read_matrix_csv(path)
        else:
            with pytest.raises(ValueError, match="could not convert"):
                read_matrix_csv(path)
        assert len(workers) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_worker_parses_only_for_its_parent(self, tmp_path):
        # the worker's command run from here: this process is its parent
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, np.eye(4))
        for parent, rows in ((os.getpid(), np.eye(4)), (os.getppid(), None)):
            proc = subprocess.run([sys.executable, "-c", _twopart._WORKER, str(SRC), str(path),
                                   "0", str(parent)], capture_output=True, timeout=60)
            if rows is None:  # another parent: it has gone, nothing is parsed
                assert (proc.returncode, proc.stdout) == (1, b"")
            else:
                assert proc.returncode == 0, proc.stderr
                assert proc.stdout == np.array(rows.shape).tobytes() + rows.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    def test_the_worker_ends_with_a_killed_reader(self, tmp_path):
        # a reader killed outright runs no cleanup: the kernel must end its
        # worker, here one that takes 5 s over its part
        path = tmp_path / "matrix.csv"
        write_matrix_file(path, np.eye(40))
        started = tmp_path / "worker.pid"
        reader = subprocess.Popen([sys.executable, "-c", _SLOW_READER, str(SRC), str(path),
                                   str(started)], stdout=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not started.exists():
                assert reader.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            worker = int(started.read_text())
            reader.kill()
            reader.wait()
            deadline = time.monotonic() + 0.1
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not _running(worker)
        finally:
            reader.kill()
            reader.wait()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)


SRC = Path(_twopart.__file__).resolve().parents[1]

# the worker's output, written in pieces of 4097 bytes 1 ms apart
_TRICKLING_WORKER = """
import io, sys, time
sys.path.insert(0, sys.argv[1])
from specfilt import _twopart
pipe, sys.stdout = sys.stdout.buffer, io.TextIOWrapper(io.BytesIO())
_twopart.parse_tail(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
data = sys.stdout.buffer.getvalue()
for start in range(0, len(data), 4097):
    pipe.write(data[start:start + 4097])
    pipe.flush()
    time.sleep(0.001)
"""

# reads every file in two parts; its worker, once its parse has begun
# (past the parent-death setup), writes its pid to argv[3] and sleeps 5 s
_SLOW_READER = '''
import sys
sys.path.insert(0, sys.argv[1])
from specfilt import _twopart, output
_twopart.SPLIT_MIN_BYTES = 0
_twopart._cpu_count = lambda: 2
_twopart._WORKER = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from specfilt import _twopart
parse = _twopart._parse
def slow(raw, encoding):
    with open(STARTED + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(STARTED + ".tmp", STARTED)
    time.sleep(5)
    return parse(raw, encoding)
_twopart._parse = slow
_twopart.parse_tail(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
""".replace("STARTED", repr(sys.argv[3]))
output.read_matrix_csv(sys.argv[2])
'''


def _running(pid) -> bool:
    """Whether a process exists and has not ended (a zombie has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.parametrize("writer", ["csv", "svg"])
def test_writers_hold_less_than_the_file_they_write(tmp_path, writer):
    # every writer streams its lines, so its peak is a small buffer,
    # not the whole file (joining the lines first holds it 3 to 4 times)
    edges = np.linspace(0.0, 2.0, 10**4 + 1)
    hist = Histogram(bin_edges=edges, counts=np.arange(10**4) % 7)
    write, data = {
        "csv": (write_csv, hist),
        "svg": (lambda data, path: write_svg(data, path, "ten thousand bins"), hist),
    }[writer]
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        write(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)
