"""CSV and SVG serialization: exact formats, round trips, determinism."""

import tracemalloc
import warnings

import numpy as np
import pytest

from specfilt import svg
from specfilt.curves import CurveSeries, DensityGrid, gap_curve
from specfilt.ensembles import sample_gaussian_symmetric, sample_noisy_circle, distance_matrix
from specfilt.output import (
    format_real,
    read_matrix_csv,
    write_csv,
    write_matrix_csv,
    write_svg,
)
from specfilt.spectra import RAW, Histogram

from oracles import read_curve_csv


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
        series = gap_curve(mat, DensityGrid.uniform(20), RAW)
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

    def test_zero_bin_histogram_is_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0]), counts=np.array([], dtype=int))


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
        write_matrix_csv(mat, path)
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
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in dense.tolist()))
        loaded = read_matrix_csv(path)
        assert np.array_equal(loaded.dense.view(np.int64), dense.view(np.int64))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_csv(distance_matrix(sample_noisy_circle(10, seed=2)), path)
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
        # numpy is reading lines, not while the first line is looked for
        path = tmp_path / "bad.csv"
        rows = [",".join(["0"] * 100)] * 100
        path.write_bytes("\n".join(rows).encode() + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            read_matrix_csv(path)

    def test_peak_memory_is_at_most_one_temporary_besides_the_matrix(self, tmp_path):
        dense = distance_matrix(sample_noisy_circle(400, seed=4)).dense
        path = tmp_path / "matrix.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in dense.tolist()))
        tracemalloc.start()
        try:
            read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * dense.nbytes, (peak, dense.nbytes)


@pytest.mark.parametrize("writer", ["csv", "svg", "matrix"])
def test_writers_hold_less_than_the_file_they_write(tmp_path, writer):
    # every writer streams its lines, so its peak is a small buffer,
    # not the whole file (joining the lines first holds it 3 to 4 times)
    edges = np.linspace(0.0, 2.0, 10**4 + 1)
    hist = Histogram(bin_edges=edges, counts=np.arange(10**4) % 7)
    write, data = {
        "csv": (write_csv, hist),
        "svg": (lambda data, path: write_svg(data, path, "ten thousand bins"), hist),
        "matrix": (write_matrix_csv, distance_matrix(sample_noisy_circle(300, seed=2))),
    }[writer]
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        write(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)
