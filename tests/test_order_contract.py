"""The order is the contract: a filtration depends only on the order of
the entries above the diagonal, ties in (i, j) order.

Each test changes a matrix in a way whose effect on that order is known
(a map that keeps it, a negation that reverses it, a relabelling of the
vertices that permutes it), or builds one whose order is all ties, and
compares the outputs exactly.  None of them
shares the library's reading of the order with an oracle: a reading that
is wrong the same way everywhere still fails here.
"""

import itertools

import numpy as np
import pytest

from specfilt.cli import EXIT_OK, main
from specfilt.curves import DensityGrid, density_snapshot, gap_curve, std_curve
from specfilt.ensembles import (
    SymmetricMatrix,
    distance_matrix,
    sample_gaussian_symmetric,
    sample_noisy_circle,
    sample_noisy_torus,
    sample_positive_rank_one,
    sample_wishart_rank_one,
)
from specfilt.filtration import build_filtration, graph_at_density, stream_prefixes
from specfilt.output import read_matrix_csv
from specfilt.spectra import KINDS

from oracles import write_matrix_file

SAMPLES = {
    "gaussian": lambda n: sample_gaussian_symmetric(n, 3),
    "wishart-rank1": lambda n: sample_wishart_rank_one(n, 3),
    "positive-rank1": lambda n: sample_positive_rank_one(n, 3),
    "circle": lambda n: distance_matrix(sample_noisy_circle(n, 0.1, 3)),
    "torus": lambda n: distance_matrix(sample_noisy_torus(n, 2.0, 1.0, 0.1, 3)),
}


def order_kept(dense):
    """Each entry mapped to (its dense rank) * 0.5 - 7, the diagonal to
    1e9: a strictly increasing map of the entries, which keeps every tie,
    and a diagonal no pair reads."""
    _, rank = np.unique(dense, return_inverse=True)
    kept = rank.reshape(dense.shape) * 0.5 - 7
    np.fill_diagonal(kept, 1e9)
    return SymmetricMatrix(kept)


def as_bytes(results):
    return [b"".join(array.tobytes() for array in vars(result).values()
                     if isinstance(array, np.ndarray)) for result in results]


@pytest.mark.parametrize("ensemble", sorted(SAMPLES))
def test_an_order_keeping_map_moves_no_output_byte(ensemble):
    matrix = SAMPLES[ensemble](120)
    kept = order_kept(matrix.dense)
    grid = DensityGrid.uniform(20)
    for experiment in (lambda m: gap_curve(m, grid, KINDS),
                       lambda m: std_curve(m, grid, KINDS),
                       lambda m: density_snapshot(m, 0.3, KINDS, bins=40)):
        assert as_bytes(experiment(kept)) == as_bytes(experiment(matrix))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_all_ties_take_the_pairs_in_index_order(n):
    dense = np.full((n, n), 0.25)
    np.fill_diagonal(dense, -1.0)
    matrix = SymmetricMatrix(dense)
    pairs = list(itertools.combinations(range(n), 2))
    total = len(pairs)
    streamed = stream_prefixes(build_filtration(matrix), range(total + 1))
    for m, from_stream in zip(range(total + 1), streamed, strict=True):
        expected = np.zeros((n, n), dtype=bool)
        for i, j in pairs[:m]:
            expected[i, j] = expected[j, i] = True
        selected = graph_at_density(matrix, m / total)
        assert np.array_equal(selected.adjacency, expected), m
        assert np.array_equal(from_stream.adjacency, expected), m


@pytest.mark.parametrize("experiment,flags", [
    ("gap-curve", ["--grid", "uniform:10"]),
    ("std-curve", ["--grid", "uniform:10"]),
    ("density", ["--p", "0.3", "--bins", "20"]),
])
def test_the_cli_reads_only_the_order(tmp_path, experiment, flags):
    original = tmp_path / "original.csv"
    write_matrix_file(original, sample_wishart_rank_one(40, 5).dense)
    # transformed as read back, so both files hold the same order exactly
    transformed = tmp_path / "kept.csv"
    write_matrix_file(transformed, order_kept(read_matrix_csv(original).dense).dense)
    written = {}
    for path in (original, transformed):
        out = tmp_path / path.stem
        assert main([experiment, "--ensemble", "matrix-file", "--matrix", str(path),
                     "--kind", "both", "--output", str(out), *flags]) == EXIT_OK
        written[path.stem] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written["original"]) == 4
    assert written["kept"] == written["original"]


def tie_free(matrix):
    """The matrix, after checking that no two entries above its diagonal
    are equal: ties go in (i, j) order, which negation reverses and a
    relabelling permutes."""
    upper = matrix.dense[np.triu_indices(matrix.n, k=1)]
    assert np.unique(upper).size == upper.size
    return matrix


@pytest.mark.parametrize("seed", range(1, 6))
def test_negation_complements_the_snapshot(seed):
    # -M orders the pairs backwards: its first m pairs are the ones M adds
    # after its first C(n, 2) - m
    matrix = tie_free(sample_gaussian_symmetric(60, seed))
    negated = SymmetricMatrix(-matrix.dense)
    total = 60 * 59 // 2
    counts = [0, 1, 58, 59, 600, total // 2, total - 59, total - 1, total]
    forward = stream_prefixes(build_filtration(matrix), [total - m for m in counts[::-1]])
    backward = stream_prefixes(build_filtration(negated), counts)
    for m, graph, flipped in zip(counts, list(forward)[::-1], backward, strict=True):
        complement = ~graph.adjacency
        np.fill_diagonal(complement, False)
        assert np.array_equal(flipped.adjacency, complement), m
        assert np.array_equal(graph_at_density(negated, m / total).adjacency, complement), m


@pytest.mark.parametrize("ensemble", ["gaussian", "wishart-rank1", "circle", "torus"])
def test_a_relabelling_keeps_the_index_and_the_raw_width(ensemble):
    # the raw width is exact integer arithmetic on the degrees, which a
    # relabelling only permutes
    matrix = tie_free(SAMPLES[ensemble](80))
    grid = DensityGrid.with_zero_refinement(80)
    expected_index = build_filtration(matrix).connectivity_index
    expected_width, = std_curve(matrix, grid, ("raw",))
    for seed in range(3):
        label = np.random.default_rng(seed).permutation(80)
        relabelled = SymmetricMatrix(matrix.dense[np.ix_(label, label)])
        assert build_filtration(relabelled).connectivity_index == expected_index
        width, = std_curve(relabelled, grid, ("raw",))
        assert as_bytes([width]) == as_bytes([expected_width])


def test_the_cli_writes_the_same_raw_width_for_a_relabelled_matrix(tmp_path):
    dense = tie_free(sample_gaussian_symmetric(40, 9)).dense
    label = np.random.default_rng(9).permutation(40)
    written = {}
    for name, entries in (("original", dense), ("relabelled", dense[np.ix_(label, label)])):
        path = tmp_path / f"{name}.csv"
        write_matrix_file(path, entries)
        out = tmp_path / name
        assert main(["std-curve", "--ensemble", "matrix-file", "--matrix", str(path),
                     "--kind", "raw", "--output", str(out)]) == EXIT_OK
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written["original"]) == 2
    assert written["relabelled"] == written["original"]
