"""DTW distance against its path-returning oracle, and the Euclidean baseline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dtw_path, enum_min_cost, run_length_collapse

from hmmaccel import dtw_distance, euclidean_distance


def check_path(xs, ys, distance, path):
    assert path[0] == (0, 0)
    assert path[-1] == (len(xs) - 1, len(ys) - 1)
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}
    assert max(len(xs), len(ys)) <= len(path) <= len(xs) + len(ys) - 1
    assert distance == float(sum(abs(int(xs[i]) - int(ys[j])) for i, j in path))


def test_zero_distance_pair():
    x, y = [1, 2, 2, 2, 2, 3, 4], [1, 1, 2, 3, 3, 3, 4]
    assert dtw_distance(x, y) == 0.0
    check_path(x, y, 0.0, dtw_path(x, y)[1])


def test_distance_six_pair():
    x = [1, 2, 3, 4, 5, 6, 7]
    y = [1, 2, 2, 2, 2, 3, 4]
    d = dtw_distance(x, y)
    assert d == 6.0
    assert d == float(enum_min_cost(x, y))
    oracle_d, path = dtw_path(x, y)
    assert oracle_d == d
    check_path(x, y, d, path)


def test_identical_inputs_diagonal_path():
    x = [4, 1, 1, 0, 3]
    assert dtw_distance(x, x) == 0.0
    assert dtw_path(x, x) == (0.0, [(t, t) for t in range(len(x))])


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty sequence"):
        dtw_distance([], [1, 2])
    with pytest.raises(ValueError, match="empty sequence"):
        dtw_distance([1, 2], [])


def test_single_symbol_sequences():
    assert dtw_distance([5], [2]) == 3.0
    assert dtw_path([5], [2]) == (3.0, [(0, 0)])
    assert dtw_distance([5], [2, 3, 4]) == float(3 + 2 + 1)
    assert dtw_distance([2, 3, 4], [5]) == float(3 + 2 + 1)
    check_path([5], [2, 3, 4], 6.0, dtw_path([5], [2, 3, 4])[1])


def test_matches_enumeration_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 7))
        x = rng.integers(0, 3, size=nx).tolist()
        y = rng.integers(0, 3, size=ny).tolist()
        d = dtw_distance(x, y)
        assert d == float(enum_min_cost(x, y))
        oracle_d, path = dtw_path(x, y)
        assert oracle_d == d
        check_path(x, y, d, path)


# symbols near both ends of int64: their costs and sums pass int64
EDGE = [2**63 - 1, -(2**63), 2**62]
SYMBOLS = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE))


@settings(max_examples=300, deadline=None)
@given(st.lists(SYMBOLS, min_size=1, max_size=7), st.lists(SYMBOLS, min_size=1, max_size=7))
@example([0, 1, 2, 3, 2, 1, 0], [2])  # a one-column table
@example([-1], [3, -3, 3, -3, 3, -3, 3])  # a one-row table
@example(EDGE + [-1, 0], [-(2**63), 2**63 - 1, 2**63 - 1, 0, 2**62])
def test_distance_matches_oracles_property(x, y):
    d = dtw_distance(x, y)
    assert type(d) is float
    assert d == dtw_path(x, y)[0]
    assert d == float(enum_min_cost(x, y))
    assert d == dtw_distance(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))


def test_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.integers(0, 10, size=int(rng.integers(1, 9))).tolist()
        y = rng.integers(0, 10, size=int(rng.integers(1, 9))).tolist()
        assert dtw_distance(x, y) == dtw_distance(y, x)


def test_diagonal_upper_bound():
    # the diagonal is an admissible path for equal lengths
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.integers(0, 10, size=n)
        y = rng.integers(0, 10, size=n)
        aligned = float(np.abs(x - y).sum())
        assert dtw_distance(x, y) <= aligned


def test_run_length_collapse():
    assert run_length_collapse([1, 2, 2, 2, 2, 3, 4]) == (1, 2, 3, 4)
    assert run_length_collapse([7]) == (7,)
    assert run_length_collapse([3, 3, 3]) == (3,)
    assert run_length_collapse([1, 2, 1]) == (1, 2, 1)


def test_zero_iff_collapsed_equal():
    rng = np.random.default_rng(14)
    for _ in range(300):
        x = rng.integers(0, 4, size=int(rng.integers(1, 8))).tolist()
        y = rng.integers(0, 4, size=int(rng.integers(1, 8))).tolist()
        zero = dtw_distance(x, y) == 0.0
        assert zero == (run_length_collapse(x) == run_length_collapse(y))


def test_euclidean_examples():
    assert euclidean_distance([1, 2, 3], [1, 2, 3]) == 0.0
    d = euclidean_distance([1, 2, 2, 2, 2, 3, 4], [1, 1, 2, 3, 3, 3, 4])
    assert d == math.sqrt(3)


def test_euclidean_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        euclidean_distance([1, 2, 3], [1, 2, 3, 4])


def test_euclidean_zero_iff_identical():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = rng.integers(0, 3, size=n).tolist()
        y = rng.integers(0, 3, size=n).tolist()
        assert (euclidean_distance(x, y) == 0.0) == (x == y)
