"""DTW distance, warping path, and Euclidean baseline."""

import math

import numpy as np
import pytest

from oracles import run_length_collapse

from hmmaccel import dtw_distance, euclidean_distance


def enum_min_cost(xs, ys):
    # exhaustive walk over every monotone path, no memoization
    best = [None]
    n, m = len(xs), len(ys)

    def walk(i, j, acc):
        acc += abs(xs[i] - ys[j])
        if i == n - 1 and j == m - 1:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0)
    return best[0]


def check_path(xs, ys, res):
    path = res.path
    assert path[0] == (0, 0)
    assert path[-1] == (len(xs) - 1, len(ys) - 1)
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}
    assert max(len(xs), len(ys)) <= len(path) <= len(xs) + len(ys) - 1
    assert res.distance == float(sum(abs(int(xs[i]) - int(ys[j])) for i, j in path))


def test_zero_distance_pair():
    res = dtw_distance([1, 2, 2, 2, 2, 3, 4], [1, 1, 2, 3, 3, 3, 4])
    assert res.distance == 0.0
    check_path([1, 2, 2, 2, 2, 3, 4], [1, 1, 2, 3, 3, 3, 4], res)


def test_distance_six_pair():
    x = [1, 2, 3, 4, 5, 6, 7]
    y = [1, 2, 2, 2, 2, 3, 4]
    res = dtw_distance(x, y)
    assert res.distance == 6.0
    assert res.distance == float(enum_min_cost(x, y))
    check_path(x, y, res)


def test_identical_inputs_diagonal_path():
    x = [4, 1, 1, 0, 3]
    res = dtw_distance(x, x)
    assert res.distance == 0.0
    assert res.path == [(t, t) for t in range(len(x))]


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty sequence"):
        dtw_distance([], [1, 2])
    with pytest.raises(ValueError, match="empty sequence"):
        dtw_distance([1, 2], [])


def test_single_symbol_sequences():
    assert dtw_distance([5], [2]).distance == 3.0
    assert dtw_distance([5], [2]).path == [(0, 0)]
    res = dtw_distance([5], [2, 3, 4])
    assert res.distance == float(3 + 2 + 1)
    check_path([5], [2, 3, 4], res)


def test_matches_enumeration_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 7))
        x = rng.integers(0, 3, size=nx).tolist()
        y = rng.integers(0, 3, size=ny).tolist()
        res = dtw_distance(x, y)
        assert res.distance == float(enum_min_cost(x, y))
        check_path(x, y, res)


def test_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.integers(0, 10, size=int(rng.integers(1, 9))).tolist()
        y = rng.integers(0, 10, size=int(rng.integers(1, 9))).tolist()
        assert dtw_distance(x, y).distance == dtw_distance(y, x).distance


def test_diagonal_upper_bound():
    # the diagonal is an admissible path for equal lengths
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.integers(0, 10, size=n)
        y = rng.integers(0, 10, size=n)
        aligned = float(np.abs(x - y).sum())
        assert dtw_distance(x, y).distance <= aligned


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
        zero = dtw_distance(x, y).distance == 0.0
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
