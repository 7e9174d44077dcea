"""Distances between discrete symbol sequences.

`dtw_distance` is dynamic time warping whose local cost is the absolute
difference of symbol indices, so costs are integers and a zero DTW
distance is an exact test, not an epsilon one. Two sequences are at DTW
distance 0 exactly when their run-length-collapsed forms (consecutive
repeats removed) coincide. It returns the distance only; the version that
fills the whole table and backtracks a warping path is kept in
`tests/oracles.py` as its reference.

`euclidean_distance` is the distance of the pre-DTW approach; it is only
defined for equal-length sequences.
"""

from __future__ import annotations

import itertools
import math


def dtw_distance(x, y) -> float:
    """DTW distance between two sequences.

    The standard O(len(x) * len(y)) dynamic program: each cell is its local
    cost plus the cheapest of its diagonal, vertical and horizontal
    predecessors. Only the row above is kept, so memory is O(len(y)). The
    arithmetic is exact (integer costs).
    """
    xs = [int(v) for v in x]
    ys = [int(v) for v in y]
    if not xs or not ys:
        raise ValueError("empty sequence")
    # Two rows, swapped after each: prev is the row above and row the one
    # being filled. The first row and column only accumulate.
    m = len(ys)
    prev = list(itertools.accumulate(abs(xs[0] - yj) for yj in ys))
    row = [0] * m
    for xi in xs[1:]:
        left = row[0] = prev[0] + abs(xi - ys[0])
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if left < best:
                best = left
            left = row[j] = best + abs(xi - ys[j])
        prev, row = row, prev
    return float(prev[-1])


def euclidean_distance(x, y) -> float:
    """Euclidean distance between two equal-length sequences.

    Raises ValueError on a length mismatch, which signals that the caller
    needs DTW instead.
    """
    xs = [int(v) for v in x]
    ys = [int(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise ValueError("empty sequence")
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(xs, ys)))
