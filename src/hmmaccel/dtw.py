"""Dynamic time warping between discrete symbol sequences.

Local cost is the absolute difference of symbol indices, so costs are
integers and a zero DTW distance is an exact test, not an epsilon one.
Two sequences are at DTW distance 0 exactly when their run-length-collapsed
forms (consecutive repeats removed) coincide.

The Euclidean distance of the pre-DTW approach is also provided; it is only
defined for equal-length sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DtwResult:
    """Minimal warping cost and one path attaining it.

    The path is a list of 0-based index pairs (i, j) into the two input
    sequences, from (0, 0) to (len(x)-1, len(y)-1), each step advancing by
    (1,0), (0,1), or (1,1). Ties between predecessors are broken diagonal
    first, then vertical (advance in x), then horizontal (advance in y).
    """

    distance: float
    path: list[tuple[int, int]]


def dtw_distance(x, y) -> DtwResult:
    """DTW distance between two sequences and an optimal warping path.

    Standard O(len(x) * len(y)) dynamic program: each cell accumulates its
    local cost plus the cheapest of the diagonal, vertical, and horizontal
    predecessors. The arithmetic is exact (integer costs).
    """
    xs = [int(v) for v in x]
    ys = [int(v) for v in y]
    if not xs or not ys:
        raise ValueError("empty sequence")
    n, m = len(xs), len(ys)

    d = [[0] * m for _ in range(n)]
    d[0][0] = abs(xs[0] - ys[0])
    for j in range(1, m):
        d[0][j] = d[0][j - 1] + abs(xs[0] - ys[j])
    for i in range(1, n):
        row = d[i]
        prev = d[i - 1]
        row[0] = prev[0] + abs(xs[i] - ys[0])
        xi = xs[i]
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = best + abs(xi - ys[j])

    # Backtrack; costs are exact ints, so re-deriving the argmin is safe.
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(d[i - 1][j - 1], d[i - 1][j], d[i][j - 1])
            if d[i - 1][j - 1] == best:
                i, j = i - 1, j - 1
            elif d[i - 1][j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return DtwResult(distance=float(d[n - 1][m - 1]), path=path)


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
