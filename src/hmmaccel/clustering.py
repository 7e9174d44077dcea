"""Frequency-weighted clustering of training sequences.

Scans a category's sequences in order. Each incoming sequence joins the
first cluster whose representative is at distance exactly zero from it;
otherwise it opens a new cluster. Weights count how many sequences each
representative stands for, so no information is lost: the weights always
sum to the input count.

Distance zero is an equivalence in both metrics, so clustering is a
group-by on a canonical key rather than a scan over representatives. With
the Euclidean distance only identical sequences are at distance zero, and
the key is the sequence itself; with DTW, sequences are at distance zero
exactly when their run-length-collapsed forms coincide (see dtw.py), and
the key is that collapsed form.

Both keys come from the Dataset's flat buffer: the collapsed forms from
one `x[1:] != x[:-1]` mask over the whole buffer, and the grouping from one
exact int64 key per row, computed for all rows at once. A row is read as
mixed-radix digits, symbol - min + 1 in base max - min + 2, the first
symbol lowest. Digit 0 means "no symbol", so a row's length is part of its
key, and two rows share a key only if they are equal. Where base**L
reaches 2**63 for the longest row, rows are cut into chunks of the k
digits that one key holds, and the chunks' keys, k times fewer per row,
are keyed the same way, until each row is one key. Symbols or chunk keys
that span too much for two digits per key are replaced by their ranks
first. No key wraps, so no row needs checking and no two rows collide.
One `np.unique` over the keys groups the rows, and clusters are then put
in order of first appearance.

A ClusterTable is itself flat: its representatives are one Dataset,
gathered from the input with `Dataset.take`, beside one int64 array of
weights. Training reads the representatives as they are, and a table file
is read into the same two arrays.

Rows may stand for several sequences each: `build_clusters` takes the
`inverse` of `load_distinct_sequences`, which maps each sequence of a file
to its distinct line, so the key work is done once per distinct line, and
a weight is the number of sequences whose lines fall in the cluster.
Since the distinct lines come in order of first appearance,
representatives and cluster order are those of the whole file.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _exact_int, _offsets

DISTANCES = ("dtw", "euclidean")


@dataclass(frozen=True)
class ClusterTable:
    """Weighted representatives: sequence i of `reps` stands for weights[i]
    sequences. `weights` is kept as a read-only int64 array of shape
    (len(reps),), and must hold integers >= 1."""

    reps: Dataset
    weights: np.ndarray

    def __post_init__(self):
        message = f"weights must hold {len(self.reps)} integers >= 1, one per representative"
        try:
            weights = np.array(self.weights, dtype=np.int64)
        except OverflowError:  # a Python int outside int64
            raise ValueError(message) from None
        if (weights.shape != (len(self.reps),) or (weights < 1).any()
                or not np.array_equal(weights, self.weights)):  # no fraction cut off, no wrap
            raise ValueError(message)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def total_weight(self) -> int:
        """The exact sum of the weights, as a Python int: no int64 wrap-around."""
        return sum(self.weights.tolist())

    def __len__(self) -> int:
        return len(self.reps)


def _collapse(data: Dataset) -> Dataset:
    """Each sequence with its consecutive repeats removed, as a Dataset:
    a symbol is kept where it starts its sequence or differs from the one
    before it."""
    values = data.values
    keep = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[data.offsets[:-1]] = True
    return Dataset.__new__(Dataset)._adopt(values[keep], _offsets(keep)[data.offsets])


def _group_equal_rows(data: Dataset):
    """Group identical sequences: (first, cluster), where first holds the
    position of each group's first member in order of first appearance and
    cluster[i] is the group of sequence i.

    Each row gets one int64 key, equal exactly when the rows are equal (see
    the module docstring). Each round reads the keys of the last round,
    the symbols at first, as digits: shifted by their minimum, or replaced
    by their ranks when they span too much for two digits per key. Rows are
    cut into chunks of the k digits that one key holds, the first digit
    lowest, and each chunk's key is the sum of its digits times their
    powers; rows that were one chunk end the loop."""
    keys, offsets = data.values, data.offsets
    while keys.shape[0] > len(data):  # until each row is one key
        lo, hi = int(keys.min()), int(keys.max())
        if (hi - lo + 2) ** 2 >= 2**63:
            ranks, keys = np.unique(keys, return_inverse=True)
            lo, hi = 0, ranks.shape[0] - 1
        digits, base = keys - lo + 1, hi - lo + 2
        lengths = np.diff(offsets)
        k = next(j for j in range(1, 64) if base ** (j + 1) >= 2**63)  # digits one key holds
        pos = np.arange(keys.shape[0]) - np.repeat(offsets[:-1], lengths)  # place in its row
        digits *= (base ** (np.arange(lengths.max()) % k))[pos]  # a chunk's first digit lowest
        # the first digit of each chunk is the only one left below base
        starts = offsets[:-1] if lengths.max() <= k else np.flatnonzero(digits < base)
        keys = np.add.reduceat(digits, starts)
        offsets = _offsets(-(-lengths // k))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return first[order], rank[inverse]


def build_clusters(data: Dataset, distance: str = "dtw", inverse=None) -> ClusterTable:
    """Cluster a Dataset into weighted representatives.

    distance: "dtw" or "euclidean" (the latter requires all sequences to
    share one length). Representatives are the first member of each
    cluster, in order of first appearance. inverse[i] is the row of `data`
    that holds sequence i, as `load_distinct_sequences` returns it: a 1-D
    integer array of rows in [0, len(data)), each at least once. A
    cluster's weight is the number of sequences whose rows it holds, and
    for euclidean a sequence of another length than the first is named by
    its place in `inverse`. None: each row stands for itself.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}, expected one of {DISTANCES}")
    if inverse is None:  # each row stands for itself
        inverse = slice(None)
    else:
        inverse = np.asarray(inverse)
        if (inverse.ndim != 1 or inverse.dtype.kind not in "iu" or not inverse.size
                or inverse.min() < 0 or inverse.max() >= len(data)
                or np.bincount(inverse.astype(np.intp), minlength=len(data)).min() == 0):
            raise ValueError(f"inverse must be a 1-D integer array of rows in "
                             f"[0, {len(data)}), each at least once")
    if distance == "euclidean":
        lengths = data.lengths[inverse]
        other = np.flatnonzero(lengths != lengths[0])
        if other.size:
            pos = int(other[0])
            raise ValueError(
                f"sequence {pos + 1} has length {lengths[pos]} but sequence 1 has "
                f"length {lengths[0]}; euclidean clustering requires one length"
            )
    first, cluster = _group_equal_rows(_collapse(data) if distance == "dtw" else data)
    weights = np.bincount(cluster[inverse], minlength=first.shape[0])
    return ClusterTable(data.take(first), weights)


def filter_low_weight(table: ClusterTable, min_weight: int) -> ClusterTable:
    """Drop clusters below min_weight; total_weight shrinks accordingly.

    The default training pipeline never calls this: low-weight clusters can
    be legitimate rare behaviors, so removal is an explicit operator choice.
    """
    if min_weight < 1:
        raise ValueError(f"min_weight must be >= 1, got {min_weight}")
    kept = np.flatnonzero(table.weights >= min_weight)
    if not kept.size:
        raise ValueError("all clusters filtered")
    return ClusterTable(table.reps.take(kept), table.weights[kept])


def save_cluster_table(table: ClusterTable, path) -> None:
    """Write a cluster table as JSON, one cluster per line, in the layout of
    `_write_json`. A representative is a list of Python ints, whose repr is
    its JSON, so each cluster is formatted without json."""
    values, offsets = table.reps.values.tolist(), table.reps.offsets.tolist()
    body = ",\n    ".join([
        '{"representative": %s, "weight": %d}' % (values[lo:hi], w)
        for lo, hi, w in zip(offsets, offsets[1:], table.weights.tolist())
    ])
    text = (
        f'{{\n  "total_weight": {table.total_weight},\n'
        f'  "clusters": [\n    {body}\n  ]\n}}\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bulk_table(clusters, n_symbols):
    """The table of a list of clusters that are all well formed, checked
    with a few whole-table tests and the Dataset invariant; None if any
    test fails, or if a symbol is n_symbols or more."""
    try:
        reps = [c["representative"] for c in clusters]
        weights = [c["weight"] for c in clusters]
    except (KeyError, TypeError):  # a cluster that is no object, or lacks a key
        return None
    if set(map(type, reps)) != {list} or set(map(type, weights)) != {int}:
        return None
    flat = list(itertools.chain.from_iterable(reps))
    if set(map(type, flat)) != {int}:
        return None
    try:  # a symbol too large for int64, representatives that make no Dataset, a bad weight
        reps = Dataset.from_flat(np.array(flat, dtype=np.int64), _offsets(list(map(len, reps))))
        if n_symbols is not None and reps.values.max() >= n_symbols:
            return None
        return ClusterTable(reps, weights)
    except (OverflowError, ValueError):
        return None


def load_cluster_table(path, n_symbols: int | None = None) -> ClusterTable:
    """Read a cluster table, rejecting anything that would need rounding.

    Weights, symbols and total_weight must be JSON integers (not floats or
    booleans); weights must lie in [1, 2**63), and the representatives,
    flat lists of symbols, must make a Dataset. With n_symbols given, a
    symbol >= n_symbols is bad input too. Keys other than total_weight and
    clusters are ignored. Every error names the file, and the first bad
    cluster's index where there is one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"cluster file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"cluster file {path} must hold a JSON object")
    try:
        clusters = doc["clusters"]
        declared = _exact_int(doc["total_weight"], f"cluster file {path}: total_weight")
    except KeyError as exc:
        raise ValueError(f"cluster file {path} is missing key {exc}") from None
    if not isinstance(clusters, list):
        raise ValueError(f"cluster file {path}: clusters must be a list")
    if not clusters:
        raise ValueError(f"cluster file {path} has no clusters")

    table = _bulk_table(clusters, n_symbols)
    if table is None:  # some cluster is bad: check them one by one, to name the first
        for i, c in enumerate(clusters):
            where = f"cluster file {path}: cluster {i}"
            if not isinstance(c, dict):
                raise ValueError(f"{where} must be a JSON object")
            try:
                rep, weight = c["representative"], c["weight"]
            except KeyError as exc:
                raise ValueError(f"{where} is missing key {exc}") from None
            weight = _exact_int(weight, f"{where} weight")
            if weight < 1:
                raise ValueError(f"{where} has weight {weight}")
            if weight >= 2**63:
                raise ValueError(f"{where} has a weight too large for int64: {weight}")
            if not isinstance(rep, list):
                raise ValueError(f"{where} representative must be a list of symbols")
            if not rep:
                raise ValueError(f"{where} is empty")
            for pos, v in enumerate(rep):
                if _exact_int(v, f"{where} symbol {pos}") < 0:
                    raise ValueError(f"{where} symbol {pos} is negative: {v}")
            if max(rep) >= 2**63:
                raise ValueError(f"{where} has a symbol too large for int64")
            if n_symbols is not None and max(rep) >= n_symbols:
                raise ValueError(f"{where} uses symbol {next(v for v in rep if v >= n_symbols)}, "
                                 f"out of range for a model with {n_symbols} symbols")

    if declared != table.total_weight:
        raise ValueError(
            f"cluster file {path}: total_weight {declared} does not match "
            f"sum of weights {table.total_weight}"
        )
    return table
