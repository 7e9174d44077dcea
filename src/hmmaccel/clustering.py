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

Rows may stand for several sequences each: the `cluster` command passes
the distinct lines of a sequence file with their counts, so the key work
is done once per distinct line, and a weight is the sum of its rows'
counts. Since the distinct lines come in order of first appearance,
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
    (len(reps),), and must hold integers >= 1; the category is that of
    `reps`."""

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
    def category_id(self) -> int:
        return self.reps.category_id

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
    values, starts = data.values, data.offsets[:-1]
    keep = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[starts[starts < values.shape[0]]] = True
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return Dataset.from_flat(values[keep], kept_before[data.offsets])


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
    empty = np.flatnonzero(data.lengths == 0)
    if empty.size:
        raise ValueError(f"sequence {empty[0] + 1} is empty")
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


def require_one_length(lengths: np.ndarray) -> None:
    """Raise ValueError naming the first sequence whose length differs from
    the first's, as Euclidean clustering needs one length."""
    other = np.flatnonzero(lengths != lengths[0])
    if other.size:
        pos = int(other[0])
        raise ValueError(
            f"sequence {pos + 1} has length {lengths[pos]} but sequence 1 has "
            f"length {lengths[0]}; euclidean clustering requires one length"
        )


def build_clusters(data: Dataset, distance: str = "dtw", counts=None) -> ClusterTable:
    """Cluster a Dataset into weighted representatives.

    distance: "dtw" or "euclidean" (the latter requires all sequences to
    share one length). Representatives are the first member of each
    cluster, in order of first appearance. counts[i], an integer in
    [1, 2**63), is how many sequences row i stands for, as for the distinct
    lines of `load_distinct_sequences`; a cluster's weight is the sum of its
    rows' counts, and must stay below 2**63. None counts each row once.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}, expected one of {DISTANCES}")
    if not len(data):
        raise ValueError("empty dataset")
    message = (f"counts must hold {len(data)} integers >= 1, one per sequence, "
               "and no cluster's sum may reach 2**63")
    if counts is not None:
        counts = np.asarray(counts)
        if (counts.shape != (len(data),) or counts.dtype.kind not in "iu" or counts.min() < 1
                or counts.max() >= 2**63):
            raise ValueError(message)
    if distance == "euclidean":
        require_one_length(data.lengths)

    first, cluster = _group_equal_rows(_collapse(data) if distance == "dtw" else data)
    # sums that could pass int64 are taken exactly, as Python ints
    exact = counts is not None and int(counts.max()) * len(counts) >= 2**63
    weights = np.zeros(first.shape[0], dtype=object if exact else np.int64)
    np.add.at(weights, cluster, 1 if counts is None else counts.astype(weights.dtype, copy=False))
    if exact and weights.max() >= 2**63:
        raise ValueError(message)
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
    clusters = f"[\n    {body}\n  ]" if body else "[]"
    text = (
        f'{{\n  "category_id": {json.dumps(table.category_id)},\n'
        f'  "total_weight": {table.total_weight},\n'
        f'  "clusters": {clusters}\n}}\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bulk_table(clusters, category_id):
    """The table of a list of clusters that are all well formed, checked
    with a few whole-table tests; None if any test fails."""
    try:
        reps = [c["representative"] for c in clusters]
        weights = [c["weight"] for c in clusters]
    except (KeyError, TypeError):  # a cluster that is no object, or lacks a key
        return None
    if set(map(type, reps)) != {list} or set(map(type, weights)) != {int} or min(weights) < 1:
        return None
    lengths = list(map(len, reps))
    flat = list(itertools.chain.from_iterable(reps))
    if min(lengths) == 0 or set(map(type, flat)) != {int}:
        return None
    try:  # a symbol or a weight too large for int64
        values = np.array(flat, dtype=np.int64)
        weights = np.array(weights, dtype=np.int64)
    except OverflowError:
        return None
    if (values < 0).any():
        return None
    return ClusterTable(Dataset.from_flat(values, _offsets(lengths), category_id), weights)


def load_cluster_table(path) -> ClusterTable:
    """Read a cluster table, rejecting anything that would need rounding.

    Weights, symbols, category_id and total_weight must be JSON integers
    (not floats or booleans); weights must lie in [1, 2**63), and
    representatives must be non-empty flat lists of non-negative symbols.
    Every error names the file, and the cluster index where there is one.
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
        category_id = _exact_int(doc["category_id"], f"cluster file {path}: category_id")
        declared = _exact_int(doc["total_weight"], f"cluster file {path}: total_weight")
    except KeyError as exc:
        raise ValueError(f"cluster file {path} is missing key {exc}") from None
    if not isinstance(clusters, list):
        raise ValueError(f"cluster file {path}: clusters must be a list")
    if not clusters:
        raise ValueError(f"cluster file {path} has no clusters")

    table = _bulk_table(clusters, category_id)
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

    if declared != table.total_weight:
        raise ValueError(
            f"cluster file {path}: total_weight {declared} does not match "
            f"sum of weights {table.total_weight}"
        )
    return table
