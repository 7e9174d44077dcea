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
Keys that span a small range, within `inference.BLOCK_BYTES` as a table
and not far above the row count, are grouped through a dense table with no
sort (`_key_groups`); any others by one `np.unique`. Clusters are then put
in order of first appearance.

A ClusterTable is itself flat: its representatives are one Dataset,
gathered from the input with `Dataset.take`, beside one int64 array of
weights. Training reads the representatives as they are, and a table file
is read into the same two arrays.

Every row is one sequence: the `cluster` command parses its whole file
with `load_sequences` and keys every line. With the dense table, keying a
redundant corpus row by row costs less than `load_distinct_sequences`'
text memo of its lines.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .inference import BLOCK_BYTES
from .model import Dataset, _exact_int, _offsets, _sequences_text, _write_text

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
    before it. Every start is kept, so the new offsets are the places of
    the starts among the kept symbols, with no running count over the
    buffer."""
    values, offsets = data.values, data.offsets
    start = np.zeros(values.shape[0], dtype=bool)
    start[offsets[:-1]] = True
    keep = start.copy()
    keep[1:] |= values[1:] != values[:-1]
    kept = np.flatnonzero(keep)
    collapsed = np.empty_like(offsets)
    collapsed[:-1] = np.flatnonzero(start[kept])
    collapsed[-1] = kept.shape[0]
    return Dataset.__new__(Dataset)._adopt(values[kept], collapsed)


def _row_keys(data: Dataset) -> np.ndarray:
    """One int64 key per row, equal exactly when the rows are equal (see the
    module docstring).

    Each round reads the keys of the last round, the symbols at first, as
    digits: shifted by their minimum, or replaced by their ranks when they
    span too much for two digits per key. Rows are cut into chunks of the k
    digits that one key holds, the first digit lowest, and each chunk's key
    is the sum of its digits times their powers; rows that were one chunk
    end the loop. Rows of one length that fit one key get their keys from
    one matrix product: the digits, one matrix row per row, times the
    powers."""
    keys, offsets = data.values, data.offsets
    while keys.shape[0] > len(data):  # until each row is one key
        lo, hi = int(keys.min()), int(keys.max())
        if (hi - lo + 2) ** 2 >= 2**63:
            ranks, keys = np.unique(keys, return_inverse=True)
            lo, hi = 0, ranks.shape[0] - 1
        digits, base = keys - (lo - 1), hi - lo + 2
        lengths = np.diff(offsets)
        k = next(j for j in range(1, 64) if base ** (j + 1) >= 2**63)  # digits one key holds
        width = int(lengths.max())
        if width <= k and keys.shape[0] == width * lengths.shape[0]:  # one length, one key
            return digits.reshape(-1, width) @ base ** np.arange(width)
        pos = np.arange(keys.shape[0]) - np.repeat(offsets[:-1], lengths)  # place in its row
        digits *= (base ** (np.arange(width) % k))[pos]  # a chunk's first digit lowest
        if width <= k:  # each row is one chunk
            return np.add.reduceat(digits, offsets[:-1])
        # the first digit of each chunk is the only one left below base
        keys = np.add.reduceat(digits, np.flatnonzero(digits < base))
        offsets = _offsets(-(-lengths // k))
    return keys


def _group_equal_rows(data: Dataset):
    """Group identical sequences: (first, cluster), where first holds the
    position of each group's first member in order of first appearance and
    cluster[i] is the group of sequence i."""
    first, group = _key_groups(_row_keys(data))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return first[order], rank[group]


# The dense table of `_key_groups` takes 5 bytes per key in the range, a
# bool and an int32 label, and fits `BLOCK_BYTES`. A range of more than
# _KEYS_PER_ROW keys per row is left to the sort, which costs less there.
_DENSE_KEYS = BLOCK_BYTES // 5
_KEYS_PER_ROW = 64


def _key_groups(keys):
    """(first, group) of one int64 key per row: first[g] is the first row
    of the g-th smallest distinct key and group[i] the number of row i's
    key, as `np.unique(keys, return_index=True, return_inverse=True)`
    gives them.

    A key range of at most _DENSE_KEYS keys, and at most _KEYS_PER_ROW keys
    per row, is grouped through a dense table with no sort (`_dense_groups`);
    any other goes through `np.unique`."""
    lo = int(keys.min())
    size = int(keys.max()) - lo + 1
    if size <= min(_DENSE_KEYS, _KEYS_PER_ROW * keys.shape[0]):
        return _dense_groups(keys - lo, size)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first, group


def _dense_groups(keys, size):
    """`_key_groups` of keys in [0, size): the keys present, from a bool
    table of the keys seen, are labelled in order through an int32 table,
    and each label's first row is the least row that has it."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    present = np.flatnonzero(seen)
    label = np.empty(size, dtype=np.int32)
    label[present] = np.arange(present.shape[0], dtype=np.int32)
    group = label[keys]
    first = np.full(present.shape[0], keys.shape[0], dtype=np.intp)
    np.minimum.at(first, group, np.arange(keys.shape[0]))
    return first, group


def build_clusters(data: Dataset, distance: str = "dtw") -> ClusterTable:
    """Cluster a Dataset into weighted representatives.

    distance: "dtw" or "euclidean" (the latter requires all sequences to
    share one length). Representatives are the first member of each
    cluster, in order of first appearance, and a cluster's weight is the
    number of sequences it holds.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}, expected one of {DISTANCES}")
    if distance == "euclidean":
        lengths = data.lengths
        other = np.flatnonzero(lengths != lengths[0])
        if other.size:
            pos = int(other[0])
            raise ValueError(
                f"sequence {pos + 1} has length {lengths[pos]} but sequence 1 has "
                f"length {lengths[0]}; euclidean clustering requires one length"
            )
    first, cluster = _group_equal_rows(_collapse(data) if distance == "dtw" else data)
    weights = np.bincount(cluster, minlength=first.shape[0])
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
    `_write_json`. A representative's JSON list is its line of
    `save_sequences` text with ", " between the symbols, so each cluster is
    formatted without json."""
    reps = _sequences_text(table.reps).replace(" ", ", ").split("\n")
    body = ",\n    ".join([
        '{"representative": [%s], "weight": %d}' % rep_weight
        for rep_weight in zip(reps, table.weights.tolist())
    ])
    text = (
        f'{{\n  "total_weight": {table.total_weight},\n'
        f'  "clusters": [\n    {body}\n  ]\n}}\n'
    )
    _write_text(path, text)


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
