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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dtw import run_length_collapse
from .model import _exact_int

DISTANCES = ("dtw", "euclidean")


@dataclass(frozen=True)
class ClusterEntry:
    representative: np.ndarray
    weight: int


@dataclass(frozen=True)
class ClusterTable:
    category_id: int
    entries: list[ClusterEntry]

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _key(seq: np.ndarray) -> bytes:
    return np.ascontiguousarray(seq, dtype=np.int64).tobytes()


def build_clusters(data, distance: str = "dtw") -> ClusterTable:
    """Cluster a Dataset into weighted representatives.

    distance: "dtw" or "euclidean" (the latter requires all sequences to
    share one length). Representatives are the first member of each
    cluster, in order of first appearance.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}, expected one of {DISTANCES}")
    sequences = data.sequences
    if not sequences:
        raise ValueError("empty dataset")
    if distance == "euclidean":
        length = len(sequences[0])
        for pos, seq in enumerate(sequences, start=1):
            if len(seq) != length:
                raise ValueError(
                    f"sequence {pos} has length {len(seq)} but sequence 1 has "
                    f"length {length}; euclidean clustering requires one length"
                )

    reps: list[np.ndarray] = []
    weights: list[int] = []
    seen: dict[bytes, int] = {}  # exact sequence -> cluster, for repeats
    clusters: dict = {}  # canonical key -> cluster

    for seq in sequences:
        key = _key(seq)
        idx = seen.get(key)
        if idx is None:
            canonical = run_length_collapse(seq) if distance == "dtw" else key
            idx = clusters.setdefault(canonical, len(reps))
            if idx == len(reps):
                reps.append(np.array(seq, dtype=np.int64))
                weights.append(0)
            seen[key] = idx
        weights[idx] += 1

    entries = [ClusterEntry(r, w) for r, w in zip(reps, weights)]
    return ClusterTable(category_id=data.category_id, entries=entries)


def filter_low_weight(table: ClusterTable, min_weight: int) -> ClusterTable:
    """Drop entries below min_weight; total_weight shrinks accordingly.

    The default training pipeline never calls this: low-weight clusters can
    be legitimate rare behaviors, so removal is an explicit operator choice.
    """
    if min_weight < 1:
        raise ValueError(f"min_weight must be >= 1, got {min_weight}")
    kept = [e for e in table.entries if e.weight >= min_weight]
    if not kept:
        raise ValueError("all clusters filtered")
    return ClusterTable(category_id=table.category_id, entries=kept)


def save_cluster_table(table: ClusterTable, path) -> None:
    doc = {
        "category_id": table.category_id,
        "total_weight": table.total_weight,
        "clusters": [
            {"representative": [int(v) for v in e.representative], "weight": e.weight}
            for e in table.entries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_cluster_table(path) -> ClusterTable:
    """Read a cluster table, rejecting anything that would need rounding.

    Weights, symbols, category_id and total_weight must be JSON integers
    (not floats or booleans); representatives must be non-empty flat lists
    of non-negative symbols. Every error names the file, and the cluster
    index where there is one.
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

    entries = []
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
        if not isinstance(rep, list):
            raise ValueError(f"{where} representative must be a list of symbols")
        if not rep:
            raise ValueError(f"{where} is empty")
        for pos, v in enumerate(rep):
            if _exact_int(v, f"{where} symbol {pos}") < 0:
                raise ValueError(f"{where} symbol {pos} is negative: {v}")
        try:
            entries.append(ClusterEntry(np.array(rep, dtype=np.int64), weight))
        except OverflowError:
            raise ValueError(f"{where} has a symbol too large for int64") from None

    table = ClusterTable(category_id=category_id, entries=entries)
    if declared != table.total_weight:
        raise ValueError(
            f"cluster file {path}: total_weight {declared} does not match "
            f"sum of weights {table.total_weight}"
        )
    return table
