"""Independent checks of the program's outputs.

Nothing here calls hmmaccel: files are parsed with the standard library and
the reference numbers come from a log-space forward pass and a direct sum
of path log-probabilities, not from the program's scaled recursions. Each
check returns None when the output is right, or a message saying what is
wrong.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict

import numpy as np

LL_TOL = 1e-9  # eval and decode against the references, and EM ascent
PARAM_TOL = 1e-8  # classical against exact-match weighted parameters


def read_sequences(path) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(t) for t in line.split()) for line in fh if line.strip()]


def collapse(seq) -> tuple[int, ...]:
    """Drop consecutive repeats, the key under which DTW distance is zero."""
    return tuple(v for i, v in enumerate(seq) if i == 0 or v != seq[i - 1])


def read_model(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: np.asarray(doc[k], dtype=np.float64) for k in ("pi", "a", "b")}


def _by_length(seqs):
    groups = defaultdict(list)
    for i, s in enumerate(seqs):
        groups[len(s)].append(i)
    for idx in groups.values():
        yield idx, np.array([seqs[i] for i in idx], dtype=np.int64)


def _logs(model):
    with np.errstate(divide="ignore"):
        return np.log(model["pi"]), np.log(model["a"]), np.log(model["b"])


def log_forward(model, seqs) -> np.ndarray:
    """log P(sequence) by the forward recursion in log space, per sequence."""
    log_pi, log_a, log_b = _logs(model)
    out = np.empty(len(seqs))
    for idx, obs in _by_length(seqs):
        alpha = log_pi + log_b[:, obs[:, 0]].T
        for t in range(1, obs.shape[1]):
            alpha = np.logaddexp.reduce(alpha[:, :, None] + log_a, axis=1)
            alpha = alpha + log_b[:, obs[:, t]].T
        out[idx] = np.logaddexp.reduce(alpha, axis=1)
    return out


def joint_log_prob(model, seqs, paths) -> np.ndarray:
    """log P(sequence, state path), summed term by term from pi, A and B."""
    log_pi, log_a, log_b = _logs(model)
    out = np.empty(len(seqs))
    for idx, obs in _by_length(seqs):
        q = np.array([paths[i] for i in idx], dtype=np.int64)
        lp = log_pi[q[:, 0]] + log_b[q, obs].sum(axis=1)
        lp += log_a[q[:, :-1], q[:, 1:]].sum(axis=1)
        out[idx] = lp
    return out


def check_table(path, n: int, k: int) -> str | None:
    """Weights sum to n and the table has the expected k clusters."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    weights = [c["weight"] for c in doc["clusters"]]
    if sum(weights) != n or doc["total_weight"] != n:
        return f"{path}: weights sum to {sum(weights)}, expected {n}"
    if len(weights) != k:
        return f"{path}: {len(weights)} clusters, expected {k}"
    return None


def trace_lls(path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row["log_likelihood"]) for row in csv.DictReader(fh)]


def iteration_seconds(path) -> list[float]:
    """Per-iteration durations from the cumulative column of a trace CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        cum = [float(row["cumulative_seconds"]) for row in csv.DictReader(fh)]
    return list(np.diff([0.0, *cum]))


def check_ascent(lls, iterations: int) -> str | None:
    if len(lls) != iterations:
        return f"trace has {len(lls)} iterations, expected {iterations}"
    drops = [b - a for a, b in zip(lls, lls[1:]) if b - a < -LL_TOL]
    if drops:
        return f"log-likelihood dropped by {-min(drops)!r}"
    return None


def check_same_model(path_a, path_b) -> str | None:
    a, b = read_model(path_a), read_model(path_b)
    worst = max(float(np.max(np.abs(a[k] - b[k]))) for k in a)
    if not worst <= PARAM_TOL:
        return f"{path_a} and {path_b} differ by {worst!r}"
    return None


def check_eval(out: str, ref: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    """Parse eval output and compare it with the reference log-likelihoods."""
    lines = out.splitlines()
    if len(lines) != len(ref):
        return None, f"eval printed {len(lines)} lines for {len(ref)} sequences"
    got = np.array([float(v) for v in lines])
    worst = float(np.max(np.abs(got - ref)))
    if not worst <= LL_TOL:
        return got, f"eval is {worst!r} from the log-space forward pass"
    return got, None


def check_decode(out: str, model, seqs, eval_ll) -> str | None:
    """Each printed log-probability matches its path and is <= log P(sequence)."""
    lines = out.splitlines()
    if len(lines) != len(seqs):
        return f"decode printed {len(lines)} lines for {len(seqs)} sequences"
    paths, printed = [], np.empty(len(lines))
    for i, (line, seq) in enumerate(zip(lines, seqs)):
        states, sep, value = line.partition("\t")
        path = tuple(int(s) for s in states.split())
        if not sep or len(path) != len(seq):
            return f"decode line {i + 1} is malformed: {line[:60]!r}"
        paths.append(path)
        printed[i] = float(value)
    joint = joint_log_prob(model, seqs, paths)
    worst = float(np.max(np.abs(joint - printed)))
    if not worst <= LL_TOL:
        return f"decode log-probability is {worst!r} from its path's joint"
    over = float(np.max(printed - eval_ll))
    if over > LL_TOL:
        return f"decode log-probability exceeds the eval log-likelihood by {over!r}"
    return None
