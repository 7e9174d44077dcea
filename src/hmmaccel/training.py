"""Baum-Welch/EM training, classical and cluster-weighted.

Both trainers run the same accumulation code: every sequence contributes
its expected counts (state occupancies and transition posteriors from the
forward-backward pass) multiplied by a weight. Classical training is the
weight-1 case over the full dataset; weighted training feeds cluster
representatives with their frequencies. Multiplying by 1.0 is exact, so
the classical trainer is bit-identical to the weighted one on an all-ones
table, and the numerical behavior of the two modes can be compared at
tight tolerances.

The E-step runs block by block. Before the first iteration
`inference.length_blocks` checks the symbols, sorts the sequences longest
first and cuts them into packed blocks whose E-step workspace fits
`inference.BLOCK_BYTES`, so a corpus of many lengths runs in as few blocks
as one of a single length; `inference.estep_plans` makes the one
workspace every block runs in and, once per run, each block's plan: its
weights laid out as its steps are and the views of every step into the
workspace. The plans die with the run. Every iteration then calls
`inference.estep_block` once per block, with its plan. A block that
holds a sequence of probability 0 adds no counts and returns a
non-finite log-likelihood;
after every block has run, `inference.score_block` marks the impossible
rows of every block -inf, and the error names the lowest input position
among them. Only the inference module knows the packed layout: this one
reads a block's `rows` alone, for that name. Both trainers build their
blocks the same way, so the summation order, and with it the weight-1
bit-identity, does not depend on the trainer. The tests keep a
per-sequence forward-backward and its accumulation loop as the reference
the blocks must match.

Re-estimation per iteration, with w_m the weight of sequence m:

    pi_i    <- sum_m w_m gamma_1^m(i) / sum_m w_m
    a_ij    <- sum_m w_m sum_t xi_t^m(i,j) / sum_m w_m sum_t gamma_t^m(i)   (t < T_m)
    b_j(k)  <- sum_m w_m sum_{t: o_t=k} gamma_t^m(j) / sum_m w_m sum_t gamma_t^m(j)

A state with zero expected occupancy keeps its previous A and B rows; that
event is recorded on the trace rather than silently renormalized away.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterTable
from .inference import (
    ImpossibleSequenceError,
    estep_block,
    estep_plans,
    length_blocks,
    score_block,
)
from .model import Dataset, HmmModel, require_valid


@dataclass
class TrainingConfig:
    iterations: int = 50
    ll_tolerance: float | None = None


@dataclass
class TrainingTrace:
    """Per-iteration log-likelihoods (of the pre-update model), timings,
    the final model, and any zero-occupancy events."""

    per_iteration_log_likelihood: list[float]
    per_iteration_seconds: list[float]  # cumulative wall clock after each iteration
    final_model: HmmModel
    wall_time_seconds: float
    warnings: list[str] = field(default_factory=list)


def initialize_model(n_states: int, n_symbols: int, seed: int) -> HmmModel:
    """Random valid model with strictly positive entries, deterministic in seed.

    Rows are drawn uniformly on [0.1, 1) and normalized, which bounds every
    probability away from zero.
    """
    if n_states < 1 or n_symbols < 1:
        raise ValueError("n_states and n_symbols must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.1, 1.0, n_states)
    a = rng.uniform(0.1, 1.0, (n_states, n_states))
    b = rng.uniform(0.1, 1.0, (n_states, n_symbols))
    pi /= pi.sum()
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    return HmmModel(n_states, n_symbols, pi, a, b)


def em_train(
    init: HmmModel, data: Dataset, config: TrainingConfig, on_iteration=None
) -> TrainingTrace:
    """Classical multi-sequence Baum-Welch for `config.iterations` steps."""
    return _run_em(init, data, np.ones(len(data)), config, on_iteration)


def weighted_em_train(
    init: HmmModel, table: ClusterTable, config: TrainingConfig, on_iteration=None
) -> TrainingTrace:
    """Baum-Welch over cluster representatives, counts scaled by weights."""
    return _run_em(init, table.reps, table.weights.astype(float), config, on_iteration)


def _run_em(init, data: Dataset, weights, config, on_iteration=None) -> TrainingTrace:
    if config.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {config.iterations}")
    if config.ll_tolerance is not None and not config.ll_tolerance >= 0:  # NaN too
        raise ValueError(f"ll_tolerance must be >= 0, got {config.ll_tolerance}")
    require_valid(init)
    blocks = estep_plans(length_blocks(data, init, estep_block), weights, init.n_states)

    n, m = init.n_states, init.n_symbols
    w_total = float(weights.sum())
    model = init
    lls: list[float] = []
    cum_seconds: list[float] = []
    notes: list[str] = []
    pi_num, a_num, b_num = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    start = time.perf_counter()

    for it in range(1, config.iterations + 1):
        for num in (pi_num, a_num, b_num):  # the M-step below copies out of them
            num.fill(0.0)
        total_ll = 0.0
        for block, plan in blocks:
            total_ll += estep_block(model, block, plan, pi_num, a_num, b_num)
        if not np.isfinite(total_ll):
            dead = np.concatenate([block.rows[score_block(model, block) == -np.inf]
                                   for block, _ in blocks])
            raise ImpossibleSequenceError(
                f"sequence {dead.min() + 1} is impossible under the model at iteration {it}"
            )

        # denominators are the numerators' own marginals, so each quotient
        # stays inside [0, 1] even after rounding; a row whose denominator
        # is not positive keeps the previous model's row
        a_den = a_num.sum(axis=1)
        b_den = b_num.sum(axis=1)
        a_ok, b_ok = a_den > 0.0, b_den > 0.0
        new_pi = pi_num / w_total
        new_a = np.divide(a_num, a_den[:, None], out=model.a.copy(), where=a_ok[:, None])
        new_b = np.divide(b_num, b_den[:, None], out=model.b.copy(), where=b_ok[:, None])
        for i in np.flatnonzero(~(a_ok & b_ok)).tolist():
            if not a_ok[i]:
                notes.append(
                    f"iteration {it}: state {i} has zero expected transition "
                    "count; A row carried over"
                )
            if not b_ok[i]:
                notes.append(
                    f"iteration {it}: state {i} has zero expected occupancy; "
                    "B row carried over"
                )

        model = HmmModel(n, m, new_pi, new_a, new_b)
        lls.append(total_ll)
        cum_seconds.append(time.perf_counter() - start)
        if on_iteration is not None:
            on_iteration(it, model, total_ll)
        if (
            config.ll_tolerance is not None
            and len(lls) >= 2
            and lls[-1] - lls[-2] < config.ll_tolerance
        ):
            break

    return TrainingTrace(
        per_iteration_log_likelihood=lls,
        per_iteration_seconds=cum_seconds,
        final_model=model,
        wall_time_seconds=time.perf_counter() - start,
        warnings=notes,
    )


def write_trace_csv(trace: TrainingTrace, path) -> None:
    """Trace as CSV: iteration, log_likelihood, cumulative_seconds."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "log_likelihood", "cumulative_seconds"])
        for i, (ll, sec) in enumerate(
            zip(trace.per_iteration_log_likelihood, trace.per_iteration_seconds),
            start=1,
        ):
            writer.writerow([i, repr(ll), f"{sec:.6g}"])
