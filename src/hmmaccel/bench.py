"""Benchmark harness: classical vs cluster-weighted training timings.

For each corpus size the harness samples a corpus, times Euclidean
clustering, DTW clustering, classical EM, and weighted EM on the clustered
set (same initial model on both sides), and reports means over a number of
repeated executions. Timings wrap the operations only; corpus generation
and I/O stay outside the clock, and all sub-steps of a row run
sequentially so they never contend.

All computation is single-threaded; the thread count is reported in the
CSV so timings stay interpretable if that ever changes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from .clustering import build_clusters
from .model import HmmModel, sample_sequences
from .training import TrainingConfig, em_train, initialize_model, weighted_em_train

THREADS = 1  # no library-level concurrency inside timed regions


@dataclass(frozen=True)
class BenchReport:
    """One comparison row; all times are means over `runs` in seconds."""

    n_sequences: int
    n_clusters_euclidean: int
    n_clusters_dtw: int
    t_cluster_euclidean_s: float
    t_cluster_dtw_s: float
    t_em_s: float
    t_weighted_em_s: float
    speedup: float        # t_em_s / t_weighted_em_s
    speedup_total: float  # t_em_s / (t_cluster_s + t_weighted_em_s), chosen distance
    runs: int
    distance: str         # which clustering feeds the weighted trainer
    threads: int = THREADS


def bench_row(
    model: HmmModel,
    size: int,
    length: int,
    iterations: int,
    runs: int,
    seed: int,
    distance: str = "euclidean",
) -> BenchReport:
    """Generate one corpus and time both training routes, `runs` times."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")

    rng = np.random.default_rng(seed)
    corpus_seed = int(rng.integers(2**63))
    init_seed = int(rng.integers(2**63))

    data = sample_sequences(model, size, length, corpus_seed)
    init = initialize_model(model.n_states, model.n_symbols, init_seed)
    config = TrainingConfig(iterations=iterations)

    t_euc = t_dtw = t_em = t_wem = 0.0
    table_euc = table_dtw = None
    for _ in range(runs):
        t0 = perf_counter()
        table_euc = build_clusters(data, distance="euclidean")
        t_euc += perf_counter() - t0

        t0 = perf_counter()
        table_dtw = build_clusters(data, distance="dtw")
        t_dtw += perf_counter() - t0

        t0 = perf_counter()
        em_train(init, data, config)
        t_em += perf_counter() - t0

        table = table_euc if distance == "euclidean" else table_dtw
        t0 = perf_counter()
        weighted_em_train(init, table, config)
        t_wem += perf_counter() - t0

    assert table_euc.total_weight == size and table_dtw.total_weight == size

    t_euc /= runs
    t_dtw /= runs
    t_em /= runs
    t_wem /= runs
    t_cluster = t_euc if distance == "euclidean" else t_dtw
    return BenchReport(
        n_sequences=size,
        n_clusters_euclidean=len(table_euc),
        n_clusters_dtw=len(table_dtw),
        t_cluster_euclidean_s=t_euc,
        t_cluster_dtw_s=t_dtw,
        t_em_s=t_em,
        t_weighted_em_s=t_wem,
        speedup=t_em / t_wem,
        speedup_total=t_em / (t_cluster + t_wem),
        runs=runs,
        distance=distance,
    )


def run_bench(
    model: HmmModel,
    sizes: list[int],
    length: int = 5,
    iterations: int = 50,
    runs: int = 10,
    seed: int = 0,
    distance: str = "euclidean",
) -> list[BenchReport]:
    """One report row per corpus size, rows computed sequentially.

    Per-row seeds are split deterministically from the top-level seed, so a
    report is reproducible end to end.
    """
    if not sizes:
        raise ValueError("no corpus sizes")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    row_seeds = [int(rng.integers(2**63)) for _ in sizes]
    return [
        bench_row(model, size, length, iterations, runs, row_seed, distance)
        for size, row_seed in zip(sizes, row_seeds)
    ]


_CSV_FIELDS = [f.name for f in fields(BenchReport)]

# (BenchReport field, header) for each column of the text table.
_TEXT_COLUMNS = [
    ("n_sequences", "sequences"),
    ("n_clusters_euclidean", "clusters_euc"),
    ("n_clusters_dtw", "clusters_dtw"),
    ("t_cluster_euclidean_s", "t_cluster_euc"),
    ("t_cluster_dtw_s", "t_cluster_dtw"),
    ("t_em_s", "t_em"),
    ("t_weighted_em_s", "t_weighted_em"),
    ("speedup", "speedup"),
    ("speedup_total", "speedup_total"),
]


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_csv(reports: list[BenchReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in reports:
        writer.writerow([_cell(getattr(r, f)) for f in _CSV_FIELDS])
    return buf.getvalue()


def report_text(reports: list[BenchReport]) -> str:
    """Fixed-width table over the same values as the CSV."""
    table = [[header for _, header in _TEXT_COLUMNS]]
    table += [[_cell(getattr(r, f)) for f, _ in _TEXT_COLUMNS] for r in reports]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    if reports:
        lines.append(
            f"(means over {reports[0].runs} runs; weighted training uses the "
            f"{reports[0].distance} cluster table)"
        )
    return "\n".join(lines) + "\n"
