"""Command-line front end.

Subcommands: gen, cluster, train, eval, decode, dist, bench. File formats
are the package's JSON model format, plain-text sequence files (one
sequence per line), and JSON cluster tables. Every command exits 0 only if
all of its steps succeeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import bench as bench_mod
from .clustering import (
    DISTANCES,
    build_clusters,
    filter_low_weight,
    load_cluster_table,
    save_cluster_table,
)
from .dtw import dtw_distance, euclidean_distance
from .inference import SCORE_STEPS, length_blocks, score_block, viterbi_block
from .model import (
    HmmModel,
    load_distinct_sequences,
    load_model,
    load_sequences,
    sample_sequences,
    save_model,
    save_sequences,
)
from .training import TrainingConfig, em_train, initialize_model, weighted_em_train, write_trace_csv

DEFAULT_BENCH_SIZES = "100,1000,10000"


def _bundled_bench_model() -> HmmModel:
    ref = importlib.resources.files("hmmaccel").joinpath("data/bench_model.json")
    with importlib.resources.as_file(ref) as path:
        return load_model(path)


def _looks_like_json(path) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line in fh:
                stripped = line.strip()
                if stripped:
                    return stripped.startswith("{")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    return False


def _cmd_gen(args) -> int:
    model = load_model(args.model, renormalize=args.renormalize)
    data = sample_sequences(model, args.count, args.length, args.seed)
    save_sequences(data, args.out)
    return 0


def _cmd_cluster(args) -> int:
    # Each distinct line is clustered once, counted as often as it occurs.
    data, inverse = load_distinct_sequences(args.input)
    t0 = perf_counter()
    table = build_clusters(data, args.distance, inverse)
    seconds = perf_counter() - t0
    table = dataclasses.replace(table, category_id=args.category_id)
    if args.min_weight is not None:
        table = filter_low_weight(table, args.min_weight)
    save_cluster_table(table, args.out)
    total = table.total_weight
    print(
        f"clusters={len(table)} total_weight={total} seconds={seconds:.6g} "
        f"compression={total / len(table):.6g} "
        f"max_weight={table.weights.max()}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.init_model is not None:
        init = load_model(args.init_model, renormalize=args.renormalize)
    else:
        if args.states is None or args.symbols is None:
            raise ValueError("--states and --symbols are required without --init-model")
        init = initialize_model(args.states, args.symbols, args.seed)

    weighted = _looks_like_json(args.input)
    mode = "weighted" if weighted else "classical"
    config = TrainingConfig(iterations=args.iterations, ll_tolerance=args.ll_tolerance)
    if weighted:
        table = load_cluster_table(args.input)
        values = table.reps.values  # not empty, and no symbol is negative
        if values.max() >= init.n_symbols:
            at = int(np.argmax(values >= init.n_symbols))
            i = int(np.searchsorted(table.reps.offsets, at, side="right")) - 1
            raise ValueError(
                f"cluster file {args.input}: cluster {i} uses symbol {values[at]}, "
                f"out of range for a model with {init.n_symbols} symbols"
            )
        trace = weighted_em_train(init, table, config)
    else:
        data = load_sequences(args.input, n_symbols=init.n_symbols)
        trace = em_train(init, data, config)

    save_model(trace.final_model, args.out)
    trace_path = args.trace or str(Path(args.out).with_suffix("")) + ".trace.csv"
    write_trace_csv(trace, trace_path)
    for note in trace.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(
        f"mode={mode} iterations={len(trace.per_iteration_log_likelihood)} "
        f"final_ll={trace.per_iteration_log_likelihood[-1]!r} "
        f"seconds={trace.wall_time_seconds:.6g}"
    )
    return 0


def _score_file(args, block_lines) -> int:
    """Run `block_lines(model, block)` on each packed block of the sequence
    file's distinct lines and print one line per sequence, in input order.
    Every sequence is checked against the model before anything is
    printed.

    A repeated line is scored once: a sequence's result does not depend on
    its block, so its repeats print the same bits. Blocks go up to
    SCORE_STEPS padded steps: scoring keeps no (T, B, N) history, so a
    whole file usually runs in one block (see `inference.SCORE_STEPS`)."""
    model = load_model(args.model, renormalize=args.renormalize)
    data, inverse = load_distinct_sequences(args.input, n_symbols=model.n_symbols)
    lines = [""] * len(data)
    blocks = length_blocks(data, model.n_symbols, SCORE_STEPS)
    del data  # the blocks hold their own copy of every symbol
    for block in blocks:
        for row, line in zip(block.rows.tolist(), block_lines(model, block)):
            lines[row] = line
    sys.stdout.write("".join(map(lines.__getitem__, inverse.tolist())))
    return 0


def _eval_lines(model, block) -> list[str]:
    return [f"{ll!r}\n" for ll in score_block(model, block).tolist()]


def _decode_lines(model, block) -> list[str]:
    paths, log_probs = viterbi_block(model, block)
    n, lengths = model.n_states, block.lengths
    # each state's name ends in its separator: names[s] is "s " and
    # names[N + s] is "s\t", which ends a row's path
    names = np.array([f"{s}{sep}".encode() for sep in " \t" for s in range(n)])
    paths[np.arange(len(lengths)), lengths - 1] += n
    steps = paths[np.arange(paths.shape[1]) < lengths[:, None]]  # valid steps, row by row
    # numpy pads the shorter names with NULs
    text = names.take(steps).tobytes().replace(b"\0", b"").decode().split("\t")
    return [
        "-inf\n" if lp == -math.inf else f"{path}\t{lp!r}\n"
        for path, lp in zip(text, log_probs.tolist())
    ]


def _cmd_eval(args) -> int:
    return _score_file(args, _eval_lines)


def _cmd_decode(args) -> int:
    return _score_file(args, _decode_lines)


def _cmd_dist(args) -> int:
    data_a = load_sequences(args.file_a)
    data_b = load_sequences(args.file_b)
    if args.distance == "euclidean":  # every pair must have one length: check before printing
        t_len = data_a.lengths[0]
        for path, data in ((args.file_a, data_a), (args.file_b, data_b)):
            other = np.flatnonzero(data.lengths != t_len)
            if other.size:
                pos = int(other[0])
                raise ValueError(
                    f"{path}: sequence {pos + 1} has length {data.lengths[pos]} but sequence 1 "
                    f"of {args.file_a} has length {t_len}; euclidean distance requires one length"
                )
    dist = dtw_distance if args.distance == "dtw" else euclidean_distance
    rows_b = [y.tolist() for y in data_b.sequences]
    for i, x in enumerate(data_a.sequences, start=1):
        x = x.tolist()
        for j, y in enumerate(rows_b, start=1):
            print(f"{i} {j} {dist(x, y)!r}")
    return 0


def _cmd_bench(args) -> int:
    sizes = []
    for tok in filter(str.strip, args.sizes.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ValueError(f"--sizes: {tok.strip()!r} is not an integer") from None
    model = load_model(args.model) if args.model else _bundled_bench_model()
    reports = bench_mod.run_bench(
        model,
        sizes,
        length=args.length,
        iterations=args.iterations,
        runs=args.runs,
        seed=args.seed,
        distance=args.distance,
    )
    sys.stdout.write(bench_mod.report_text(reports))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.report_csv(reports))
    return 0


def _add_renormalize(parser) -> None:
    parser.add_argument(
        "--renormalize",
        action="store_true",
        help="renormalize off-sum rows when loading a model instead of failing",
    )


def _gen_args(p) -> None:
    p.add_argument("model", help="model JSON file")
    p.add_argument("out", help="output sequence file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_renormalize(p)


def _cluster_args(p) -> None:
    p.add_argument("input", help="sequence file")
    p.add_argument("out", help="output cluster table JSON")
    p.add_argument("--distance", choices=DISTANCES, default="dtw")
    p.add_argument("--min-weight", type=int, default=None, help="drop clusters below this weight")
    p.add_argument("--category-id", type=int, default=0)


def _train_args(p) -> None:
    p.add_argument("input", help="sequence file (classical) or cluster JSON (weighted)")
    p.add_argument("out", help="output model JSON")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="seed for the random initial model")
    p.add_argument("--states", type=int, default=None, help="state count for seeded init")
    p.add_argument("--symbols", type=int, default=None, help="symbol count for seeded init")
    p.add_argument("--init-model", default=None, help="explicit initial model JSON")
    p.add_argument("--ll-tolerance", type=float, default=None, help="early-stop threshold")
    p.add_argument("--trace", default=None, help="trace CSV path (default: OUT.trace.csv)")
    _add_renormalize(p)


def _score_args(p) -> None:
    p.add_argument("model")
    p.add_argument("input", help="sequence file")
    _add_renormalize(p)


def _dist_args(p) -> None:
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--distance", choices=DISTANCES, default="dtw")


def _bench_args(p) -> None:
    p.add_argument("--model", default=None, help="generator model JSON (default: bundled)")
    p.add_argument("--sizes", default=DEFAULT_BENCH_SIZES, help="comma-separated corpus sizes")
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distance", choices=DISTANCES, default="euclidean")
    p.add_argument("--csv", default=None, help="also write the report as CSV here")


# name: (help, argument adder, handler), in the order that --help lists them
COMMANDS = {
    "gen": ("sample sequences from a model into a file", _gen_args, _cmd_gen),
    "cluster": ("cluster a sequence file into a weighted table", _cluster_args, _cmd_cluster),
    "train": ("train a model on a sequence or cluster file", _train_args, _cmd_train),
    "eval": ("log-likelihood of each sequence in a file", _score_args, _cmd_eval),
    "decode": ("Viterbi state path of each sequence in a file", _score_args, _cmd_decode),
    "dist": ("pairwise distances between two sequence files", _dist_args, _cmd_dist),
    "bench": ("classical vs cluster-weighted training benchmark", _bench_args, _cmd_bench),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named `only`. The second
    prints the same usage line as the first, so that an error its top level
    reports (an extra argument) reads the same."""
    parser = argparse.ArgumentParser(
        prog="hmmaccel",
        description="Discrete-HMM training accelerated by weighted sequence clustering.",
    )
    # Only here: in the full parser a metavar would also replace `command`
    # in the missing-command and invalid-choice errors.
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_args, func) in COMMANDS.items():
        if only is None or name == only:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command builds only its own parser; anything else (no
    # arguments, --help, a typo) gets the full one and its messages
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # descriptive failure, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
