"""Command-line front end.

Subcommands: gen, cluster, train, eval, decode, dist, bench. File formats
are the package's JSON model format, plain-text sequence files (one
sequence per line), and JSON cluster tables. Every command exits 0 only if
all of its steps succeeded.

`main` builds a command's own parser on the first line that names it and
parses that command's later lines in the process with the same parser. It
keeps the parser alone: the handler is looked up in `COMMANDS`, and every
file is read, on each call.

On glibc, the first `main` call also tells the C allocator, through
`mallopt`, to keep freed memory mapped: buffers below 4 x
`inference.BLOCK_BYTES` come from the heap rather than from maps of their
own, and up to 16 x `BLOCK_BYTES` of free heap stays with the process.
glibc's defaults hand that memory back to the kernel after a command, and
the next command faults it in again, page by page: about 600 minor faults
per classical `train` of a 10k x 5 corpus. So a process that runs more
than one command, as a benchmark or a script that calls `main` in a loop
does, faults its pages in once. A process that runs a single command
faults fewer pages too and runs level or a little faster (measured in
README). The setting is process-wide but bounded, and importing the
package still changes nothing; other C libraries are left alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib.resources
import math
import os
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
from .inference import BLOCK_BYTES, length_blocks, score_block, viterbi_block
from .model import (
    HmmModel,
    _write_text,
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
    data = load_sequences(args.input)
    t0 = perf_counter()
    table = build_clusters(data, args.distance)
    seconds = perf_counter() - t0
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
    trace_path = args.trace or str(Path(args.out).with_suffix("")) + ".trace.csv"
    if os.path.realpath(trace_path) == os.path.realpath(args.out):
        raise ValueError(f"the trace file {trace_path} (--trace) and the output model "
                         f"{args.out} (OUT) are the same file")
    if args.init_model is not None:
        init = load_model(args.init_model, renormalize=args.renormalize)
        for flag, given, held in (("--states", args.states, init.n_states),
                                  ("--symbols", args.symbols, init.n_symbols)):
            if given is not None and given != held:
                raise ValueError(f"{flag} {given} disagrees with {args.init_model}, "
                                 f"which has {held}")
    else:
        if args.states is None or args.symbols is None:
            raise ValueError("--states and --symbols are required without --init-model")
        init = initialize_model(args.states, args.symbols, args.seed)

    weighted = _looks_like_json(args.input)
    mode = "weighted" if weighted else "classical"
    config = TrainingConfig(iterations=args.iterations, ll_tolerance=args.ll_tolerance)
    if weighted:
        table = load_cluster_table(args.input, n_symbols=init.n_symbols)
        trace = weighted_em_train(init, table, config)
    else:
        data = load_sequences(args.input, n_symbols=init.n_symbols)
        trace = em_train(init, data, config)

    save_model(trace.final_model, args.out)
    write_trace_csv(trace, trace_path)
    for note in trace.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(
        f"mode={mode} iterations={len(trace.per_iteration_log_likelihood)} "
        f"final_ll={trace.per_iteration_log_likelihood[-1]!r} "
        f"seconds={trace.wall_time_seconds:.6g}"
    )
    return 0


def _score_file(args, kernel, block_lines) -> int:
    """Run `kernel(model, block)` on each packed block of the sequence
    file's distinct lines, turn its result into lines with
    `block_lines(model, block, result)` and print one line per sequence,
    in input order. Every sequence is checked against the model before
    anything is printed.

    A repeated line is scored once: a sequence's result does not depend on
    its block, so its repeats print the same bits. Blocks are the kernel's
    own, within `inference.BLOCK_BYTES`: at short lengths and few states a
    whole file usually runs in one block."""
    model = load_model(args.model, renormalize=args.renormalize)
    data, inverse = load_distinct_sequences(args.input, n_symbols=model.n_symbols)
    lines = [""] * len(data)
    blocks = length_blocks(data, model, kernel)
    del data  # the blocks hold their own copy of every symbol
    for block in blocks:
        for row, line in zip(block.rows.tolist(), block_lines(model, block, kernel(model, block))):
            lines[row] = line
    sys.stdout.write("".join(map(lines.__getitem__, inverse.tolist())))
    return 0


def _eval_lines(model, block, lls) -> list[str]:
    return [f"{ll!r}\n" for ll in lls.tolist()]


def _decode_lines(model, block, decoded) -> list[str]:
    paths, log_probs = decoded
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
    return _score_file(args, score_block, _eval_lines)


def _cmd_decode(args) -> int:
    return _score_file(args, viterbi_block, _decode_lines)


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
        _write_text(args.csv, bench_mod.report_csv(reports))
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


def _train_args(p) -> None:
    p.add_argument("input", help="sequence file (classical) or cluster JSON (weighted)")
    p.add_argument("out", help="output model JSON")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="seed for the random initial model")
    p.add_argument("--states", type=int, default=None,
                   help="state count for seeded init; with --init-model, must equal the model's")
    p.add_argument("--symbols", type=int, default=None,
                   help="symbol count for seeded init; with --init-model, must equal the model's")
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
    """The parser of every command, or the standalone parser of the one
    named `only`. The second is the parser the first builds for that
    command, with the same prog (`hmmaccel ONLY`), arguments and defaults,
    so its help and errors read the same."""
    if only is not None:
        _, add_args, func = COMMANDS[only]
        parser = argparse.ArgumentParser(prog=f"hmmaccel {only}")
        add_args(parser)
        parser.set_defaults(func=func)
        return parser
    parser = argparse.ArgumentParser(
        prog="hmmaccel",
        description="Discrete-HMM training accelerated by weighted sequence clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def _on_glibc() -> bool:
    """Whether this process's C library is glibc."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False


@functools.cache
def _keep_freed_memory() -> None:
    """On glibc, fix the allocator's map and trim thresholds, once per
    process (see the module docstring); elsewhere, do nothing."""
    if not _on_glibc():
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(m_mmap_threshold, 4 * BLOCK_BYTES)
    mallopt(m_trim_threshold, 16 * BLOCK_BYTES)


# command name: its standalone parser, built by `main` on the command's
# first line in the process
_PARSERS: dict[str, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    """Run the command line `argv` (default: `sys.argv[1:]`) and return its
    exit code.

    When `argv[0]` names a command, the rest of the line is parsed by that
    command's parser alone, with `parse_known_args`, as the full parser's
    subparsers action would parse it. That parser is built on the
    command's first line in the process and kept for its later lines; the
    handler is the one `COMMANDS` holds at the call. The full parser is
    built, each time, only when there is no command, an option or an
    unknown command comes first, or arguments are left over; it then
    reports them under its own usage line. So valid command lines build at
    most one `ArgumentParser` per command per process.

    The first call also keeps freed memory mapped on glibc
    (`_keep_freed_memory`)."""
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = extra = None
    if argv and argv[0] in COMMANDS:
        if argv[0] not in _PARSERS:
            _PARSERS[argv[0]] = build_parser(argv[0])
        args, extra = _PARSERS[argv[0]].parse_known_args(argv[1:])
        args.func = COMMANDS[argv[0]][2]
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # descriptive failure, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
