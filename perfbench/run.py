#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hmmaccel.

Run from the root of a source checkout; nothing needs installing:

    python3 perfbench/run.py --workload paper_redundant --seed 1 --seconds 30 --trace 0

One run is one single-threaded process that drives the program as a user
would, through `hmmaccel.cli.main(argv)`, in a closed loop: one caller,
each command starting after the previous one returns. A pass trains a model
by the classical route, then, once or more (the workload's `rounds`), by
the exact-match (`cluster --distance euclidean`) and warp-match
(`cluster --distance dtw`) routes and runs `eval` and `decode` on the next
score file. All routes use the workload's fixed iteration count.
Every output is checked against the benchmark's own references
(checks.py); a nonzero exit or a failed check counts as a failed operation.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics, computed from the traced passes' spans (tracing.py);
`trace.overhead_pct` compares the two kinds of pass. Inputs and outputs
live in a scratch directory under `.bench_work/`, removed at the end; the
traced run leaves its spans in `.bench_work/traces/<workload>.jsonl.gz`.

Every time is in reference seconds (hostspeed.py): the wall time of a step,
scaled by the host's speed as a fixed loop measures it before, during and
after the step, so that drift in the speed of a shared host does not read
as a change in the program. The whole run is pinned to one CPU so that the
loop and the program share a core. The report line gives the host speed.
The last line of stdout is the result; the line before it is a report with
run metadata, sample counts and tail percentiles.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 11
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import hmmaccel"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# End-to-end metrics sampled in the passes, with their better direction.
SAMPLED = {
    "time_to_model_classical_s": "lower",
    "time_to_model_euclidean_s": "lower",
    "time_to_model_dtw_s": "lower",
    "eval_seqs_per_s": "higher",
    "decode_seqs_per_s": "higher",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply sequence counts (the smoke test uses a tiny scale)")
    return p.parse_args(argv)


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile of a list; 0 for an empty list."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)] if xs else 0.0


def tail(samples, better: str) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it, taken on the worse side, with the sample count."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            worse = p if better == "lower" else 100 - p
            out[f"p{p:g}"] = percentile(samples, worse)
            break
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Drives one workload's inputs through the CLI and checks every output."""

    def __init__(self, cli_main, checks, hostspeed, inputs, workdir: Path, tracer):
        self.main = cli_main
        self.checks = checks
        self.hostspeed = hostspeed
        # Host speed around each command, in order and by kind of reference loop.
        self.step_speed: list[float] = []
        self.speed: dict[str, list[float]] = {"mixed": [], "integer": []}
        self.inp = inputs
        self.dir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced = False
        self.scored = 0
        self.ref_model = checks.read_model(inputs.model)
        self.score = [checks.read_sequences(p) for p in inputs.score]
        self.score_ll = [checks.log_forward(self.ref_model, s) for s in self.score]
        corpus = checks.read_sequences(inputs.corpus)
        corpus_eq = checks.read_sequences(inputs.corpus_eq)
        self.n, self.n_eq = len(corpus), len(corpus_eq)
        self.k_exact = len(set(corpus_eq))
        self.k_warp = len({checks.collapse(s) for s in corpus})
        inputs.sizes.update(
            sequences=self.n,
            length_min=min(map(len, corpus)),
            length_max=max(map(len, corpus)),
            exact_match_sequences=self.n_eq,
            score_sequences=sum(map(len, self.score)),
            score_length_max=max(len(s) for c in self.score for s in c),
            clusters_euclidean=self.k_exact,
            clusters_dtw=self.k_warp,
            compression_euclidean=self.n_eq / self.k_exact,
            compression_dtw=self.n / self.k_warp,
        )

    def call(self, argv):
        """One `hmmaccel` command in-process: (exit code, reference seconds,
        stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        root_name = "cli." + argv[0] + ("." + argv[-1] if argv[0] == "cluster" else "")
        kind = self.inp.dtw_probe if argv[0] == "cluster" and argv[-1] == "dtw" else "mixed"
        with self.hostspeed.Step(kind) as step:
            span = self.tracer.begin_step(root_name) if self.traced else None
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            if span is not None:
                self.tracer.close(span)
        self.step_speed.append(step.speed)
        self.speed[kind].append(step.speed)
        return rc, step.seconds, out.getvalue(), err.getvalue()

    def op(self, rec, argv, check) -> float:
        """Run a command, then its output check; count the failure if any."""
        rc, seconds, out, err = self.call(argv)
        self.attempted += 1
        rec["calls_s"] += seconds
        rec["stdout_bytes"] += len(out.encode())
        rec["warnings"] += sum(line.startswith("warning:") for line in err.splitlines())
        problem = f"exit {rc}: {err.strip()[-200:]}" if rc != 0 else None
        if problem is None:
            try:
                problem = check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                files = " ".join(Path(a).name for a in argv[1:3])
                self.errors.append(f"{argv[0]} {files}: {problem}")
        return seconds

    def run_pass(self) -> dict:
        """The classical route once, then `rounds` times the two weighted
        routes and the scoring of the next score file."""
        c, inp, d = self.checks, self.inp, self.dir
        rec = {"calls_s": 0.0, "stdout_bytes": 0, "warnings": 0,
               "samples": {key: [] for key in SAMPLED}}
        common = ["--states", str(inp.n_states), "--symbols", str(inp.n_symbols),
                  "--seed", str(inp.init_seed), "--iterations", str(inp.iterations)]

        def ascent(csv_path):
            return lambda out: c.check_ascent(c.trace_lls(csv_path), inp.iterations)

        classical, rec["csv_classical"] = d / "classical.json", d / "classical.csv"
        rec["samples"]["time_to_model_classical_s"].append(self.op(
            rec, ["train", str(inp.corpus), str(classical), *common,
                  "--trace", str(rec["csv_classical"])],
            ascent(rec["csv_classical"])))

        routes = (("euclidean", inp.corpus_eq, self.n_eq, self.k_exact),
                  ("dtw", inp.corpus, self.n, self.k_warp))
        for _ in range(inp.rounds):
            for distance, corpus, n, k in routes:
                table, model, csv_path = (d / f"{distance}.table.json",
                                          d / f"{distance}.json", d / f"{distance}.csv")
                t_cluster = self.op(
                    rec, ["cluster", str(corpus), str(table), "--distance", distance],
                    lambda out: c.check_table(table, n, k))

                def trained(out, csv_path=csv_path, model=model, distance=distance):
                    # Exact-match weights reproduce classical EM on the same corpus.
                    same = distance == "euclidean" and inp.corpus_eq == inp.corpus
                    return ascent(csv_path)(out) or (
                        c.check_same_model(classical, model) if same else None)

                t_train = self.op(
                    rec, ["train", str(table), str(model), *common, "--trace", str(csv_path)],
                    trained)
                rec["samples"][f"time_to_model_{distance}_s"].append(t_cluster + t_train)
                rec[f"csv_{distance}"] = csv_path
            self.score_next(rec)
        return rec

    def score_next(self, rec) -> None:
        """`eval`, then `decode`, of the next score file."""
        c, inp = self.checks, self.inp
        k = self.scored % len(inp.score)
        self.scored += 1
        path, seqs, ref = inp.score[k], self.score[k], self.score_ll[k]
        parsed = {}

        def evaluated(out):
            parsed["ll"], problem = c.check_eval(out, ref)
            return problem

        def decoded(out):
            if parsed.get("ll") is None:
                return "no eval output to compare with"
            return c.check_decode(out, self.ref_model, seqs, parsed["ll"])

        seconds = self.op(rec, ["eval", str(inp.model), str(path)], evaluated)
        rec["samples"]["eval_seqs_per_s"].append(len(seqs) / seconds)
        seconds = self.op(rec, ["decode", str(inp.model), str(path)], decoded)
        rec["samples"]["decode_seqs_per_s"].append(len(seqs) / seconds)

    def run_traced_pass(self) -> dict:
        """A pass with spans on; its record carries the layer numbers."""
        lo, first, first_mixed = (len(self.tracer.start), len(self.step_speed),
                                  len(self.speed["mixed"]))
        self.traced = True
        self.tracer.install()
        try:
            rec = self.run_pass()
        finally:
            self.tracer.uninstall()
            self.traced = False
        # Span times in reference seconds, at the host speed of their step.
        frame = self.tracer.frame(lo, len(self.tracer.start), scale=self.step_speed[first:])
        rec["layers"] = layer_values(frame, rec, self.inp.iterations)
        for fn in ("likelihood", "viterbi"):
            rec[f"{fn}_us"] = (frame.durations(f"hmmaccel.cli.{fn}") * 1e6).tolist()
        # Iteration times from the training traces, at the pass's host speed.
        speed = statistics.median(self.speed["mixed"][first_mixed:])
        for route in ("classical", "euclidean", "dtw"):  # the next pass overwrites the CSVs
            rec[f"iter_{route}"] = [speed * s for s in
                                    self.checks.iteration_seconds(rec[f"csv_{route}"])]
        return rec


def layer_values(f, rec, iterations: int) -> dict:
    """Per-layer numbers of one traced pass, from its spans."""
    fb = "hmmaccel.training.forward_backward"
    dtw, euc = "hmmaccel.clustering.dtw_distance", "hmmaccel.clustering.euclidean_distance"
    roots = ["cli.train", "cli.cluster.euclidean", "cli.cluster.dtw", "cli.eval", "cli.decode"]
    calls = f.count(dtw, euc)
    steps, fb_s = f.notes(fb), f.total(fb)
    build = "hmmaccel.cli.build_clusters"
    return {
        "model.load_sequences_s": f.total("hmmaccel.cli.load_sequences"),
        "model.symbols": f.notes("hmmaccel.cli.load_sequences"),
        "clustering.euclidean_s": f.total(build, parent="cli.cluster.euclidean"),
        "clustering.dtw_s": f.total(build, parent="cli.cluster.dtw"),
        "clustering.table_io_s": f.total("hmmaccel.cli.save_cluster_table",
                                         "hmmaccel.cli.load_cluster_table"),
        "dtw.dtw_calls": f.count(dtw),
        "dtw.dtw_s": f.total(dtw),
        "dtw.euclidean_calls": f.count(euc),
        "dtw.euclidean_s": f.total(euc),
        "dtw.zero_hit_ratio": f.notes(dtw, euc) / calls if calls else 0.0,
        "inference.forward_backward_calls": f.count(fb),
        "inference.forward_backward_s": fb_s,
        "inference.state_steps": steps,
        "inference.state_steps_per_s": steps / fb_s if fb_s > 0 else 0.0,
        "training.self_s": f.self_total("hmmaccel.cli.em_train", "hmmaccel.cli.weighted_em_train"),
        "training.sequences_per_iter": f.count(fb) / iterations,
        "training.zero_occupancy_events": rec["warnings"],
        "cli.cluster_s": f.total("cli.cluster.euclidean", "cli.cluster.dtw"),
        "cli.train_s": f.total("cli.train"),
        "cli.eval_s": f.total("cli.eval"),
        "cli.decode_s": f.total("cli.decode"),
        "cli.self_s": f.self_total(*roots),
        "cli.output_bytes": rec["stdout_bytes"],
    }


def per_layer(e2e: dict, plain: list, traced: list, sizes: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, per-call
    percentiles pooled over them, and numbers derived from the untraced ones."""
    values = {key: statistics.median(float(r["layers"][key]) for r in traced)
              for key in traced[0]["layers"]}
    for fn in ("likelihood", "viterbi"):
        us = [x for r in traced for x in r[f"{fn}_us"]]
        for p in (50, 99):
            values[f"inference.{fn}_us_p{p}"] = percentile(us, p)
    values["training.classical_iter_s"] = statistics.median(
        s for r in traced for s in r["iter_classical"])
    values["training.weighted_iter_s"] = statistics.median(
        s for r in traced for s in r["iter_euclidean"] + r["iter_dtw"])
    for route in ("euclidean", "dtw"):
        values[f"clustering.clusters_{route}"] = sizes[f"clusters_{route}"]
        values[f"clustering.compression_{route}"] = sizes[f"compression_{route}"]
        values[f"speedup_total_{route}"] = (
            e2e["time_to_model_classical_s"] / e2e[f"time_to_model_{route}_s"])
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["calls_s"] for r in traced)
        / statistics.median(r["calls_s"] for r in plain) - 1.0)
    return values


def measure_setup(make, gen_main, hostspeed, seed, scale, scratch: Path):
    """Set up SETUP_REPS times: start a process that imports hmmaccel, then
    write the workload's files. Returns the first set of inputs, the setup
    times in reference seconds and a determinism error, if two set-ups
    wrote different bytes."""
    samples, first, problem = [], None, None
    for rep in range(SETUP_REPS):
        before = hostspeed.probe("mixed")
        t0 = perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if probe.returncode != 0:
            raise RuntimeError(f"importing hmmaccel failed: {probe.stderr.strip()[-300:]}")
        # The child shares the CPU, so the host is probed only around it.
        t_import = perf_counter() - t0
        t_import *= hostspeed.speed(before, hostspeed.probe("mixed"), "mixed")
        d = scratch / f"inputs{rep}"
        d.mkdir()
        with hostspeed.Step("mixed") as step:
            inputs = make(gen_main, d, seed, scale)
        samples.append(t_import + step.seconds)
        if first is None:
            first = inputs, d
            continue
        for a in sorted(first[1].iterdir()):
            if a.read_bytes() != (d / a.name).read_bytes():
                problem = f"set-up is not deterministic: {a.name} differs"
        shutil.rmtree(d)
    return first[0], samples, problem


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the whole run, child processes included, so that the
    # host-speed probes see the core the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "hmmaccel" / "__init__.py").is_file():
        # Never measure an installed copy in place of this checkout's source.
        print(f"error: no hmmaccel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np

        import hmmaccel
        from hmmaccel import cli
    except ImportError as exc:
        print(f"error: cannot import hmmaccel from {SRC}: {exc}", file=sys.stderr)
        return 2
    import checks
    import hostspeed
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tracer = tracing.Tracer()

    def gen_main(argv):
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs, setup_s, setup_problem = measure_setup(make, gen_main, hostspeed, args.seed,
                                                       args.scale, scratch)
        gen_s = None
        if args.trace:
            # One more set-up with spans on, for the time spent in `gen`.
            lo = len(tracer.start)
            tracer.install()

            def traced_gen(argv):
                span = tracer.begin_step("cli.gen")
                try:
                    return gen_main(argv)
                finally:
                    tracer.close(span)

            (scratch / "traced").mkdir()
            with hostspeed.Step("mixed") as step:
                make(traced_gen, scratch / "traced", args.seed, args.scale)
            tracer.uninstall()
            gen_s = tracer.frame(lo, len(tracer.start), scale=step.speed).total("cli.gen")

        (scratch / "run").mkdir()
        runner = Runner(cli.main, checks, hostspeed, inputs, scratch / "run", tracer)
        if setup_problem:
            runner.attempted += 1
            runner.failed += 1
            runner.errors.append(setup_problem)
        runner.run_pass()  # warm-up: checked, not timed
        plain, traced = [], []
        deadline = perf_counter() + args.seconds
        while True:
            if args.trace and len(plain) > len(traced):
                traced.append(runner.run_traced_pass())
            else:
                plain.append(runner.run_pass())
            if perf_counter() >= deadline and len(traced) >= args.trace * len(plain):
                break

        timings = {"setup_s": (setup_s, "lower")}
        for key, better in SAMPLED.items():
            timings[key] = ([x for r in plain for x in r["samples"][key]], better)
        values = {k: statistics.median(xs) for k, (xs, _) in timings.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            values.update(per_layer(values, plain, traced, inputs.sizes))
            values["cli.gen_s"] = gen_s
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{args.workload}.jsonl.gz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}
    for msg in runner.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hmmaccel": hmmaccel.__version__,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "HMMACCEL_THREADS")},
        "sizes": {**inputs.sizes, "iterations": inputs.iterations,
                  "states": inputs.n_states, "symbols": inputs.n_symbols},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "error_rate": runner.failed / runner.attempted,
        "host_speed": {k: tail(xs, "higher") for k, xs in runner.speed.items() if xs},
        "timings": {k: tail(xs, better) for k, (xs, better) in timings.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
