"""Seeded inputs for the benchmark's three workloads.

Every workload writes the same kinds of file into a fresh directory: a
generator model, a training corpus, an equal-length corpus for the
exact-match route (Euclidean clustering needs one length) and one or more
score files for `eval` and `decode`, which the passes take in turn.
Corpora are sampled through `hmmaccel gen`, so writing them is program
work that `setup_s` and `cli.gen_s` measure; the same seed always gives
byte-identical files.

Scoring uses the generator model, so every scored sequence is possible and
the eval/decode numbers do not depend on how training went.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hmmaccel.model import HmmModel, load_model, save_model


@dataclass
class Inputs:
    """Paths and sizes of one workload's generated files."""

    model: Path
    corpus: Path
    corpus_eq: Path
    score: list[Path]
    n_states: int
    n_symbols: int
    iterations: int
    init_seed: int
    # Weighted routes and scoring per pass: more than 1 where the classical
    # route dominates a pass, so the cheaper steps still get many samples.
    rounds: int = 1
    # Reference loop (hostspeed.py) for `cluster --distance dtw`: "integer"
    # where the DTW scan dominates the step, "mixed" where parsing does.
    dtw_probe: str = "integer"
    sizes: dict = field(default_factory=dict)


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    """Independent 31-bit seeds for the program's --seed flags."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) >> 1 for s in state]


def _count(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def _random_model(seed: int, n: int, m: int) -> HmmModel:
    """Sticky transitions and peaked emissions, strictly positive."""
    rng = np.random.default_rng([seed, 17])
    pi = rng.dirichlet(np.ones(n))
    a = rng.dirichlet(np.ones(n), size=n) + 4.0 * np.eye(n)
    b = rng.dirichlet(np.full(m, 0.5), size=n) + 1e-3
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    return HmmModel.from_arrays(pi, a, b)


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _gen(main, model: Path, out: Path, count: int, length: int, seed: int) -> None:
    argv = ["gen", str(model), str(out), "--count", str(count),
            "--length", str(length), "--seed", str(seed)]
    if main(argv) != 0:
        raise RuntimeError(f"hmmaccel {' '.join(argv)} failed")


def _score_files(main, model, d: Path, seed, files, count, length) -> list[Path]:
    paths = []
    for k, s in enumerate(_seeds(seed, 3, files)):
        paths.append(d / f"score{k}.txt")
        _gen(main, model, paths[-1], count, length, s)
    return paths


def _ragged(main, model, d: Path, seed, tag, per_length, out: Path) -> list[str]:
    """Distinct sequences, per_length of every length 10..30, in seeded order.

    Each length gets the same count, so the total work of the quadratic
    DTW scan is the same for every seed; only the symbols change.
    """
    lengths = range(10, 31)
    seqs: list[str] = []
    for length, s in zip(lengths, _seeds(seed, tag, len(lengths))):
        part = d / f"part{length}.txt"
        _gen(main, model, part, per_length + 3, length, s)
        kept = list(dict.fromkeys(_read_lines(part)))[:per_length]
        if len(kept) < per_length:
            raise RuntimeError(f"length {length}: too few distinct sequences")
        seqs += kept
        part.unlink()
    order = np.random.default_rng([seed, tag]).permutation(len(seqs))
    seqs = [seqs[i] for i in order]
    out.write_text("".join(line + "\n" for line in seqs), encoding="utf-8")
    return seqs


def paper_redundant(main, d: Path, seed: int, scale: float) -> Inputs:
    """The paper's corpus: bundled 3-state, 10-symbol model, length-5 sequences."""
    ref = importlib.resources.files("hmmaccel").joinpath("data/bench_model.json")
    with importlib.resources.as_file(ref) as path:
        bundled = load_model(path)
    model = d / "model.json"
    save_model(bundled, model)
    corpus = d / "corpus.txt"
    gen_seed, init_seed = _seeds(seed, 1, 2)
    _gen(main, model, corpus, _count(10000, scale), 5, gen_seed)
    score = _score_files(main, model, d, seed, 1, _count(2000, scale), 5)
    return Inputs(model, corpus, corpus, score, 3, 10, 2, init_seed, rounds=3, dtw_probe="mixed")


def diverse_ragged(main, d: Path, seed: int, scale: float) -> Inputs:
    """All-distinct sequences of lengths 10..30 under an 8-state, 40-symbol model."""
    model = d / "model.json"
    save_model(_random_model(seed, 8, 40), model)
    corpus, score = d / "corpus.txt", d / "score0.txt"
    seqs = _ragged(main, model, d, seed, 2, _count(7, scale), corpus)
    _ragged(main, model, d, seed, 5, _count(14, scale), score)
    # Exact-match clustering needs one length: cut every sequence to the shortest.
    corpus_eq = d / "corpus_eq.txt"
    corpus_eq.write_text(
        "".join(" ".join(line.split()[:10]) + "\n" for line in seqs), encoding="utf-8"
    )
    (init_seed,) = _seeds(seed, 1, 1)
    return Inputs(model, corpus, corpus_eq, [score], 8, 40, 3, init_seed)


def score_decode(main, d: Path, seed: int, scale: float) -> Inputs:
    """Length-60 scoring under an 8-state, 40-symbol model.

    The training corpus is a small split, so the scoring steps dominate.
    """
    model = d / "model.json"
    save_model(_random_model(seed, 8, 40), model)
    corpus = d / "corpus.txt"
    gen_seed, init_seed = _seeds(seed, 1, 2)
    _gen(main, model, corpus, _count(32, scale, floor=2), 60, gen_seed)
    score = _score_files(main, model, d, seed, 4, _count(500, scale), 60)
    return Inputs(model, corpus, corpus, score, 8, 40, 4, init_seed)


WORKLOADS = {
    "paper_redundant": paper_redundant,
    "diverse_ragged": diverse_ragged,
    "score_decode": score_decode,
}
