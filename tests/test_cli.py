"""End-to-end checks of the command-line interface."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_budget,
    decode_lines_join,
    dtw_path,
    run_length_collapse,
    save_cluster_table_json,
)

import hmmaccel
from hmmaccel import (
    ClusterTable,
    Dataset,
    HmmModel,
    ImpossibleSequenceError,
    build_clusters,
    cli,
    euclidean_distance,
    length_blocks,
    likelihood,
    load_model,
    load_sequences,
    save_cluster_table,
    save_model,
    score_block,
    viterbi,
    viterbi_block,
)
from hmmaccel import clustering, inference
from hmmaccel.cli import main
from hmmaccel.inference import BLOCK_BYTES

CHAIN_MODEL = {
    "n_states": 2,
    "n_symbols": 2,
    "pi": [1.0, 0.0],
    "a": [[0.0, 1.0], [1.0, 0.0]],
    "b": [[1.0, 0.0], [0.0, 1.0]],
}

FOUR_LINES = "1 2 3 4 5 6 7\n1 2 2 2 2 3 4\n1 1 2 3 3 3 4\n1 2 2 2 3 4 4\n"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_gen_single_state(tmp_path, capsys):
    model = write_json(
        tmp_path / "m.json",
        {"n_states": 1, "n_symbols": 3, "pi": [1.0], "a": [[1.0]], "b": [[0.0, 1.0, 0.0]]},
    )
    out = tmp_path / "seqs.txt"
    code, _, err = run(capsys, "gen", model, str(out), "--count", "3", "--length", "2")
    assert code == 0 and err == ""
    assert out.read_text() == "1 1\n1 1\n1 1\n"


def test_gen_seed_determinism(tmp_path, capsys):
    model = write_json(
        tmp_path / "m.json",
        {
            "n_states": 2,
            "n_symbols": 3,
            "pi": [0.4, 0.6],
            "a": [[0.5, 0.5], [0.2, 0.8]],
            "b": [[0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
        },
    )
    out1, out2, out3 = (tmp_path / f"s{i}.txt" for i in range(3))
    assert run(capsys, "gen", model, str(out1), "--count", "20", "--length", "4", "--seed", "9")[0] == 0
    assert run(capsys, "gen", model, str(out2), "--count", "20", "--length", "4", "--seed", "9")[0] == 0
    assert run(capsys, "gen", model, str(out3), "--count", "20", "--length", "4", "--seed", "10")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_gen_rejects_bad_model(tmp_path, capsys):
    model = write_json(
        tmp_path / "m.json",
        {"n_states": 1, "n_symbols": 2, "pi": [1.0], "a": [[1.0]], "b": [[0.7, 0.7]]},
    )
    out = tmp_path / "seqs.txt"
    code, _, err = run(capsys, "gen", model, str(out), "--count", "1", "--length", "1")
    assert code == 1
    assert err.startswith("error:")
    code, _, _ = run(
        capsys, "gen", model, str(out), "--count", "1", "--length", "1", "--renormalize"
    )
    assert code == 0


def test_gen_renormalize_rejects_zero_row(tmp_path, capsys):
    model = write_json(
        tmp_path / "m.json",
        {
            "n_states": 2,
            "n_symbols": 2,
            "pi": [0.5, 0.5],
            "a": [[0.0, 0.0], [0.0, 1.0]],
            "b": [[1.0, 0.0], [0.0, 1.0]],
        },
    )
    out = tmp_path / "seqs.txt"
    code, _, err = run(
        capsys, "gen", model, str(out), "--count", "1", "--length", "1", "--renormalize"
    )
    assert code == 1
    assert err == f"error: model file {model} is invalid: a has non-finite entries\n"
    assert not out.exists()


def test_cluster_four_sequences(tmp_path, capsys):
    seqs = tmp_path / "four.txt"
    seqs.write_text(FOUR_LINES)
    out = tmp_path / "clusters.json"
    code, stdout, _ = run(capsys, "cluster", str(seqs), str(out))
    assert code == 0
    assert stdout.startswith("clusters=2 total_weight=4 seconds=")
    assert stdout.endswith(" compression=2 max_weight=3\n")
    payload = json.loads(out.read_text())
    assert [c["weight"] for c in payload["clusters"]] == [1, 3]
    assert payload["clusters"][1]["representative"] == [1, 2, 2, 2, 2, 3, 4]

    code, stdout, _ = run(
        capsys, "cluster", str(seqs), str(out), "--distance", "euclidean"
    )
    assert code == 0
    assert stdout.startswith("clusters=4 total_weight=4 seconds=")
    assert stdout.endswith(" compression=1 max_weight=1\n")


def test_cluster_min_weight(tmp_path, capsys):
    seqs = tmp_path / "four.txt"
    seqs.write_text(FOUR_LINES)
    out = tmp_path / "clusters.json"
    code, stdout, _ = run(capsys, "cluster", str(seqs), str(out), "--min-weight", "2")
    assert code == 0
    assert stdout.startswith("clusters=1 total_weight=3 ")
    assert stdout.endswith(" compression=3 max_weight=3\n")
    payload = json.loads(out.read_text())
    assert payload["total_weight"] == 3


def test_cluster_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "clusters.json"
    code, _, err = run(capsys, "cluster", str(empty), str(out))
    assert code == 1 and "no sequences" in err

    mixed = tmp_path / "mixed.txt"
    mixed.write_text("1 2 3\n1 2\n")
    code, _, err = run(capsys, "cluster", str(mixed), str(out), "--distance", "euclidean")
    assert code == 1 and "sequence 2" in err

    # the offending line is the second distinct one but the third sequence
    mixed.write_text("1 2\n1 2\n1 2 3\n")
    code, _, err = run(capsys, "cluster", str(mixed), str(out), "--distance", "euclidean")
    assert code == 1
    assert err == (
        "error: sequence 3 has length 3 but sequence 1 has length 2; "
        "euclidean clustering requires one length\n"
    )


def test_train_sequence_file(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 0 0\n")
    out = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "train", str(seqs), str(out),
        "--states", "1", "--symbols", "2", "--iterations", "1",
    )
    assert code == 0
    assert stdout.startswith("mode=classical iterations=1 final_ll=")
    model = load_model(out)
    assert model.b.tolist() == [[1.0, 0.0]]
    assert model.pi.tolist() == [1.0]
    trace = tmp_path / "model.trace.csv"
    assert trace.exists()
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,log_likelihood,cumulative_seconds"
    assert len(lines) == 2


def test_train_cluster_dispatch_and_weight_one_identity(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 2\n2 1 0\n1 1 1\n0 2 2\n")
    clusters = tmp_path / "clusters.json"
    assert run(capsys, "cluster", str(seqs), str(clusters), "--distance", "euclidean")[0] == 0

    m_seq = tmp_path / "m_seq.json"
    m_clu = tmp_path / "m_clu.json"
    common = ["--states", "2", "--symbols", "3", "--seed", "4", "--iterations", "10"]
    code, stdout, _ = run(capsys, "train", str(seqs), str(m_seq), *common)
    assert code == 0 and stdout.startswith("mode=classical")
    code, stdout, _ = run(capsys, "train", str(clusters), str(m_clu), *common)
    assert code == 0 and stdout.startswith("mode=weighted")
    assert m_seq.read_bytes() == m_clu.read_bytes()


def test_train_init_model(tmp_path, capsys):
    init = write_json(
        tmp_path / "init.json",
        {
            "n_states": 2,
            "n_symbols": 3,
            "pi": [0.5, 0.5],
            "a": [[0.6, 0.4], [0.3, 0.7]],
            "b": [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]],
        },
    )
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 2\n2 2 0\n")
    out = tmp_path / "model.json"
    code, _, _ = run(
        capsys, "train", str(seqs), str(out), "--init-model", init, "--iterations", "3"
    )
    assert code == 0
    assert load_model(out).n_symbols == 3


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--states", "2", "--symbols", "3"], None),
        (["--states", "5", "--symbols", "9"], "--states 5 disagrees with {init}, which has 2"),
        (["--symbols", "9"], "--symbols 9 disagrees with {init}, which has 3"),
        (["--states", "2", "--symbols", "4"], "--symbols 4 disagrees with {init}, which has 3"),
    ],
)
def test_train_init_model_checks_states_and_symbols(tmp_path, capsys, flags, message):
    init = write_json(
        tmp_path / "init.json",
        {
            "n_states": 2,
            "n_symbols": 3,
            "pi": [0.5, 0.5],
            "a": [[0.6, 0.4], [0.3, 0.7]],
            "b": [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]],
        },
    )
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 2\n2 2 0\n")
    out = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(seqs), str(out), "--init-model", init, *flags)
    if message is None:
        assert (code, err) == (0, "")
        assert load_model(out).n_states == 2
    else:
        assert (code, err) == (1, f"error: {message.format(init=init)}\n")
        assert not out.exists()


def test_train_prints_zero_occupancy_warnings(tmp_path, capsys):
    # state 1 is never entered, so each iteration carries its rows over
    init = write_json(
        tmp_path / "init.json",
        {
            "n_states": 2,
            "n_symbols": 2,
            "pi": [1.0, 0.0],
            "a": [[1.0, 0.0], [0.3, 0.7]],
            "b": [[0.5, 0.5], [0.2, 0.8]],
        },
    )
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 0\n")
    code, stdout, err = run(
        capsys, "train", str(seqs), str(tmp_path / "m.json"), "--init-model", init,
        "--iterations", "2",
    )
    assert code == 0 and stdout.startswith("mode=classical iterations=2 ")
    assert err == "".join(
        f"warning: iteration {it}: state 1 {note}\n"
        for it in (1, 2)
        for note in ("has zero expected transition count; A row carried over",
                     "has zero expected occupancy; B row carried over")
    )


def test_train_whitespace_only_file(tmp_path, capsys):
    seqs = tmp_path / "blank.txt"
    seqs.write_text("  \n\t\n\n")
    out = tmp_path / "m.json"
    code, stdout, err = run(capsys, "train", str(seqs), str(out), "--states", "2", "--symbols", "2")
    assert (code, stdout) == (1, "")
    assert err == f"error: {seqs}: no sequences found\n"
    assert not out.exists()


@pytest.mark.parametrize("trace", ["m.json", "sub/../m.json", "link.csv"])
def test_train_refuses_a_trace_that_is_the_model(tmp_path, capsys, monkeypatch, trace):
    # the trace, written after the model, would replace it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to("m.json")
    (tmp_path / "seqs.txt").write_text("0 1\n")
    code, stdout, err = run(capsys, "train", "seqs.txt", "m.json", "--states", "1",
                            "--symbols", "2", "--trace", trace)
    assert (code, stdout) == (1, "")
    assert err == (f"error: the trace file {trace} (--trace) and the output model m.json "
                   "(OUT) are the same file\n")
    assert not (tmp_path / "m.json").exists()


def test_train_requires_dimensions(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1\n")
    code, _, err = run(capsys, "train", str(seqs), str(tmp_path / "m.json"))
    assert code == 1
    assert "--states and --symbols" in err


def test_eval_chain_model(tmp_path, capsys):
    model = write_json(tmp_path / "chain.json", CHAIN_MODEL)
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 0 1\n0 0 1 1\n")
    code, stdout, _ = run(capsys, "eval", model, str(seqs))
    assert code == 0
    assert stdout == "0.0\n-inf\n"


def test_eval_matches_library(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    payload = {
        "n_states": 2,
        "n_symbols": 4,
        "pi": [0.3, 0.7],
        "a": [[0.6, 0.4], [0.2, 0.8]],
        "b": [[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]],
    }
    write_json(model_path, payload)
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 3 2\n1 1 1\n")
    code, stdout, _ = run(capsys, "eval", str(model_path), str(seqs))
    assert code == 0
    model = load_model(model_path)
    got = [float(line) for line in stdout.splitlines()]
    assert got == [likelihood(model, [0, 3, 2]), likelihood(model, [1, 1, 1])]


def test_decode(tmp_path, capsys):
    model = write_json(
        tmp_path / "m.json",
        {"n_states": 1, "n_symbols": 2, "pi": [1.0], "a": [[1.0]], "b": [[0.5, 0.5]]},
    )
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 0\n")
    code, stdout, _ = run(capsys, "decode", model, str(seqs))
    assert code == 0
    path, lp = stdout.strip().split("\t")
    assert path == "0 0 0"
    assert float(lp) == pytest.approx(3 * np.log(0.5))


def test_decode_impossible_marker(tmp_path, capsys):
    model = write_json(tmp_path / "chain.json", CHAIN_MODEL)
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("1 1\n0 1\n")
    code, stdout, _ = run(capsys, "decode", model, str(seqs))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "-inf"
    assert lines[1].startswith("0 1\t")


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_bad_symbol_rejected_before_output(tmp_path, capsys, command):
    model = write_json(tmp_path / "chain.json", CHAIN_MODEL)
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1\n# comment\n1 0\n0 2 1\n")
    code, stdout, err = run(capsys, command, model, str(seqs))
    assert code == 1
    assert stdout == ""
    assert err == f"error: {seqs}: line 4: symbol 2 is out of range for a model with 2 symbols\n"


def test_train_bad_symbol_names_file_and_line(tmp_path, capsys):
    seqs = tmp_path / "bad.txt"
    seqs.write_text("0 1 2\n# comment\n\n0 5 1\n")
    out = tmp_path / "model.json"
    code, stdout, err = run(capsys, "train", str(seqs), str(out), "--states", "2", "--symbols", "5")
    assert code == 1
    assert stdout == ""
    assert err == f"error: {seqs}: line 4: symbol 5 is out of range for a model with 5 symbols\n"
    assert not out.exists()


def test_weighted_train_bad_symbol_names_cluster_file(tmp_path, capsys):
    init = write_json(
        tmp_path / "init.json",
        {
            "n_states": 2,
            "n_symbols": 3,
            "pi": [0.5, 0.5],
            "a": [[0.6, 0.4], [0.3, 0.7]],
            "b": [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]],
        },
    )
    table = write_json(
        tmp_path / "table.json",
        {
            "category_id": 0,
            "total_weight": 3,
            "clusters": [
                {"representative": [0, 1], "weight": 2},
                {"representative": [2, 7], "weight": 1},
            ],
        },
    )
    out = tmp_path / "model.json"
    code, stdout, err = run(capsys, "train", table, str(out), "--init-model", init)
    assert code == 1
    assert stdout == ""
    assert err == (
        f"error: cluster file {table}: cluster 1 uses symbol 7, "
        "out of range for a model with 3 symbols\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "cluster", "train"])
def test_non_utf8_input_names_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1\n")
    model = write_json(tmp_path / "chain.json", CHAIN_MODEL)
    out = str(tmp_path / "out.json")
    args = {
        "eval": [model, str(bad)],
        "cluster": [str(bad), out],
        "train": [str(bad), out, "--states", "2", "--symbols", "2"],
    }[command]
    code, stdout, err = run(capsys, command, *args)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text: ")


SPACINGS = (" ", "\t ", "  ")


def spaced(seq, sep):
    """A sequence-file line for seq, its symbols joined by sep."""
    return sep.join(map(str, seq.tolist())) + "\n"


@st.composite
def scoring_files(draw):
    """A model whose last symbol is never emitted, and a mixed-length file
    with a lone length-13 sequence, a length-3 group longer than one block,
    and impossible sequences (those using the last symbol) among the rest.
    Lines repeat, some with other spacing, which the parser keeps as other
    distinct lines with the same symbols. Returns the model, the file's
    sequences and text, which of them are impossible, and how many rows of
    length 3 a block takes."""
    n = draw(st.sampled_from([1, 2, 3, 8]))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = rng.uniform(0.1, 1.0, n)
    a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
    a[np.arange(n), rng.integers(0, n, n)] += 0.5  # every row keeps a transition
    b = rng.uniform(0.1, 1.0, (n, m))
    b[:, -1] = 0.0
    model = HmmModel.from_arrays(
        pi / pi.sum(), a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)
    )
    lengths = draw(st.lists(st.integers(1, 12), max_size=20))
    lengths += [13] + [3] * draw(st.integers(4, 8))
    lengths = draw(st.permutations(lengths))
    impossible = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    impossible[len(lengths) // 2] = True
    pool = []
    for t_len, dead in zip(lengths, impossible):
        seq = rng.integers(0, m - 1, size=t_len)
        if dead:
            seq[rng.integers(0, t_len)] = m - 1
        pool.append(seq)
    # every pool entry once, and repeats of any but the lone length-13 one
    others = [i for i, t_len in enumerate(lengths) if t_len != 13]
    repeats = draw(st.lists(st.sampled_from(others), max_size=2 * len(lengths)))
    picks = draw(st.permutations(list(range(len(pool))) + repeats))
    seps = draw(st.lists(st.sampled_from(SPACINGS), min_size=len(picks), max_size=len(picks)))
    text = "".join(spaced(pool[i], sep) for i, sep in zip(picks, seps))
    seqs = [pool[i] for i in picks]
    return model, seqs, text, [impossible[i] for i in picks], draw(st.sampled_from([2, 3]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scoring_files())
def test_eval_and_decode_match_per_sequence_calls(case):
    model, seqs, text, impossible, block_rows = case
    expected_eval, expected_decode = [], []
    for seq in seqs:
        try:
            ll = likelihood(model, seq)
            path, lp = viterbi(model, seq)
        except ImpossibleSequenceError:
            expected_eval.append("-inf")
            expected_decode.append("-inf")
            continue
        expected_eval.append(repr(ll))
        expected_decode.append(" ".join(map(str, path.tolist())) + "\t" + repr(lp))
    assert [line == "-inf" for line in expected_eval] == impossible

    with tempfile.TemporaryDirectory() as tmp:
        model_path, seqs_path = Path(tmp) / "m.json", Path(tmp) / "seqs.txt"
        save_model(model, model_path)
        seqs_path.write_text(text)
        outputs = []
        # a small budget splits the length-3 group over several blocks
        for command, kernel in (("eval", score_block), ("decode", viterbi_block)):
            budget = block_budget(kernel, model.n_states, 3, block_rows)
            out = io.StringIO()
            with mock.patch.object(inference, "BLOCK_BYTES", budget), contextlib.redirect_stdout(out):
                assert main([command, str(model_path), str(seqs_path)]) == 0
            outputs.append(out.getvalue().splitlines())
    assert outputs == [expected_eval, expected_decode]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 9, 10, 11, 101, 300]),
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=30),
    dead=st.lists(st.booleans(), max_size=30),
    budget=st.sampled_from([1, 2**10, 2**14, BLOCK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_lines_match_join_oracle(n, lengths, dead, budget, seed):
    # names of one, two and three digits share one table, so the shorter ones
    # are NUL-padded; a row that uses the last symbol has probability 0
    rng = np.random.default_rng(seed)
    m = 4
    b = rng.uniform(0.1, 1.0, (n, m))
    b[:, -1] = 0.0
    model = HmmModel.from_arrays(
        np.full(n, 1.0 / n), rng.dirichlet(np.full(n, 0.3), size=n), b / b.sum(axis=1, keepdims=True)
    )
    seqs = [rng.integers(0, m - 1, size=t) for t in lengths]
    for seq, is_dead in zip(seqs, dead):
        if is_dead:
            seq[-1] = m - 1
    with mock.patch.object(inference, "BLOCK_BYTES", budget):
        blocks = length_blocks(Dataset(seqs), model, viterbi_block)
    for block in blocks:
        decoded = viterbi_block(model, block)
        expected = decode_lines_join(model, block, *decoded)
        assert cli._decode_lines(model, block, decoded) == expected


@st.composite
def cluster_files(draw):
    """A distance and the text of a sequence file for it: a few sequences
    over three symbols, so that warps coincide, of one length for the
    Euclidean distance and of lengths 1..6 for DTW, repeated in any order,
    with other spacing, blank lines and comments between them."""
    distance = draw(st.sampled_from(["euclidean", "dtw"]))
    t_len = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [
        rng.integers(0, 3, size=t_len if distance == "euclidean" else rng.integers(1, 7))
        for _ in range(draw(st.integers(1, 8)))
    ]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    lines = [
        spaced(pool[i], draw(st.sampled_from(SPACINGS)))
        if i >= 0 else draw(st.sampled_from(["\n", "# note\n", " \t\n"]))
        for i in picks + draw(st.lists(st.just(-1), max_size=3))
    ]
    return distance, "".join(draw(st.permutations(lines)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cluster_files())
def test_cluster_writes_the_table_of_the_whole_file(case):
    # `cluster` must write the bytes of the table of every sequence the file
    # holds, whatever its spacing, blank lines and comments
    distance, text = case
    with tempfile.TemporaryDirectory() as tmp:
        seqs, got, expected = (Path(tmp) / name for name in ("seqs.txt", "got.json", "exp.json"))
        seqs.write_text(text)
        table = build_clusters(load_sequences(seqs), distance=distance)
        save_cluster_table(table, expected)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["cluster", str(seqs), str(got), "--distance", distance]
            assert main(argv) == 0
        assert got.read_bytes() == expected.read_bytes()
    assert out.getvalue().startswith(
        f"clusters={len(table)} total_weight={table.total_weight} seconds="
    )


@pytest.mark.parametrize("distance", ["euclidean", "dtw"])
def test_cluster_groups_a_large_file_through_the_dense_table(tmp_path, capsys, distance):
    # 2,000 rows of 3 symbols over 0-9 span at most 11**3 keys, well within
    # the dense table's keys per row, so they are grouped with no sort
    rows = np.random.default_rng(38).integers(0, 10, size=(2000, 3)).tolist()
    seqs, got, expected = (tmp_path / name for name in ("seqs.txt", "got.json", "exp.json"))
    seqs.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    clusters = {}  # key: [representative, weight], in order of first appearance
    for row in rows:
        key = tuple(row) if distance == "euclidean" else run_length_collapse(row)
        clusters.setdefault(key, [row, 0])[1] += 1
    reps, weights = zip(*clusters.values())
    save_cluster_table_json(ClusterTable(Dataset(reps), weights), expected)
    with mock.patch.object(clustering, "_dense_groups", wraps=clustering._dense_groups) as dense:
        code, stdout, _ = run(capsys, "cluster", str(seqs), str(got), "--distance", distance)
    assert code == 0 and dense.called
    assert got.read_bytes() == expected.read_bytes()
    assert stdout.startswith(f"clusters={len(clusters)} total_weight=2000 ")


def per_sequence_lines(model, seqs):
    """The eval and decode lines of `likelihood` and `viterbi` per sequence."""
    evals, decodes = [], []
    for seq in seqs:
        path, lp = viterbi(model, seq)
        evals.append(repr(likelihood(model, seq)))
        decodes.append(" ".join(map(str, path.tolist())) + "\t" + repr(lp))
    return evals, decodes


@pytest.mark.parametrize("n", [4, 8, 12])
def test_eval_and_decode_match_per_sequence_calls_in_large_blocks(tmp_path, capsys, n):
    # 60 rows of one length and 45 of mixed lengths, each in one block under
    # the default cap: every row must print the bits of its lone-row call
    rng = np.random.default_rng(80 + n)
    m = 12
    pi = rng.uniform(0.1, 1.0, n)
    a = rng.uniform(0.1, 1.0, (n, n))
    b = rng.uniform(0.1, 1.0, (n, m))
    model = HmmModel.from_arrays(
        pi / pi.sum(), a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)
    )
    for name, lengths in (("equal", [20] * 60), ("mixed", rng.integers(5, 40, size=45))):
        seqs = [rng.integers(0, m, size=t) for t in lengths]
        model_path, seqs_path = tmp_path / "m.json", tmp_path / f"{name}.txt"
        save_model(model, model_path)
        seqs_path.write_text("".join(" ".join(map(str, s.tolist())) + "\n" for s in seqs))
        outputs = []
        for command in ("eval", "decode"):
            code, out, _ = run(capsys, command, str(model_path), str(seqs_path))
            assert code == 0
            outputs.append(out.splitlines())
        assert outputs == list(per_sequence_lines(model, seqs)), name


def test_dist(tmp_path, capsys):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text("1 2 3 4 5 6 7\n1 2 2 2 2 3 4\n")
    fb.write_text("1 1 2 3 3 3 4\n")
    code, stdout, _ = run(capsys, "dist", str(fa), str(fb))
    assert code == 0
    assert stdout == "1 1 6.0\n2 1 0.0\n"
    code, stdout, _ = run(capsys, "dist", str(fa), str(fb), "--distance", "euclidean")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[1] == f"2 1 {math.sqrt(3)!r}"


def test_dist_lines_match_oracles(tmp_path, capsys):
    # ragged files for dtw, against the path-returning oracle; files of one
    # length for euclidean
    rng = np.random.default_rng(16)

    def draw(count, lengths):
        return [rng.integers(0, 6, size=int(rng.choice(lengths))).tolist() for _ in range(count)]

    rows = {"a": draw(7, range(1, 9)), "b": draw(5, range(1, 9)),
            "a_eq": draw(6, [8]), "b_eq": draw(4, [8])}
    assert len({len(r) for r in rows["a"] + rows["b"]}) > 1
    paths = {}
    for name, seqs in rows.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("".join(" ".join(map(str, s)) + "\n" for s in seqs))
    for (a, b), distance, dist in (
        (("a", "b"), "dtw", lambda x, y: dtw_path(x, y)[0]),
        (("a_eq", "b_eq"), "euclidean", euclidean_distance),
    ):
        code, stdout, err = run(capsys, "dist", str(paths[a]), str(paths[b]), "--distance", distance)
        assert (code, err) == (0, "")
        assert stdout.splitlines() == [
            f"{i} {j} {dist(x, y)!r}"
            for i, x in enumerate(rows[a], start=1)
            for j, y in enumerate(rows[b], start=1)
        ]


def test_dist_euclidean_length_mismatch_prints_nothing(tmp_path, capsys):
    # the first pair has one length; the mismatch is found before any line
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text("1 2\n3 4\n")
    fb.write_text("1 2\n1 2 3\n")
    code, stdout, err = run(capsys, "dist", str(fa), str(fb), "--distance", "euclidean")
    assert code == 1
    assert stdout == ""
    assert err == (
        f"error: {fb}: sequence 2 has length 3 but sequence 1 of {fa} has length 2; "
        "euclidean distance requires one length\n"
    )
    fa.write_text("1 2\n3 4 5\n")
    code, stdout, err = run(capsys, "dist", str(fa), str(fb), "--distance", "euclidean")
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {fa}: sequence 2 has length 3 but sequence 1 of {fa} ")


def test_bench_tiny_run_text_and_csv_agree(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, stdout, _ = run(
        capsys, "bench", "--sizes", "4", "--length", "3",
        "--iterations", "2", "--runs", "1", "--csv", str(csv_path),
    )
    assert code == 0
    text_lines = stdout.splitlines()
    assert text_lines[0].split() == [
        "sequences", "clusters_euc", "clusters_dtw", "t_cluster_euc",
        "t_cluster_dtw", "t_em", "t_weighted_em", "speedup", "speedup_total",
    ]
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert len(rows) == 1
    assert len(text_lines) == 3 and text_lines[2].startswith("(means over")
    row = rows[0]
    assert row["n_sequences"] == "4"
    assert row["runs"] == "1"
    assert row["distance"] == "euclidean"
    assert row["threads"] == "1"
    assert int(row["n_clusters_dtw"]) <= int(row["n_clusters_euclidean"]) <= 4
    text_cells = text_lines[1].split()
    csv_cells = [
        row[f]
        for f in (
            "n_sequences", "n_clusters_euclidean", "n_clusters_dtw",
            "t_cluster_euclidean_s", "t_cluster_dtw_s", "t_em_s",
            "t_weighted_em_s", "speedup", "speedup_total",
        )
    ]
    assert text_cells == csv_cells


def test_bench_size_one(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--sizes", "1", "--length", "4",
        "--iterations", "2", "--runs", "1", "--csv", str(csv_path),
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert row["n_sequences"] == "1"
    assert row["n_clusters_euclidean"] == "1"
    assert row["n_clusters_dtw"] == "1"
    assert float(row["speedup"]) > 0
    assert float(row["speedup_total"]) > 0


def test_bench_distinct_corpus_makes_clustering_a_net_loss(tmp_path, capsys):
    # no self-transitions and one symbol per state: every sampled sequence
    # is its own collapsed form, so nothing merges and clustering is pure
    # overhead
    n = 10
    a = np.full((n, n), 1 / 9)
    np.fill_diagonal(a, 0.0)
    model = write_json(
        tmp_path / "m.json",
        {
            "n_states": n,
            "n_symbols": n,
            "pi": [1 / n] * n,
            "a": a.tolist(),
            "b": np.eye(n).tolist(),
        },
    )
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--model", model, "--sizes", "80", "--length", "6",
        "--iterations", "2", "--runs", "3", "--seed", "0",
        "--distance", "dtw", "--csv", str(csv_path),
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert row["n_clusters_dtw"] == "80"
    assert row["n_clusters_euclidean"] == "80"
    # every weight is 1, so both trainers do the same work, and the
    # clustering time only adds to the weighted side
    assert float(row["speedup_total"]) < float(row["speedup"])


def test_bench_rejects_empty_size_list(capsys):
    code, stdout, err = run(capsys, "bench", "--sizes", ",")
    assert code == 1
    assert stdout == ""
    assert err == "error: no corpus sizes\n"


@pytest.mark.parametrize("sizes, token", [("5,x", "x"), ("5, 2.5", "2.5"), ("1e3", "1e3")])
def test_bench_names_a_size_that_is_not_an_integer(capsys, sizes, token):
    code, stdout, err = run(capsys, "bench", "--sizes", sizes, "--runs", "1")
    assert (code, stdout) == (1, "")
    assert err == f"error: --sizes: {token!r} is not an integer\n"


@pytest.mark.parametrize("command", ["gen", "train", "bench"])
def test_negative_seed_is_named(tmp_path, capsys, command):
    model = write_json(tmp_path / "m.json", CHAIN_MODEL)
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1\n")
    argv = {
        "gen": ["gen", model, str(tmp_path / "out.txt"), "--count", "2", "--length", "2"],
        "train": ["train", str(seqs), str(tmp_path / "out.json"), "--states", "2",
                  "--symbols", "2"],
        "bench": ["bench", "--model", model, "--sizes", "2", "--runs", "1"],
    }[command]
    code, stdout, err = run(capsys, *argv, "--seed", "-1")
    assert (code, stdout, err) == (1, "", "error: seed must be >= 0, got -1\n")
    assert not list(tmp_path.glob("out*"))


def test_train_rejects_nan_tolerance_and_takes_inf(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0 1 1\n1 0 0\n")
    common = ["--states", "2", "--symbols", "2", "--iterations", "5"]
    code, stdout, err = run(capsys, "train", str(seqs), str(tmp_path / "nan.json"), *common,
                            "--ll-tolerance", "nan")
    assert (code, stdout, err) == (1, "", "error: ll_tolerance must be >= 0, got nan\n")
    code, stdout, _ = run(capsys, "train", str(seqs), str(tmp_path / "inf.json"), *common,
                          "--ll-tolerance", "inf")
    assert code == 0 and stdout.startswith("mode=classical iterations=2 ")


COMMAND_NAMES = ["gen", "cluster", "train", "eval", "decode", "dist", "bench"]

# lines that parse: a plain one per command (in COMMAND_NAMES order), then
# abbreviated, repeated and negative options and `--`
VALID_LINES = [
    ["gen", "m", "o", "--count", "2", "--length", "3"],
    ["cluster", "a", "b"],
    ["train", "a", "b", "--states", "2", "--symbols", "3"],
    ["eval", "m", "s"],
    ["decode", "m", "s", "--renormalize"],
    ["dist", "a", "b", "--distance", "euclidean"],
    ["bench"],
    ["train", "a", "b", "--iter", "3", "--st", "2", "--sy", "3"],
    ["cluster", "a", "b", "--dist", "euclidean", "--min", "2"],
    ["bench", "--si", "5", "--r", "2"],
    ["eval", "m", "s", "--re"],
    ["train", "a", "b", "--seed", "1", "--seed", "2"],
    ["cluster", "a", "b", "--distance", "dtw", "--distance", "euclidean"],
    ["gen", "m", "o", "--count", "-3", "--length", "-1", "--seed", "-5"],
    ["train", "a", "b", "--ll-tolerance", "-0.001"],
    ["bench", "--seed", "-2"],
    ["cluster", "a", "b", "--min-weight", "-1"],
    ["eval", "--", "m", "s"],
    ["eval", "m", "--", "s"],
    ["dist", "--", "-a", "-b"],
]

# help and usage errors, each printed by the top level or by one command,
# and the valid lines
PARSER_CASES = [
    [],
    ["-h"],
    *[[name, "-h"] for name in COMMAND_NAMES],
    ["bogus"],
    ["-h", "eval"],
    ["eval", "a", "b", "extra"],  # the top level rejects it, under its own usage line
    ["cluster", "a", "b", "--distance", "cos"],
    ["train", "a", "b", "--iterations", "x"],
    ["eval", "--bogus", "a", "b"],
    # missing arguments and values
    ["eval"],
    ["cluster", "a"],
    ["dist", "a"],
    ["gen", "m", "o"],
    ["gen", "m", "o", "--count", "3"],
    ["train", "a", "b", "--iterations"],
    ["train", "a", "b", "--iterations", "-x"],
    ["train", "a", "b", "--ll-tolerance", "-1e-3"],  # not a number to argparse
    # extra arguments
    ["dist", "a", "b", "c", "d"],
    ["bench", "x"],
    ["decode", "m", "s", "--bogus", "1"],
    ["train", "a", "b", "--states", "2", "3"],
    ["eval", "m", "s", "--", "--renormalize"],
    # an ambiguous abbreviation, and commands that are not spelled out
    ["train", "a", "b", "--s", "2"],
    ["ev", "m", "s"],
    ["EVAL", "m", "s"],
    # options first, `--`, and -h after other arguments
    ["--bogus", "eval", "m", "s"],
    ["--", "eval", "m", "s"],
    ["eval", "m", "s", "-h"],
    ["cluster", "a", "-h", "b"],
    ["gen", "-h", "bogus"],
    ["eval", "-h", "--bogus"],
    ["dist", "a", "b", "--distance", "cos", "-h"],
    *VALID_LINES,
]


@pytest.fixture
def commands_return_args(monkeypatch):
    """Each command's handler returns its namespace instead of running, so
    `main` returns what it parsed."""
    for name, (help_text, add_args, _) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, (help_text, add_args, lambda args: args))


def exit_output(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def parse_outcome(capsys, parse, argv):
    """What parse(argv) gives: its namespace's values but `command`, which
    only the full parser sets, or (exit code, stdout, stderr) if it exits."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return {key: value for key, value in vars(args).items() if key != "command"}


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, commands_return_args, argv):
    for columns in ("40", "80", "200"):  # fix the help wrapping at three widths
        monkeypatch.setenv("COLUMNS", columns)
        expected = parse_outcome(capsys, full_parse, argv)
        assert isinstance(expected, dict) == (argv in VALID_LINES)
        assert parse_outcome(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", VALID_LINES[:len(COMMAND_NAMES)], ids=lambda argv: argv[0])
def test_a_valid_line_builds_one_argument_parser(monkeypatch, commands_return_args, argv):
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_PARSERS", {})  # no parser kept from an earlier line
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    first = main(argv)
    assert isinstance(first, argparse.Namespace)
    assert progs == [f"hmmaccel {argv[0]}"]
    # a later line of the command parses with the parser the first one built
    assert main(argv) == first
    assert progs == [f"hmmaccel {argv[0]}"]


def test_full_parser_errors_name_the_command_argument(monkeypatch, capsys):
    # a metavar here would put "{gen,...}" where "command" is
    monkeypatch.setenv("COLUMNS", "80")
    _, _, err = exit_output(capsys, main, [])
    assert err.endswith("error: the following arguments are required: command\n")
    _, _, err = exit_output(capsys, main, ["bogus"])
    assert "error: argument command: invalid choice: 'bogus'" in err


def test_console_script_path_builds_one_command(monkeypatch, capsys, commands_return_args):
    built = []
    build_parser = cli.build_parser

    def spy(only=None):
        built.append(only)
        return build_parser(only)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setattr(sys, "argv", ["hmmaccel", "eval", "m", "s"])
    assert isinstance(main(), argparse.Namespace)
    assert built == ["eval"]
    assert isinstance(main(), argparse.Namespace)
    assert built == ["eval"]  # eval's parser is kept
    # arguments left over: the top level reports them, as the full parser
    # does, and is built again for each such line
    built.clear()
    argv = ["eval", "a", "b", "extra"]
    monkeypatch.setattr(sys, "argv", ["hmmaccel", *argv])
    for _ in range(2):
        got = exit_output(capsys, lambda _: main(), None)
        assert got == exit_output(capsys, lambda a: build_parser().parse_args(a), argv)
    assert built == [None, None]


def test_every_parsed_option_is_read(tmp_path, capsys):
    # an option that no handler reads changes nothing: run each command's
    # handler on valid lines through a namespace that records the names read
    model, seqs, table, out, trace, csv_path = (
        str(tmp_path / name)
        for name in ("m.json", "s.txt", "t.json", "o.json", "o.csv", "b.csv")
    )
    write_json(tmp_path / "m.json", CHAIN_MODEL)
    lines = [
        ["gen", model, seqs, "--count", "6", "--length", "4", "--seed", "1", "--renormalize"],
        ["cluster", seqs, table, "--distance", "euclidean", "--min-weight", "1"],
        ["train", table, out, "--init-model", model, "--iterations", "2", "--ll-tolerance", "0",
         "--trace", trace, "--renormalize"],
        ["train", seqs, out, "--states", "2", "--symbols", "2", "--seed", "3"],
        ["eval", model, seqs, "--renormalize"],
        ["decode", model, seqs],
        ["dist", seqs, seqs, "--distance", "euclidean"],
        ["bench", "--model", model, "--sizes", "4", "--length", "3", "--iterations", "2",
         "--runs", "1", "--seed", "1", "--distance", "dtw", "--csv", csv_path],
    ]
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    unread = {}
    for argv in lines:
        args = cli.build_parser(argv[0]).parse_args(argv[1:])
        reads.clear()
        assert args.func(Recorder(**vars(args))) == 0, argv
        dests = set(vars(args)) - {"func"}
        unread[argv[0]] = unread.get(argv[0], dests) & (dests - reads)
    capsys.readouterr()
    assert unread == {name: set() for name in cli.COMMANDS}


def test_exports_resolve_once():
    names = hmmaccel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hmmaccel, name), name


def test_missing_file_is_an_error(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "no.json"), str(tmp_path / "no.txt"))
    assert code == 1
    assert err.startswith("error:")


def test_console_script_installed():
    # checks the console-script contract from the checkout, so it runs
    # without an install: the declared target resolves to the CLI and a
    # wrapper of the form pip generates prints the hmmaccel usage
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "hmmaccel" in scripts
    module, attr = scripts["hmmaccel"].split(":")
    assert getattr(importlib.import_module(module), attr) is main

    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(hmmaccel.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hmmaccel")


@pytest.mark.skipif(
    shutil.which("hmmaccel") is None,
    reason="hmmaccel console script not on PATH (pip install -e .)",
)
def test_console_script_on_path():
    script = shutil.which("hmmaccel")
    proc = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: hmmaccel")


# Four classical `train`s of a 10k x 5 corpus from the bundled model in one
# process, as a benchmark runs them; prints each one's minor page faults.
REPEATED_TRAIN = """
import io, json, resource, sys
from contextlib import redirect_stdout
from pathlib import Path
from hmmaccel import cli, sample_sequences, save_sequences

d = Path(sys.argv[1])
model = cli._bundled_bench_model()
save_sequences(sample_sequences(model, 10000, 5, 7), d / "c.txt")
argv = ["train", str(d / "c.txt"), str(d / "m.json"), "--iterations", "2",
        "--states", str(model.n_states), "--symbols", str(model.n_symbols)]
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not cli._on_glibc(), reason="the allocator setting applies to glibc alone")
def test_repeated_train_does_not_fault_its_memory_in_again(tmp_path):
    # glibc's defaults hand a command's freed memory back to the kernel, and
    # the next `train` faults about 600 pages in again. Whether they do
    # depends on the process's allocation history, which the length of the
    # working directory's name shifts, so each length runs in its own process.
    package_root = str(Path(hmmaccel.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    for var in [v for v in env if v.startswith("MALLOC_")]:  # glibc's own tunables
        del env[var]
    for name_length in (1, 8, 20, 36):
        d = tmp_path / ("d" * name_length)
        d.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", REPEATED_TRAIN, str(d)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        assert max(faults[2:]) < 64, (name_length, faults)
