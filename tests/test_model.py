"""Model container, validation, sampling, and file formats."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dataset_fault, save_sequences_join

from hmmaccel import (
    HmmModel,
    load_distinct_sequences,
    load_model,
    load_sequences,
    sample_sequences,
    save_model,
    save_sequences,
    validate_model,
)
from hmmaccel import model as model_module
from hmmaccel.model import Dataset, require_valid


def make(pi, a, b):
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return HmmModel(len(pi), b.shape[1], pi, a, b)


def stationary(a, iters=200):
    # power iteration on the transition matrix
    v = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(iters):
        v = v @ a
        v /= v.sum()
    return v


def test_validate_degenerate_ok():
    m = make([1.0], [[1.0]], [[1.0]])
    assert validate_model(m) == []


def test_validate_pi_sum():
    m = make([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]])
    violations = validate_model(m)
    assert len(violations) == 1
    assert "pi sums to" in violations[0]


def test_validate_bad_row_named():
    m = make(
        [1 / 3, 1 / 3, 1 / 3],
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.1], [0.2, 0.3, 0.5]],
        [[1.0], [1.0], [1.0]],
    )
    violations = validate_model(m)
    assert len(violations) == 1
    assert "a row 1" in violations[0]


def test_validate_reports_all_violations():
    m = make([0.9, 0.2], [[1.0, 0.1], [0.5, 0.5]], [[0.5, 0.5], [2.0, -1.0]])
    violations = validate_model(m)
    assert any("pi" in v for v in violations)
    assert any("a row 0" in v for v in violations)
    assert any("outside [0, 1]" in v for v in violations)


def test_validate_shape_mismatch():
    m = HmmModel(2, 3, np.array([1.0]), np.eye(2), np.full((2, 3), 1 / 3))
    violations = validate_model(m)
    assert any("pi has shape" in v for v in violations)


def test_require_valid_raises():
    m = make([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="invalid model"):
        require_valid(m)


def test_model_arrays_read_only():
    m = make([1.0], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        m.pi[0] = 0.5


def test_sample_deterministic_emission():
    m = make([1.0], [[1.0]], [[0.0, 1.0, 0.0]])
    data = sample_sequences(m, count=4, length=6, seed=0)
    for seq in data.sequences:
        assert seq.tolist() == [1] * 6


def test_sample_deterministic_chain():
    m = make([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    data = sample_sequences(m, count=3, length=7, seed=5)
    for seq in data.sequences:
        assert seq.tolist() == [0, 1, 0, 1, 0, 1, 0]


def test_sample_reproducible():
    m = make(
        [0.2, 0.8],
        [[0.7, 0.3], [0.4, 0.6]],
        [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]],
    )
    d1 = sample_sequences(m, count=50, length=8, seed=42)
    d2 = sample_sequences(m, count=50, length=8, seed=42)
    d3 = sample_sequences(m, count=50, length=8, seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(d1.sequences, d2.sequences))
    assert any(not np.array_equal(x, y) for x, y in zip(d1.sequences, d3.sequences))


def test_sample_shapes_and_range():
    m = make(
        [0.2, 0.8],
        [[0.7, 0.3], [0.4, 0.6]],
        [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]],
    )
    data = sample_sequences(m, count=200, length=5, seed=1)
    assert len(data.sequences) == 200
    for seq in data.sequences:
        assert seq.shape == (5,)
        assert seq.min() >= 0 and seq.max() < 3


def test_sample_first_symbol_distribution():
    m = make(
        [0.3, 0.7],
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.6, 0.4, 0.0], [0.1, 0.2, 0.7]],
    )
    data = sample_sequences(m, count=10000, length=2, seed=7)
    first = np.array([seq[0] for seq in data.sequences])
    expected = m.pi @ m.b
    for k in range(3):
        assert abs((first == k).mean() - expected[k]) < 0.02


def test_sample_stationary_emission_mixture():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.0, size=(3, 3))
    a /= a.sum(axis=1, keepdims=True)
    b = rng.uniform(0.1, 1.0, size=(3, 10))
    b /= b.sum(axis=1, keepdims=True)
    pi = stationary(a)
    m = make(pi, a, b)
    data = sample_sequences(m, count=10000, length=5, seed=9)
    flat = np.concatenate(data.sequences)
    expected = pi @ b
    for k in range(10):
        assert abs((flat == k).mean() - expected[k]) < 0.02


def test_sample_argument_validation():
    m = make([1.0], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="count"):
        sample_sequences(m, count=0, length=3, seed=0)
    with pytest.raises(ValueError, match="length"):
        sample_sequences(m, count=3, length=0, seed=0)
    bad = make([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="invalid model"):
        sample_sequences(bad, count=1, length=1, seed=0)


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.uniform(0.1, 1.0, size=(3, 3))
    a /= a.sum(axis=1, keepdims=True)
    b = rng.uniform(0.1, 1.0, size=(3, 4))
    b /= b.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.1, 1.0, size=3)
    pi /= pi.sum()
    m = make(pi, a, b)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.n_states == 3 and loaded.n_symbols == 4
    assert np.array_equal(loaded.pi, m.pi)
    assert np.array_equal(loaded.a, m.a)
    assert np.array_equal(loaded.b, m.b)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_model_json_round_trip_property(tmp_path_factory, n, m, seed):
    rng = np.random.default_rng(seed)

    def rows(k, width):  # stochastic rows with zeros among their entries
        x = rng.uniform(0.0, 1.0, (k, width)) * (rng.random((k, width)) < 0.7)
        x[:, 0] += 1e-3
        return x / x.sum(axis=1, keepdims=True)

    model = make(rows(1, n)[0], rows(n, n), rows(n, m))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text()) == {
        "n_states": n, "n_symbols": m, "pi": model.pi.tolist(), "a": model.a.tolist(),
        "b": model.b.tolist(),
    }
    loaded = load_model(path)
    for name in ("pi", "a", "b"):
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()


def test_load_model_rejects_bad_rows(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"n_states": 1, "n_symbols": 2, "pi": [1.0],'
        ' "a": [[1.0]], "b": [[0.6, 0.5]]}'
    )
    with pytest.raises(ValueError, match="invalid"):
        load_model(path)
    m = load_model(path, renormalize=True)
    assert validate_model(m) == []
    assert m.b[0, 0] == pytest.approx(0.6 / 1.1)


def test_load_model_missing_key(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"n_states": 1, "n_symbols": 2, "pi": [1.0], "a": [[1.0]]}')
    with pytest.raises(ValueError, match="missing key"):
        load_model(path)


def test_load_model_rejects_nan(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"n_states": 2, "n_symbols": 1, "pi": [NaN, 0.5],'
        ' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0], [1.0]]}'
    )
    for renormalize in (False, True):
        with pytest.raises(ValueError, match=re.escape(f"model file {path} is invalid: pi has non-finite entries")):
            load_model(path, renormalize=renormalize)


@pytest.mark.parametrize(
    "content, message",
    [
        (
            b'{"n_states": 2.7, "n_symbols": 1, "pi": [0.5, 0.5],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0], [1.0]]}',
            "n_states must be an integer, got 2.7",
        ),
        (
            b'{"n_states": 1, "n_symbols": true, "pi": [1.0], "a": [[1.0]], "b": [[1.0]]}',
            "n_symbols must be an integer, got true",
        ),
        (b'{"n_states": 1,', "is not valid JSON"),
        (b"\xff{}", "is not valid JSON"),
        (b"[1, 2]", "must hold a JSON object"),
        (b'{"n_states": 1, "n_symbols": 1, "pi": "x", "a": [[1.0]], "b": [[1.0]]}', "x"),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [true, false],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0], [1.0]]}',
            "pi must hold JSON numbers, got true",
        ),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [1.0, 0.0],'
            b' "a": [["1.0", "0"], [0.0, 1.0]], "b": [[1.0], [1.0]]}',
            'a row 0 must hold JSON numbers, got "1.0"',
        ),
        (
            b'{"n_states": 2, "n_symbols": 2, "pi": [1.0, 0.0],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.5, "0.5"], [1, 0]]}',
            'b row 0 must hold JSON numbers, got "0.5"',
        ),
        (
            b'{"n_states": 1, "n_symbols": 1, "pi": [null], "a": [[1.0]], "b": [[1.0]]}',
            "pi must hold JSON numbers, got null",
        ),
        (
            b'{"n_states": 1, "n_symbols": 1, "pi": [1' + b"0" * 400 + b'], "a": [[1.0]],'
            b' "b": [[1.0]]}',
            "int too large to convert to float",
        ),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [1.0, 0.0],'
            b' "a": [[1.0, 0.0], [1.0]], "b": [[1.0], [1.0]]}',
            "a row 1 has 1 entries, expected 2",
        ),
        (
            b'{"n_states": 2, "n_symbols": 2, "pi": [1.0, 0.0],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.5, 0.25, 0.25], [1.0, 0.0]]}',
            "b row 0 has 3 entries, expected 2",
        ),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [1.0, 0.0],'
            b' "a": [[1.0, 0.0], 1.0], "b": [[1.0], [1.0]]}',
            "a row 1 is not a list, expected 2",
        ),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [1.0, [0.0]],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0], [1.0]]}',
            "pi must hold JSON numbers, got [0.0]",
        ),
        (
            b'{"n_states": 2, "n_symbols": 1, "pi": [1.0, 0.0],'
            b' "a": [[[1.0]], [[1.0, 2.0]]], "b": [[1.0], [1.0]]}',
            "a row 0 must hold JSON numbers, got [1.0]",
        ),
        (
            b'{"n_states": 2, "n_symbols": 2, "pi": [1.0, 0.0],'
            b' "a": [[1.0, 0.0], [0.0, 1.0]], "b": [[0.5, 0.5], [1.0, [0.0, 1.0]]]}',
            "b row 1 must hold JSON numbers, got [0.0, 1.0]",
        ),
    ],
    ids=["float_n_states", "bool_n_symbols", "bad_json", "not_utf8", "top_level_list", "string_pi",
         "bool_in_pi", "string_in_a", "number_and_string_in_b", "null_in_pi", "huge_int_in_pi",
         "ragged_a", "ragged_b", "number_row_in_a", "ragged_pi", "ragged_third_level_a",
         "list_entry_in_b"],
)
def test_load_model_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    pattern = re.escape(f"model file {path}") + ".*" + re.escape(message)
    with pytest.raises(ValueError, match=pattern):
        load_model(path)


def test_sequence_file_round_trip(tmp_path):
    m = make(
        [0.2, 0.8],
        [[0.7, 0.3], [0.4, 0.6]],
        [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]],
    )
    data = sample_sequences(m, count=20, length=5, seed=2)
    path = tmp_path / "seqs.txt"
    save_sequences(data, path)
    loaded = load_sequences(path)
    assert len(loaded.sequences) == 20
    assert all(np.array_equal(x, y) for x, y in zip(data.sequences, loaded.sequences))


def test_sequence_file_comments_and_blanks(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("# header\n1 2 3\n\n   \n4 5\n# trailing\n")
    data = load_sequences(path)
    assert [s.tolist() for s in data.sequences] == [[1, 2, 3], [4, 5]]


def test_distinct_lines_keep_first_appearance(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("3 4\n1 2\n# c\n3 4\n 1 2\n1 2\n")
    distinct, inverse = load_distinct_sequences(path)
    # " 1 2" is another line than "1 2", so it gets a row of its own
    assert [s.tolist() for s in distinct.sequences] == [[3, 4], [1, 2], [1, 2]]
    assert inverse.tolist() == [0, 1, 0, 2, 1]


def test_sequence_file_errors_name_lines(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("1 2 3\n1 x 3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sequences(path)
    path.write_text("1 2\n3 4\n5 -1\n")
    with pytest.raises(ValueError, match="line 3: negative symbol"):
        load_sequences(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no sequences"):
        load_sequences(path)
    path.write_bytes(b"\xff\xfe1 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
        load_sequences(path)
    path.write_text("1\n-99999999999999999999 3\n")
    with pytest.raises(ValueError, match="line 2: negative symbol"):
        load_sequences(path)
    path.write_text("1\n2 99999999999999999999\n")
    with pytest.raises(ValueError, match="line 2: symbol 99999999999999999999 does not fit"):
        load_sequences(path)
    path.write_text("1 2\n# comment\n0 5 1\n")
    with pytest.raises(ValueError, match="line 3: symbol 5 is out of range for a model with 5"):
        load_sequences(path, n_symbols=5)
    assert len(load_sequences(path, n_symbols=6)) == 2


def parse_oracle(path, n_symbols=None):
    """Reference: the per-line parse that `load_sequences` replaced, one
    int() per token and one check per line, returning lists of ints."""
    sequences = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                values = [int(tok) for tok in stripped.split()]
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: symbols must be base-10 integers"
                ) from None
            if min(values) < 0:
                raise ValueError(f"{path}: line {lineno}: negative symbol")
            if n_symbols is not None and max(values) >= n_symbols:
                raise ValueError(
                    f"{path}: line {lineno}: symbol {max(values)} is out of range "
                    f"for a model with {n_symbols} symbols"
                )
            sequences.append(values)
    if not sequences:
        raise ValueError(f"{path}: no sequences found")
    return sequences


def parse_outcome(parse, path, n_symbols=None):
    """Rows as lists of ints, or the ValueError message."""
    try:
        result = parse(path, n_symbols=n_symbols)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, list):
        return result
    return [s.tolist() for s in result.sequences]


def assert_parses_like_oracle(path, n_symbols=None):
    outcome = parse_outcome(load_sequences, path, n_symbols)
    assert outcome == parse_outcome(parse_oracle, path, n_symbols)
    assert_distinct_lines_match(path, n_symbols, outcome)
    return outcome


def assert_distinct_lines_match(path, n_symbols, outcome):
    """`load_distinct_sequences` fails as `load_sequences` does, or gives one
    row per distinct sequence line, in order of first appearance, that
    gathers back into `outcome`."""
    try:
        distinct, inverse = load_distinct_sequences(path, n_symbols=n_symbols)
    except ValueError as exc:
        assert str(exc) == outcome
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.strip().startswith("#")]
    first_seen = list(dict.fromkeys(lines))
    assert inverse.dtype == np.int64
    assert inverse.tolist() == [first_seen.index(line) for line in lines]
    assert [distinct.sequences[i].tolist() for i in inverse] == outcome


@pytest.mark.parametrize(
    "content, expected",
    [
        ("+3 -0 1_0 ٣\n", [[3, 0, 10, 3]]),
        ("1\t2  3\r\n4\f5\v6\x857\r\n\t 8 \n", [[1, 2, 3], [4, 5, 6, 7], [8]]),
        ("   # indented comment\n\t#tabbed\n1 2\n", [[1, 2]]),
        ("1 2\n1 2\n 1 2 \n1\t2\n", [[1, 2]] * 4),
    ],
    ids=["int-forms", "whitespace", "indented-comment", "repeats"],
)
def test_sequence_file_token_rules(tmp_path, content, expected):
    path = tmp_path / "seqs.txt"
    path.write_bytes(content.encode("utf-8"))
    assert assert_parses_like_oracle(path) == expected


@pytest.mark.parametrize(
    "content, n_symbols, message",
    [
        # \f, \v and \x85 inside a line do not end it, so line numbers hold
        ("1\f2\n3\v4\n5\x856\nx 1\n", None, "line 4: symbols must be base-10 integers"),
        # a bad line that repeats is named at its first occurrence
        ("1 2\n1 x\n3\n1 x\n", None, "line 2: symbols must be base-10 integers"),
        ("0 9\n# c\n0 9\n", 5, "line 1: symbol 9 is out of range for a model with 5"),
        # the first bad line wins, whatever its kind of fault
        ("1\n2\n3 -1\n4\n5 y\n", None, "line 3: negative symbol"),
        ("1\n2 z\n3 -1\n", None, "line 2: symbols must be base-10 integers"),
        ("1\n7\n3 -1\n", 5, "line 2: symbol 7 is out of range"),
        # inside a line, a non-integer outranks a negative, which outranks range
        ("1 9 -1 q\n", 5, "line 1: symbols must be base-10 integers"),
        ("1 9 -1\n", 5, "line 1: negative symbol"),
        ("1.0\n", None, "line 1: symbols must be base-10 integers"),
        ("0x1\n", None, "line 1: symbols must be base-10 integers"),
    ],
)
def test_sequence_file_first_fault_named(tmp_path, content, n_symbols, message):
    path = tmp_path / "seqs.txt"
    path.write_bytes(content.encode("utf-8"))
    outcome = assert_parses_like_oracle(path, n_symbols)
    assert isinstance(outcome, str) and f"{path}: {message}" in outcome


SPACES = [" ", "  ", "\t", "\f", "\v", "\x85", " \t "]


@st.composite
def sequence_files(draw):
    """A sequence file drawn from a small pool of lines, so lines repeat:
    ragged rows of integer tokens in several spellings, joined and padded
    by assorted whitespace, among comments and blank lines; now and then a
    bad token. Returns the file's text and an n_symbols (or None)."""
    spelled = st.integers(0, 12).flatmap(
        lambda v: st.sampled_from([str(v), f"+{v}", f"0{v}", "-0" if v == 0 else str(v)])
    )
    token = st.one_of(spelled, spelled, spelled, st.sampled_from(["-2", "x", "1.5", "٣"]))
    space = st.sampled_from(SPACES)

    @st.composite
    def row(draw):
        toks = draw(st.lists(token, min_size=1, max_size=6))
        parts = [draw(space) + t for t in toks]
        return draw(st.sampled_from(["", " ", "\t"])) + "".join(parts)[1:] + draw(
            st.sampled_from(["", " ", "\f"])
        )

    other = st.sampled_from(["", "   ", "# note", "  # indented 1 x", "\t#"])
    pool = draw(st.lists(st.one_of(row(), row(), other), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    n_symbols = draw(st.one_of(st.none(), st.integers(1, 14)))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), n_symbols


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sequence_files())
def test_load_sequences_matches_per_line_oracle(tmp_path_factory, case):
    text, n_symbols = case
    path = tmp_path_factory.mktemp("parse") / "seqs.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_parses_like_oracle(path, n_symbols)


@st.composite
def plain_files(draw):
    """A sequence file of the plain kind that `save_sequences` writes and
    `_parse_plain` reads: tokens of 1-19 ASCII digits, with leading zeros
    and values up to 2**63 - 1, separated by ASCII whitespace, among blank
    lines, comments and repeated lines. Returns the file's text and an
    n_symbols (or None)."""
    value = st.one_of(st.integers(0, 30), st.integers(0, 2**63 - 1))
    token = st.builds(lambda v, width: str(v).zfill(width), value, st.integers(1, 19))
    space = st.sampled_from([" ", "  ", "\t", "\v", "\f", " \t "])

    @st.composite
    def row(draw):
        parts = [draw(space) + t for t in draw(st.lists(token, min_size=1, max_size=6))]
        return draw(st.sampled_from(["", " ", "\t"])) + "".join(parts)[1:] + draw(
            st.sampled_from(["", " ", "\f"])
        )

    other = st.sampled_from(["", "   ", "# note 1 2", "\t# 99999999999999999999"])
    pool = draw(st.lists(st.one_of(row(), row(), other), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    n_symbols = draw(st.one_of(st.none(), st.integers(1, 40)))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), n_symbols


def distinct_outcome(path, n_symbols):
    """values, offsets and inverse of `load_distinct_sequences` as lists,
    or the ValueError message."""
    try:
        distinct, inverse = load_distinct_sequences(path, n_symbols=n_symbols)
    except ValueError as exc:
        return str(exc)
    return distinct.values.tolist(), distinct.offsets.tolist(), inverse.tolist()


def whole_outcome(path, n_symbols):
    """values and offsets of `load_sequences` as lists, or the ValueError
    message, and whether it took the line path of
    `load_distinct_sequences`."""
    with mock.patch.object(model_module, "load_distinct_sequences",
                           wraps=load_distinct_sequences) as lines:
        try:
            data = load_sequences(path, n_symbols=n_symbols)
        except ValueError as exc:
            return str(exc), lines.called
    return (data.values.tolist(), data.offsets.tolist()), lines.called


@settings(derandomize=True, max_examples=120, deadline=None)
@given(plain_files())
@example(("123456789012345678 0\n", None))  # 18 digits: the plain parse
@example(("9223372036854775807\n", None))  # 19 digits: int() per token
@example(("1 9223372036854775808\n", None))  # the 64-bit fault
@example(("1\x1c2\n", None))  # a separator str.split accepts and the guard does not
@example(("\v\n7 00\t12\f\n\n 3", None))  # the whole file: blank lines, no last newline
@example(("5 123456789012345678\n", None))  # a short token's high places reach before the file
@example(("1 2\n3 7\n", 5))  # out of range: the line path names the line
def test_plain_files_parse_alike_on_both_paths(tmp_path_factory, case):
    text, n_symbols = case
    path = tmp_path_factory.mktemp("plain") / "seqs.txt"
    path.write_bytes(text.encode("utf-8"))
    if "9223372036854775808" in text:  # the oracle reads any int, so check the fault here
        outcome = parse_outcome(load_sequences, path, n_symbols)
        assert outcome == f"{path}: line 1: symbol 9223372036854775808 does not fit in 64 bits"
    else:
        outcome = assert_parses_like_oracle(path, n_symbols)

    with mock.patch.object(model_module, "_parse_lines", wraps=model_module._parse_lines) as slow:
        fast = distinct_outcome(path, n_symbols)
    tokens = [t for line in text.split("\n") if not line.lstrip().startswith("#")
              for t in line.split()]
    plain = (bool(tokens) and "\x1c" not in text and max(map(len, tokens)) <= 18
             and isinstance(outcome, list))
    if tokens:  # else no sequences, and neither path runs
        assert slow.called != plain
    with mock.patch.object(model_module, "_parse_plain", return_value=None):
        assert distinct_outcome(path, n_symbols) == fast

    # load_sequences parses a plain file with no \r and no comment whole;
    # any other goes through the distinct lines, gathered back into file
    # order, with the same values and offsets and the same faults
    whole, took_lines = whole_outcome(path, n_symbols)
    assert took_lines == (not plain or "\r" in text or "#" in text)
    if isinstance(whole, str):
        assert whole == outcome
    else:
        assert [whole[0][lo:hi] for lo, hi in zip(whole[1], whole[1][1:])] == outcome
    with mock.patch.object(model_module, "_parse_plain", return_value=None):
        assert whole_outcome(path, n_symbols) == (whole, True)


@pytest.mark.parametrize(
    "content, n_symbols, expected",
    [
        (b"1 2\r\n3\r\n", None, [[1, 2], [3]]),
        (b"1\r2 x\n", None, "line 2: symbols must be base-10 integers"),  # a lone \r ends a line
        (b"# c\n1 2\n", None, [[1, 2]]),
        (b"1 2\n# c\n3 -4\n", None, "line 3: negative symbol"),
        (b"1 +3\n", None, [[1, 3]]),
        (b"1\n09223372036854775807\n", None, [[1], [2**63 - 1]]),
        (b"1\n2 19223372036854775807\n", None,
         "line 2: symbol 19223372036854775807 does not fit in 64 bits"),
        ("1 \u0663\n".encode(), None, [[1, 3]]),
        (b"1 2\n\xff 3\n", None, "not UTF-8 text"),
        (b"1 2\n\n3 7\n", 5, "line 3: symbol 7 is out of range for a model with 5 symbols"),
    ],
    ids=["crlf", "lone-cr", "comment", "comment-fault", "plus", "19-digits", "64-bit-fault",
         "non-ascii", "not-utf8", "out-of-range"],
)
def test_other_files_take_the_line_path(tmp_path, content, n_symbols, expected):
    path = tmp_path / "seqs.txt"
    path.write_bytes(content)
    outcome, took_lines = whole_outcome(path, n_symbols)
    assert took_lines
    if isinstance(expected, str):
        assert outcome.startswith(f"{path}: {expected}")
    else:
        assert [outcome[0][lo:hi] for lo, hi in zip(outcome[1], outcome[1][1:])] == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=7), min_size=1,
                max_size=12))
def test_sequence_file_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("round") / "seqs.txt"
    data = Dataset([np.array(r, dtype=np.int64) for r in rows])
    save_sequences(data, path)
    assert path.read_text() == "".join(" ".join(map(str, r)) + "\n" for r in rows)
    loaded = load_sequences(path)
    assert loaded.offsets.tolist() == data.offsets.tolist()
    assert loaded.values.tolist() == data.values.tolist()
    save_sequences(loaded, path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


EDGE_SYMBOLS = [0, 9, 10, 99, 10**18 - 1, 10**18, 2**62, 2**63 - 1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(
    st.lists(st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 120),
                       st.sampled_from(EDGE_SYMBOLS)), min_size=1, max_size=6),
    min_size=1, max_size=10,
))
@example([[7], [3], [0]])  # one-symbol lines
@example([EDGE_SYMBOLS])
def test_save_sequences_writes_the_bytes_of_the_join_writer(tmp_path_factory, rows):
    # every Dataset the writer accepts: symbols of 1 to 19 digits, no empty line
    data = Dataset([np.array(r, dtype=np.int64) for r in rows])
    out = tmp_path_factory.mktemp("save")
    save_sequences(data, out / "numpy.txt")
    save_sequences_join(data, out / "join.txt")
    assert (out / "numpy.txt").read_bytes() == (out / "join.txt").read_bytes()
    loaded = load_sequences(out / "numpy.txt")
    assert loaded.values.tolist() == data.values.tolist()
    assert loaded.offsets.tolist() == data.offsets.tolist()


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "sequence 1 is missing"),
        ([[], [5], []], "sequence 1 is empty"),
        ([[1, 2], [], [3]], "sequence 2 is empty"),
        ([[7], [-3], [0]], "sequence 2 has a negative symbol"),
        ([[0, 9, 10, -1, -10, 10**18, -(10**18), 2**63 - 1, -(2**63)]],
         "sequence 1 has a negative symbol"),
        ([[4], [5, -(2**63)], []], "sequence 2 has a negative symbol"),
        ([[4], [], [5, -1]], "sequence 2 is empty"),
    ],
    ids=["no_rows", "empty_rows", "empty_middle", "negative", "negative_edges",
         "negative_first", "empty_first"],
)
def test_save_sequences_refuses_what_would_not_load_back(tmp_path, rows, message):
    # no row: a file of no sequence fails to load; an empty row: its blank
    # line is skipped; a negative symbol: loading rejects it. Neither
    # constructor builds such a Dataset, so none reaches the writer.
    path = tmp_path / "seqs.txt"
    path.write_bytes(b"kept\n")
    rows = [np.array(r, dtype=np.int64) for r in rows]
    flat = np.concatenate(rows) if rows else [], np.cumsum([0] + [len(r) for r in rows])
    for build in (lambda: Dataset(rows), lambda: Dataset.from_flat(*flat)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            save_sequences(build(), path)
    assert path.read_bytes() == b"kept\n"


def flat_pair(rows):
    """(values, offsets) of these rows, as lists."""
    return [s for r in rows for s in r], np.cumsum([0] + [len(r) for r in rows]).tolist()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(
    # rows: some empty, or none, or with a negative symbol
    st.lists(st.lists(st.integers(-1, 9) | st.just(2**63 - 1), max_size=4), max_size=5)
    .map(flat_pair),
    # offsets that need not match the values
    st.tuples(st.lists(st.integers(-1, 9), max_size=6), st.lists(st.integers(-1, 7), max_size=5)),
))
@example(([1, 2, 3], [0, 2, 1, 3]))  # a sequence of length -1
@example(([1, 2, 3], [0, 2]))  # a symbol outside every sequence
@example(([1, 2, 3], [0, 5]))  # a sequence past the last symbol
@example(([1, 2, 3], [1, 3]))  # the first symbol outside every sequence
@example(([0, 1, -1], [0, 3]))
@example(([], [0]))
def test_dataset_from_flat_accepts_exactly_the_invariant(tmp_path_factory, pair):
    values, offsets = pair
    fault = dataset_fault(values, offsets)
    if fault is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            Dataset.from_flat(values, offsets)
        return
    data = Dataset.from_flat(values, offsets)
    same = Dataset([values[lo:hi] for lo, hi in zip(offsets, offsets[1:])])
    assert data.values.tolist() == same.values.tolist() == values
    assert data.offsets.tolist() == same.offsets.tolist() == offsets
    path = tmp_path_factory.mktemp("flat") / "seqs.txt"
    save_sequences(data, path)
    loaded = load_sequences(path)
    assert loaded.values.tolist() == values and loaded.offsets.tolist() == offsets


@pytest.mark.parametrize(
    "sequences, number",
    [([[[0, 1], [1, 2]]], 1), ([5], 1), ([[0, 1], [[2]]], 2)],
    ids=["2-d", "scalar", "second"],
)
def test_dataset_rejects_rows_that_are_not_1d(sequences, number):
    with pytest.raises(ValueError, match=f"^sequence {number} is not a 1-D array$"):
        Dataset(sequences)


@pytest.mark.parametrize(
    "sequences, number",
    [
        ([[1.7, 2.2]], 1),
        ([[1], np.array([2.0])], 2),
        ([[True, False]], 1),
        ([np.array([1, 2], dtype=object)], 1),
        ([[0], np.array([3, 2**63], dtype=np.uint64)], 2),
        ([[2**64]], 1),
    ],
    ids=["float", "integral-float", "bool", "object", "uint64-past-int64", "python-int-past-64"],
)
def test_dataset_rejects_symbols_it_would_cut(sequences, number):
    # int64 would truncate a fraction and wrap 2**63 to -2**63
    with pytest.raises(ValueError, match=f"^sequence {number} must hold integers below 2\\*\\*63$"):
        Dataset(sequences)


@pytest.mark.parametrize(
    "values, offsets, name",
    [
        ([1.7, 2.2], [0, 2], "values"),
        (np.array([2**63], dtype=np.uint64), [0, 1], "values"),
        ([True, False], [0, 2], "values"),
        ([1, 2], [0.0, 2.0], "offsets"),
    ],
    ids=["float", "uint64-past-int64", "bool", "float-offsets"],
)
def test_dataset_from_flat_rejects_values_it_would_cut(values, offsets, name):
    # as Dataset(sequences) does: [1.7, 2.2] would become [1, 2] and 2**63
    # would wrap to -2**63
    with pytest.raises(ValueError, match=f"^{name} must hold integers below 2\\*\\*63$"):
        Dataset.from_flat(values, offsets)


def test_dataset_from_flat_keeps_every_int64():
    data = Dataset.from_flat(np.array([2**63 - 1, 0, 5], dtype=np.uint64), np.array([0, 2, 3]))
    assert data.values.dtype == data.offsets.dtype == np.int64
    assert [s.tolist() for s in data.sequences] == [[2**63 - 1, 0], [5]]
    # empty values may be float, as np.asarray([]) is, but make no sequence
    with pytest.raises(ValueError, match="^sequence 1 is missing$"):
        Dataset.from_flat([], [0])


@pytest.mark.parametrize(
    "rows", [[1.7], np.array([0.0]), [True], np.array([2**63], dtype=np.uint64)],
    ids=["float", "integral-float", "bool", "uint64-past-int64"],
)
def test_dataset_take_rejects_positions_that_are_not_integers(rows):
    # int64 would take [1.7] as row 1 and wrap 2**63 to row -2**63
    with pytest.raises(ValueError, match="^rows must hold integers below 2\\*\\*63$"):
        Dataset([[5, 6], [7]]).take(rows)


def test_dataset_keeps_every_int64():
    rows = [np.array([2**63 - 1, 0], dtype=np.uint64), np.array([5, 7], dtype=np.int8), [3]]
    data = Dataset(rows)
    assert data.values.dtype == np.int64
    assert [s.tolist() for s in data.sequences] == [[2**63 - 1, 0], [5, 7], [3]]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5), min_size=1, max_size=8),
    st.data(),
)
def test_dataset_take_matches_per_row_gather(rows, data):
    # the positions repeat, run out of order or count from the end, as
    # Python's do; no position makes no Dataset, and one outside [-n, n) none
    dataset = Dataset([np.array(r, dtype=np.int64) for r in rows])
    n = len(rows)
    positions = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=12))
    got = dataset.take(np.array(positions, dtype=np.int64))
    assert len(got) == len(positions)
    assert [s.tolist() for s in got.sequences] == [rows[i] for i in positions]
    expected = [dataset.sequences[i] for i in positions]
    assert np.array_equal(got.values, np.concatenate(expected))
    assert got.values.dtype == np.int64 and got.offsets.tolist()[0] == 0
    assert not got.values.flags.writeable and not got.offsets.flags.writeable
    with pytest.raises(ValueError, match="^sequence 1 is missing$"):
        dataset.take([])
    outside = data.draw(st.sampled_from([-n - 1, n]))
    with pytest.raises(ValueError, match=f"^position {outside} is out of range for {n} sequences$"):
        dataset.take([0, outside])
