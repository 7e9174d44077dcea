"""Model container, validation, sampling, and file formats."""

import re

import numpy as np
import pytest

from hmmaccel import (
    HmmModel,
    load_model,
    load_sequences,
    sample_sequences,
    save_model,
    save_sequences,
    validate_model,
)
from hmmaccel.model import require_valid


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
    ],
    ids=["float_n_states", "bool_n_symbols", "bad_json", "not_utf8", "top_level_list", "string_pi"],
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
    path.write_text("1 2\n# comment\n0 5 1\n")
    with pytest.raises(ValueError, match="line 3: symbol 5 is out of range for a model with 5"):
        load_sequences(path, n_symbols=5)
    assert len(load_sequences(path, n_symbols=6)) == 2
