"""Scaled forward-backward, likelihood, and Viterbi against enumeration."""

import itertools
import math

import numpy as np
import pytest

from hmmaccel import (
    HmmModel,
    ImpossibleSequenceError,
    forward_backward,
    likelihood,
    score_block,
    viterbi,
    viterbi_block,
)
from hmmaccel.inference import _forward_block


def make(pi, a, b):
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return HmmModel(len(pi), b.shape[1], pi, a, b)


def random_model(rng, n, m):
    pi = rng.uniform(0.1, 1.0, size=n)
    a = rng.uniform(0.1, 1.0, size=(n, n))
    b = rng.uniform(0.1, 1.0, size=(n, m))
    return make(pi / pi.sum(), a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True))


def path_probability(model, obs, states):
    p = model.pi[states[0]] * model.b[states[0], obs[0]]
    for t in range(1, len(obs)):
        p *= model.a[states[t - 1], states[t]] * model.b[states[t], obs[t]]
    return p


def enum_likelihood(model, obs):
    return sum(
        path_probability(model, obs, states)
        for states in itertools.product(range(model.n_states), repeat=len(obs))
    )


def enum_viterbi(model, obs):
    # best log-prob path, ties resolved toward the lowest state at the
    # latest position first (matches stepwise lowest-index argmax)
    best_states, best_lp = None, None
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_a = np.log(model.a)
        log_b = np.log(model.b)
    for states in itertools.product(range(model.n_states), repeat=len(obs)):
        lp = log_pi[states[0]] + log_b[states[0], obs[0]]
        for t in range(1, len(obs)):
            lp = (lp + log_a[states[t - 1], states[t]]) + log_b[states[t], obs[t]]
        key = tuple(reversed(states))
        if best_lp is None or lp > best_lp or (lp == best_lp and key < best_key):
            best_states, best_lp, best_key = list(states), lp, key
    return best_states, best_lp


DETERMINISTIC_CHAIN = make(
    [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
)


def test_single_state_gamma_and_likelihood():
    m = make([1.0], [[1.0]], [[0.25, 0.75]])
    obs = [1, 0, 1, 1]
    res = forward_backward(m, obs)
    assert np.array_equal(res.gamma, np.ones((4, 1)))
    expected = sum(math.log(m.b[0, o]) for o in obs)
    assert res.log_likelihood == pytest.approx(expected, rel=1e-12)


def test_uniform_model_half_power():
    m = make([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    for t_len in (1, 3, 6):
        obs = [0, 1] * 3
        ll = likelihood(m, obs[:t_len])
        assert math.exp(ll) == pytest.approx(0.5**t_len, rel=1e-12)


def test_deterministic_chain_probability_one():
    obs = [0, 1, 0, 1, 0]
    ll = likelihood(DETERMINISTIC_CHAIN, obs)
    assert ll == 0.0
    assert repr(ll) == "0.0"


def test_deterministic_chain_impossible():
    with pytest.raises(ImpossibleSequenceError, match="impossible"):
        likelihood(DETERMINISTIC_CHAIN, [0, 0])
    with pytest.raises(ImpossibleSequenceError):
        forward_backward(DETERMINISTIC_CHAIN, [1, 1])


def test_likelihood_matches_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m_sym = int(rng.integers(2, 5))
        model = random_model(rng, n, m_sym)
        t_len = int(rng.integers(1, 6))
        obs = rng.integers(0, m_sym, size=t_len).tolist()
        ll = likelihood(model, obs)
        assert math.exp(ll) == pytest.approx(enum_likelihood(model, obs), rel=1e-12)


def test_likelihood_equals_forward_backward():
    rng = np.random.default_rng(32)
    model = random_model(rng, 3, 4)
    obs = [2, 0, 3, 1]
    assert likelihood(model, obs) == forward_backward(model, obs).log_likelihood
    # long enough that numpy sums the log c_t pairwise, not one by one
    obs = rng.integers(0, 4, size=30).tolist()
    assert likelihood(model, obs) == forward_backward(model, obs).log_likelihood


def test_total_probability_sums_to_one():
    rng = np.random.default_rng(33)
    model = random_model(rng, 2, 4)
    t_len = 3
    total = sum(
        math.exp(likelihood(model, list(obs)))
        for obs in itertools.product(range(4), repeat=t_len)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_gamma_xi_normalization():
    rng = np.random.default_rng(34)
    for _ in range(10):
        model = random_model(rng, int(rng.integers(2, 4)), 3)
        obs = rng.integers(0, 3, size=int(rng.integers(2, 7))).tolist()
        res = forward_backward(model, obs)
        assert np.allclose(res.gamma.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(res.xi.sum(axis=(1, 2)), 1.0, atol=1e-9)
        assert np.allclose(res.xi.sum(axis=2), res.gamma[:-1], atol=1e-9)


def test_scaling_identity():
    rng = np.random.default_rng(35)
    model = random_model(rng, 3, 4)
    obs = [0, 3, 1, 1, 2]
    res = forward_backward(model, obs)
    assert res.scaling.shape == (5,)
    assert res.log_likelihood == -np.log(res.scaling).sum() + 0.0


def test_length_one_sequence():
    rng = np.random.default_rng(36)
    model = random_model(rng, 3, 4)
    res = forward_backward(model, [2])
    assert res.gamma.shape == (1, 3)
    assert res.xi.shape == (0, 3, 3)
    raw = model.pi * model.b[:, 2]
    assert np.allclose(res.gamma[0], raw / raw.sum(), atol=1e-12)
    assert res.log_likelihood == pytest.approx(math.log(raw.sum()), rel=1e-12)


def test_symbol_range_checked():
    rng = np.random.default_rng(37)
    model = random_model(rng, 2, 3)
    with pytest.raises(ValueError, match="symbol out of range"):
        likelihood(model, [0, 3])
    with pytest.raises(ValueError, match="empty sequence"):
        likelihood(model, [])


def test_viterbi_single_state():
    m = make([1.0], [[1.0]], [[0.25, 0.75]])
    obs = [1, 1, 0]
    path, lp = viterbi(m, obs)
    assert path.tolist() == [0, 0, 0]
    assert lp == likelihood(m, obs)


def test_viterbi_deterministic_chain():
    path, lp = viterbi(DETERMINISTIC_CHAIN, [0, 1, 0, 1])
    assert path.tolist() == [0, 1, 0, 1]
    assert lp == 0.0
    assert repr(lp) == "0.0"


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(38)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m_sym = int(rng.integers(2, 5))
        model = random_model(rng, n, m_sym)
        obs = rng.integers(0, m_sym, size=int(rng.integers(1, 6))).tolist()
        path, lp = viterbi(model, obs)
        exp_path, exp_lp = enum_viterbi(model, obs)
        assert lp == exp_lp
        assert path.tolist() == exp_path


def test_viterbi_tie_break_prefers_low_state():
    m = make([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    path, _ = viterbi(m, [0, 1, 0])
    assert path.tolist() == [0, 0, 0]


def test_viterbi_bounded_by_likelihood():
    rng = np.random.default_rng(39)
    for _ in range(20):
        model = random_model(rng, 3, 3)
        obs = rng.integers(0, 3, size=5).tolist()
        _, lp = viterbi(model, obs)
        assert lp <= likelihood(model, obs) + 1e-12


def test_viterbi_impossible():
    with pytest.raises(ImpossibleSequenceError):
        viterbi(DETERMINISTIC_CHAIN, [1, 1, 1])


def test_blocks_match_enumeration():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m_sym = int(rng.integers(2, 5))
        model = random_model(rng, n, m_sym)
        obs = rng.integers(0, m_sym, size=(int(rng.integers(1, 5)), int(rng.integers(1, 6))))
        lls = score_block(model, obs)
        paths, lps = viterbi_block(model, obs)
        assert lls.shape == lps.shape == (obs.shape[0],)
        assert paths.shape == obs.shape
        for row, ll, path, lp in zip(obs.tolist(), lls, paths, lps):
            assert math.exp(ll) == pytest.approx(enum_likelihood(model, row), rel=1e-12)
            exp_path, exp_lp = enum_viterbi(model, row)
            assert lp == exp_lp
            assert path.tolist() == exp_path


def test_blocks_mark_impossible_rows():
    obs = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    assert score_block(DETERMINISTIC_CHAIN, obs).tolist() == [-np.inf, 0.0, -np.inf]
    paths, lps = viterbi_block(DETERMINISTIC_CHAIN, obs)
    assert lps.tolist() == [-np.inf, 0.0, -np.inf]
    assert paths[1].tolist() == [0, 1, 0]


@pytest.mark.parametrize("n", range(1, 17))
def test_scaling_coefficients_do_not_depend_on_block(n):
    # a row's c_t must not depend on the block's row count, the row's
    # offset in it, or how many rows are still running beside it
    rng = np.random.default_rng(60 + n)
    model = random_model(rng, n, 6)
    seq = rng.integers(0, 6, size=9)
    _, _, c = _forward_block(model, np.stack([seq, seq]), [2] * 9 + [0])
    expected = c[:, 0].copy()
    for b_len in (2, 3, 7, 8, 9, 68):
        for offset in sorted({0, 1, b_len // 2, b_len - 1}):
            obs = rng.integers(0, 6, size=(b_len, 9))
            obs[offset] = seq
            _, _, c = _forward_block(model, obs, [b_len] * 9 + [0])
            assert np.array_equal(c[:, offset], expected), (b_len, offset)
        # the row leads a block of shorter rows, so the prefix shrinks to it
        lengths = np.sort(rng.integers(1, 9, size=b_len))[::-1]
        lengths[0] = 9
        sizes = [int((lengths > t).sum()) for t in range(10)]
        _, _, c = _forward_block(model, obs[np.argsort(np.arange(b_len) != offset)], sizes)
        assert np.array_equal(c[:, 0], expected), b_len


def test_packed_blocks_match_per_sequence_calls():
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = random_model(rng, int(rng.integers(1, 6)), 4)
        lengths = np.sort(rng.integers(1, 12, size=int(rng.integers(1, 9))))[::-1]
        obs = rng.integers(0, 4, size=(len(lengths), lengths[0]))
        lls = score_block(model, obs, lengths)
        paths, lps = viterbi_block(model, obs, lengths)
        for row, t_len, ll, path, lp in zip(obs, lengths, lls, paths, lps):
            exp_path, exp_lp = viterbi(model, row[:t_len])
            assert ll == likelihood(model, row[:t_len])
            assert lp == exp_lp
            assert path[:t_len].tolist() == exp_path.tolist()
            assert not path[t_len:].any()


def test_block_lengths_checked():
    obs = np.zeros((3, 4), dtype=np.int64)
    for bad in ([4, 3], [3, 3, 2], [4, 2, 3], [4, 3, 0]):
        with pytest.raises(ValueError, match="lengths must run longest first"):
            score_block(DETERMINISTIC_CHAIN, obs, bad)
        with pytest.raises(ValueError, match="lengths must run longest first"):
            viterbi_block(DETERMINISTIC_CHAIN, obs, bad)
