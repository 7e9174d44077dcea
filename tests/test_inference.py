"""Scaled forward-backward, likelihood, and Viterbi against enumeration."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_budget,
    estep_block_slicing,
    forward_backward,
    padded_block,
    score_block_history,
    viterbi_block_history,
)

from hmmaccel import (
    HmmModel,
    ImpossibleSequenceError,
    likelihood,
    score_block,
    viterbi,
    viterbi_block,
)
from hmmaccel import inference
from hmmaccel.inference import (
    BLOCK_BYTES,
    _forward_block,
    _kernel_bytes,
    estep_block,
    estep_plan,
    estep_plans,
    estep_workspace,
    length_blocks,
    step_weights,
)
from hmmaccel.model import Dataset


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


def test_fractional_symbols_rejected_not_truncated():
    # [0.5, 1.2] would score as [0, 1], which the chain emits with probability 1
    for fn in (likelihood, viterbi):
        with pytest.raises(ValueError, match="sequence 1 must hold integers below 2"):
            fn(DETERMINISTIC_CHAIN, [0.5, 1.2])


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
    with pytest.raises(ValueError, match=r"^sequence 1 uses symbols outside \[0, 3\)$"):
        likelihood(model, [0, 3])
    with pytest.raises(ValueError, match="^sequence 1 is empty$"):
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
        (block,) = length_blocks(Dataset(list(obs)), model, viterbi_block)
        lls = score_block(model, block)
        paths, lps = viterbi_block(model, block)
        assert lls.shape == lps.shape == (obs.shape[0],)
        assert paths.shape == obs.shape
        for row, ll, path, lp in zip(obs.tolist(), lls, paths, lps):
            assert math.exp(ll) == pytest.approx(enum_likelihood(model, row), rel=1e-12)
            exp_path, exp_lp = enum_viterbi(model, row)
            assert lp == exp_lp
            assert path.tolist() == exp_path


def test_blocks_mark_impossible_rows():
    obs = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    (block,) = length_blocks(Dataset(obs), DETERMINISTIC_CHAIN, viterbi_block)
    assert score_block(DETERMINISTIC_CHAIN, block).tolist() == [-np.inf, 0.0, -np.inf]
    paths, lps = viterbi_block(DETERMINISTIC_CHAIN, block)
    assert lps.tolist() == [-np.inf, 0.0, -np.inf]
    assert paths[1].tolist() == [0, 1, 0]


@pytest.mark.parametrize(
    "lengths", [[9, 7, 7, 4, 2, 1], [6, 1], [3]], ids=["ragged", "lone", "one-row"]
)
def test_scoring_coefficients_are_one_past_each_row(lengths):
    # scoring takes c = 1 / s over its whole (T, W) array, so every entry
    # past a row's length, the padding row's too, must hold a sum first
    rng = np.random.default_rng(59)
    model = random_model(rng, 3, 4)
    (block,) = length_blocks(
        Dataset([rng.integers(0, 4, size=t) for t in lengths]), model, score_block
    )
    c = _forward_block(model, block)
    assert c.shape == (lengths[0], max(len(lengths), 2))
    running = np.arange(lengths[0])[:, None] < block.lengths
    assert np.isfinite(c[:, : len(lengths)][running]).all()
    assert (c[:, : len(lengths)][~running] == 1.0).all()
    assert (c[:, len(lengths) :] == 1.0).all()


@pytest.mark.parametrize("n", range(1, 17))
def test_scaling_coefficients_do_not_depend_on_block(n):
    # a row's c_t must not depend on the block's row count, the row's
    # offset in it, or how many rows are still running beside it; and the
    # no-history mode scoring uses must give the bits training's mode gives
    rng = np.random.default_rng(60 + n)
    model = random_model(rng, n, 6)
    seq = rng.integers(0, 6, size=9)

    def forward(rows):
        """Training's packed c, checked against scoring's (T, W) c, and the
        packed position of each step's first row."""
        (block,) = length_blocks(Dataset(rows), model, estep_block)
        plan = estep_plan(block, np.ones(len(block.symbols) - 1), estep_workspace([block], n))
        c = _forward_block(model, block, plan)
        c_scoring = _forward_block(model, block)
        first = np.cumsum([0] + block.sizes[:-2])
        for t, k in enumerate(block.sizes[:-1]):  # the running rows of each step
            assert np.array_equal(c_scoring[t, :k], c[first[t] : first[t] + k]), (len(rows), t)
        return c, first

    c, first = forward([seq, seq])
    expected = c[first].copy()
    c, _ = forward([seq])  # a block of one row
    assert np.array_equal(c, expected)
    for b_len in (2, 3, 7, 8, 9, 68):
        for offset in sorted({0, 1, b_len // 2, b_len - 1}):
            obs = rng.integers(0, 6, size=(b_len, 9))
            obs[offset] = seq
            c, first = forward(list(obs))
            assert np.array_equal(c[first + offset], expected), (b_len, offset)
        # the row leads a block of shorter rows, so the prefix shrinks to it
        lengths = np.sort(rng.integers(1, 9, size=b_len))[::-1]
        lengths[0] = 9
        obs = obs[np.argsort(np.arange(b_len) != offset)]
        c, first = forward([row[:t_len] for row, t_len in zip(obs, lengths)])
        assert np.array_equal(c[first], expected), b_len


def test_packed_blocks_match_per_sequence_calls():
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = random_model(rng, int(rng.integers(1, 6)), 4)
        lengths = np.sort(rng.integers(1, 12, size=int(rng.integers(1, 9))))[::-1]
        obs = rng.integers(0, 4, size=(len(lengths), lengths[0]))
        data = Dataset([row[:t] for row, t in zip(obs, lengths)])
        (block,) = length_blocks(data, model, viterbi_block)
        lls = score_block(model, block)
        paths, lps = viterbi_block(model, block)
        for row, t_len, ll, path, lp in zip(obs, lengths, lls, paths, lps):
            exp_path, exp_lp = viterbi(model, row[:t_len])
            assert ll == likelihood(model, row[:t_len])
            assert lp == exp_lp
            assert path[:t_len].tolist() == exp_path.tolist()
            assert not path[t_len:].any()


@st.composite
def ragged_blocks(draw):
    """A ragged Dataset, a model for its symbols, a kernel and a small byte
    budget."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    seqs = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=9),
                         min_size=1, max_size=25))
    model = make(np.full(n, 1 / n), np.full((n, n), 1 / n), np.full((n, m), 1 / m))
    kernel = draw(st.sampled_from([estep_block, score_block, viterbi_block]))
    return Dataset(seqs), model, kernel, draw(st.integers(1, 6000))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ragged_blocks())
def test_block_invariants(case):
    data, model, kernel, budget = case
    m = model.n_symbols
    with mock.patch.object(inference, "BLOCK_BYTES", budget):
        blocks = length_blocks(data, model, kernel)
    step, per_row = _kernel_bytes(kernel, model.n_states)
    seqs, lengths = data.sequences, data.lengths.tolist()
    order = sorted(range(len(data)), key=lambda i: -lengths[i])  # a stable sort
    assert np.concatenate([block.rows for block in blocks]).tolist() == order
    weights = np.arange(len(data)) + 1.0
    for i, block in enumerate(blocks):
        rows, sizes = block.rows.tolist(), block.sizes
        t_len = lengths[rows[0]]
        assert block.lengths.tolist() == [lengths[r] for r in rows]
        # the most rows that fit the budget, and at least one
        fit = (budget - step) // (t_len * step + per_row)
        assert len(rows) == max(1, fit) or i == len(blocks) - 1 and len(rows) < fit
        assert len(rows) == 1 or step + len(rows) * (t_len * step + per_row) <= budget
        assert sizes == [sum(lengths[r] > t for r in rows) for t in range(t_len + 1)]
        assert sizes[0] == len(rows) and sizes[-1] == 0
        assert len(block.symbols) == sum(sizes) + 1
        wp = step_weights(block, weights)
        assert len(wp) == sum(sizes)
        first = 0
        for t, k in enumerate(sizes[:-1]):
            for b in range(k):
                assert block.symbols[first + b] == seqs[rows[b]][t], (t, b)
                assert wp[first + b] == weights[rows[b]], (t, b)
            first += k
        assert 0 <= block.symbols[-1] < m  # the spare


def oracle_model(rng, n, m, kind):
    """A random model; "ties" makes every row uniform, so each argmax ties
    across all states, and "zeros" zeroes about a third of the entries,
    so some sequences are impossible."""
    if kind == "ties":
        return make(np.full(n, 1 / n), np.full((n, n), 1 / n), np.full((n, m), 1 / m))
    pi, a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, (n, n)), rng.uniform(0.1, 1.0, (n, m))
    if kind == "zeros":
        pi[rng.random(n) < 0.3] = 0.0
        a *= rng.random((n, n)) < 0.7
        b *= rng.random((n, m)) < 0.7
        # every row keeps at least one entry
        pi[rng.integers(n)] += 0.5
        a[np.arange(n), rng.integers(0, n, n)] += 0.5
        b[np.arange(n), rng.integers(0, m, n)] += 0.5
    return make(pi / pi.sum(), a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True))


def assert_blocks_match_history_oracles(model, seqs, budget):
    """Score and decode `seqs` in blocks of at most `budget` bytes, each
    kernel in its own blocks, and the history oracles in training's
    blocks, padded, and require the same bits."""
    data = Dataset(seqs)

    def history(kernel):
        for block in length_blocks(data, model, estep_block):
            obs, lengths = padded_block([seqs[row] for row in block.rows])
            run = score_block_history if kernel is score_block else viterbi_block_history
            yield block, run(model, obs, lengths)

    def packed(kernel):
        with mock.patch.object(inference, "BLOCK_BYTES", budget):
            blocks = length_blocks(data, model, kernel)
        for block in blocks:
            yield block, kernel(model, block)

    results = []
    for run in (history, packed):
        lls, lps, paths = np.empty(len(seqs)), np.empty(len(seqs)), [None] * len(seqs)
        for block, block_lls in run(score_block):
            lls[block.rows] = block_lls
        for block, (block_paths, lps[block.rows]) in run(viterbi_block):
            for row, path, t_len in zip(block.rows, block_paths, block.lengths):
                paths[row] = path[:t_len].tolist()
        results.append((lls.tobytes(), lps.tobytes(), paths))
    assert results[1] == results[0]


@st.composite
def oracle_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 8]))
    m = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["random", "ties", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=12))
    seqs = [rng.integers(0, m, size=t_len) for t_len in lengths]
    budget = draw(st.sampled_from([1, 2**11, 2**13, BLOCK_BYTES]))
    return oracle_model(rng, n, m, kind), seqs, budget


@settings(derandomize=True, max_examples=80, deadline=None)
@given(oracle_cases())
def test_blocks_match_history_oracles(case):
    # small budgets split the sequences over several blocks, down to one row each
    assert_blocks_match_history_oracles(*case)


def test_blocks_match_history_oracles_with_two_byte_back_pointers():
    # 300 states need uint16 back-pointers; half the A rows are uniform, so
    # argmax ties across all 300 states there. Under BLOCK_BYTES Viterbi
    # runs one row per block at 300 states; 8 MiB packs all six rows in one.
    rng = np.random.default_rng(42)
    n, m = 300, 5
    model = oracle_model(rng, n, m, "random")
    a = model.a.copy()
    a[::2] = 1 / n
    model = make(model.pi, a, model.b)
    seqs = [rng.integers(0, m, size=t_len) for t_len in (70, 33, 33, 8, 2, 1)]
    for budget in (BLOCK_BYTES, 2**23):
        assert_blocks_match_history_oracles(model, seqs, budget)


def test_scoring_blocks_stay_small():
    # a 500 x 60 file at 8 states scores and decodes in one block; neither
    # scoring nor decoding it may hold more than 1 MiB at once
    rng = np.random.default_rng(70)
    model = random_model(rng, 8, 40)
    data = Dataset(list(rng.integers(0, 40, size=(500, 60))))
    for run in (score_block, viterbi_block):
        (block,) = length_blocks(data, model, run)
        tracemalloc.start()
        try:
            run(model, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (run.__name__, peak)
    # short rows fill a block by rows, as many as the budget holds
    data = Dataset(list(rng.integers(0, 40, size=(10000, 2))))
    for run, layout in ((score_block, [3744, 3744, 2512]), (viterbi_block, [1213] * 8 + [296])):
        assert [len(block.rows) for block in length_blocks(data, model, run)] == layout


# The bytes a kernel holds whatever its block's size: the buffers numpy's
# ufuncs use for a broadcast operand, up to 8,192 elements each, and the
# views of the step it runs. The (N, N) float64 arrays it reads (the
# all-ones matrix in scoring, log A in Viterbi: 32 KiB each at 64 states)
# are the model's, made in the first call, which is not counted.
SLACK = 2**18


@pytest.mark.parametrize("kernel", [score_block, viterbi_block])
def test_blocks_hold_their_stated_bytes_at_64_states(kernel):
    # 4,096 rows of lengths 2-8 at 64 states: in one block, Viterbi's
    # (N, N, B) arrays alone would take 160 MiB. Each block's peak holds
    # the bytes `_kernel_bytes` states for it, within BLOCK_BYTES, and at
    # most SLACK more.
    rng = np.random.default_rng(90)
    n = 64
    model = random_model(rng, n, 6)
    data = Dataset([rng.integers(0, 6, size=t) for t in rng.integers(2, 9, size=4096)])
    step, per_row = _kernel_bytes(kernel, n)
    blocks = length_blocks(data, model, kernel)
    assert len(blocks) > 1
    kernel(model, blocks[-1])  # first-call set-up is not counted
    tracemalloc.start()
    try:
        for block in blocks:
            stated = step + len(block.rows) * (int(block.lengths[0]) * step + per_row)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernel(model, block)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert stated <= BLOCK_BYTES
            assert stated <= peak <= stated + SLACK, (len(block.rows), stated, peak)
    finally:
        tracemalloc.stop()


def estep_counts(model, blocks, weights, work, fill):
    """One E-step over `blocks` in `work`, filled with `fill` before each
    block: the counts and each block's log-likelihood, as bytes."""
    n, m = model.n_states, model.n_symbols
    counts = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    plans = [estep_plan(block, step_weights(block, weights), work) for block in blocks]
    lls = []
    for block, plan in zip(blocks, plans):
        work.fill(fill)
        lls.append(estep_block(model, block, plan, *counts))
    return [x.tobytes() for x in counts], np.array(lls).tobytes()


@pytest.mark.parametrize(
    "steps, layout",
    [
        (None, [([0, 1, 6, 3, 2, 4, 5], [1, 3, 6])]),
        (6, [([0], None), ([1], [0]), ([6], None), ([3], [0]), ([2, 4], None), ([5], [0])]),
    ],
    ids=["one-block", "capped"],
)
def test_estep_names_exactly_the_impossible_rows(steps, layout):
    # symbol 2 is never emitted, so inputs 1, 3 and 5 are impossible; a
    # block that holds one returns a non-finite log-likelihood and adds
    # nothing to the counts, and score_block marks exactly its impossible
    # rows -inf
    seqs = [[0, 1, 1, 0, 1, 0], [0, 1, 0, 1, 1, 2], [1, 1, 0], [0, 2, 1, 1], [1, 0], [2],
            [0, 1, 1, 1, 0, 0]]
    model = make([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]])
    budget = BLOCK_BYTES if steps is None else block_budget(estep_block, 2, 1, steps)
    with mock.patch.object(inference, "BLOCK_BYTES", budget):
        blocks = length_blocks(Dataset([np.array(seq) for seq in seqs]), model, estep_block)
    assert [block.rows.tolist() for block in blocks] == [rows for rows, _ in layout]
    work = estep_workspace(blocks, 2)
    for block, (_, dead) in zip(blocks, layout):
        counts = np.zeros(2), np.zeros((2, 2)), np.zeros((2, 3))
        plan = estep_plan(block, step_weights(block, np.ones(len(seqs))), work)
        ll = estep_block(model, block, plan, *counts)
        assert np.isfinite(ll) == (dead is None), block.rows
        assert [x.any() for x in counts] == [dead is None] * 3, block.rows
        assert np.flatnonzero(score_block(model, block) == -np.inf).tolist() == (dead or [])


@pytest.mark.parametrize(
    "n, lengths, steps, packed",
    [
        (3, [6] * 40, None, [240]),  # one length: xi is one run
        (3, [9, 7, 7, 4, 2, 1] * 6, None, [180]),  # mixed lengths: xi is one run per row count
        (2, [30] * 4 + [3] * 30, 120, [120, 90]),  # a short block after a long one
        (1, [5, 3, 3, 1] * 5, None, [60]),
        (3, [8, 5, 2], 4, [8, 5, 2]),  # blocks of one row, each beside a padding row
    ],
    ids=["one-length", "mixed", "short-after-long", "one-state", "one-row"],
)
def test_estep_reads_nothing_it_did_not_write_to_its_workspace(n, lengths, steps, packed):
    # a NaN left in the workspace would reach the counts if any of it were
    # read before it is written
    rng = np.random.default_rng(80 + n)
    model = random_model(rng, n, 4)
    data = Dataset([rng.integers(0, 4, size=t) for t in lengths])
    weights = rng.integers(1, 6, size=len(data)).astype(float)
    budget = BLOCK_BYTES if steps is None else block_budget(estep_block, n, 1, steps)
    with mock.patch.object(inference, "BLOCK_BYTES", budget):
        blocks = length_blocks(data, model, estep_block)
    assert [len(block.symbols) - 1 for block in blocks] == packed
    work = estep_workspace(blocks, n)
    assert estep_counts(model, blocks, weights, work, np.nan) == estep_counts(
        model, blocks, weights, np.zeros_like(work), 0.0
    )


@pytest.mark.parametrize("lengths", [[5] * 250, [6, 5, 5, 4] * 60], ids=["one-length", "mixed"])
def test_estep_allocates_less_than_one_packed_array(lengths):
    # once the workspace exists, an E-step over a block of P >= 1,000 steps
    # at 3 states allocates less than one (P, N) float64 array
    rng = np.random.default_rng(81)
    model = random_model(rng, 3, 4)
    data = Dataset([rng.integers(0, 4, size=t) for t in lengths])
    (block,) = length_blocks(data, model, estep_block)
    p = len(block.symbols) - 1
    assert p >= 1000
    plan = estep_plan(block, step_weights(block, np.ones(len(lengths))), estep_workspace([block], 3))
    counts = np.zeros(3), np.zeros((3, 3)), np.zeros((3, 4))
    estep_block(model, block, plan, *counts)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        estep_block(model, block, plan, *counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * 3 * 8, (peak, p * 3 * 8)


@st.composite
def plan_cases(draw):
    """Ragged sequences with weights, a cap on a block's padded steps, a
    cap on the steps whose plans are kept, and the models of several
    iterations, some of which make a sequence impossible."""
    n, m = draw(st.sampled_from([1, 2, 3, 8])), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    seqs = [rng.integers(0, m, size=t_len) for t_len in lengths]
    weights = draw(st.sampled_from([np.ones, lambda k: rng.integers(1, 6, size=k) * 1.0,
                                    lambda k: rng.uniform(0.1, 3.0, size=k)]))(len(seqs))
    steps = draw(st.sampled_from([1, 6, 25, 10**6]))  # 1: blocks of one row each
    kept = draw(st.sampled_from([0, 15, 10**6]))  # padded steps whose plans are kept
    kinds = draw(st.lists(st.sampled_from(["random", "zeros"]), min_size=3, max_size=3))
    return seqs, weights, steps, kept, [oracle_model(rng, n, m, kind) for kind in kinds]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(plan_cases())
def test_plans_match_the_per_step_slicing_oracle(case):
    # one set of plans, kept or made on each call, serves every iteration,
    # over blocks of different sizes that share one workspace; each block
    # gives the counts and log-likelihood bits of the loop that sliced the
    # workspace at every step
    seqs, weights, steps, kept, models = case
    n, m = models[0].n_states, models[0].n_symbols
    budget = block_budget(estep_block, n, 1, steps)
    with mock.patch.object(inference, "BLOCK_BYTES", budget), \
            mock.patch.object(inference, "PLAN_STEPS", kept):
        blocks = length_blocks(Dataset(seqs), models[0], estep_block)
        plans = estep_plans(blocks, weights, n)
    oracle_work = estep_workspace(blocks, n)
    for model in models:
        got = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
        expected = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
        for block, plan in plans:
            ll = estep_block(model, block, plan, *got)
            expected_ll = estep_block_slicing(model, block, plan.wp, *expected, oracle_work)
            assert np.array([ll]).tobytes() == np.array([expected_ll]).tobytes()
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


def buffer_floor_seqs(rng, m, layout):
    """Sequences that make Viterbi blocks of 100-400 rows at BLOCK_BYTES:
    "crossing" blocks start above UNBUFFERED_ROWS running rows and end
    below it, "above" blocks stay above it to the end, and "below"
    blocks never reach it."""
    rows, lengths = {"crossing": (400, (1, 40)), "above": (250, (25, 26)),
                     "below": (100, (1, 30))}[layout]
    return [rng.integers(0, m, size=t_len) for t_len in rng.integers(*lengths, size=rows)]


@pytest.mark.parametrize("layout", ["crossing", "above", "below"])
@pytest.mark.parametrize("kind", ["random", "ties", "zeros"])
@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_viterbi_blocks_around_the_buffer_floor_match_history_oracles(n, kind, layout):
    # from UNBUFFERED_ROWS running rows, viterbi_block runs its step loop
    # under a smaller ufunc buffer, and must keep every bit
    rng = np.random.default_rng([91, n])
    model = oracle_model(rng, n, 5, kind)
    seqs = buffer_floor_seqs(rng, 5, layout)
    floor = inference.UNBUFFERED_ROWS
    sizes = [block.sizes for block in length_blocks(Dataset(seqs), model, viterbi_block)]
    assert all(100 <= s[0] <= 400 for s in sizes)
    if layout == "below":
        assert all(s[0] < floor for s in sizes)
    else:  # each block starts at or above the floor; crossing ones end below it
        assert all(s[0] >= floor and (s[-2] < floor) == (layout == "crossing") for s in sizes)
    assert_blocks_match_history_oracles(model, seqs, BLOCK_BYTES)


def floor_blocks(layout, n=8, seed=92):
    """A random model at n states and its Viterbi blocks of a
    `buffer_floor_seqs` layout."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, 5)
    return model, length_blocks(Dataset(buffer_floor_seqs(rng, 5, layout)), model, viterbi_block)


@pytest.mark.parametrize("caller", [8192, 4096, 400, 256, 16])
def test_viterbi_leaves_the_callers_buffer_size(caller):
    # every size the kernel sets is a multiple of 16, as numpy 1.x requires,
    # and never above the caller's; the caller's size is back on return
    model, blocks = floor_blocks("crossing")
    old = np.setbufsize(caller)
    try:
        with mock.patch.object(np, "setbufsize", wraps=np.setbufsize) as spy:
            for block in blocks:
                viterbi_block(model, block)
        after = np.getbufsize()
    finally:
        np.setbufsize(old)
    sizes = [call.args[0] for call in spy.call_args_list]
    assert after == caller
    assert sizes[-1] == caller  # restored
    assert all(size % 16 == 0 and 0 < size <= caller for size in sizes), sizes
    assert (min(sizes) < caller) == (caller > 3 * inference.UNBUFFERED_ROWS), sizes


def test_viterbi_restores_the_buffer_size_when_a_step_raises():
    model, (block,) = floor_blocks("above")
    equal, calls, seen = np.equal, itertools.count(), []

    def failing_equal(*args, **kwargs):
        if next(calls) == 10:
            seen.append(np.getbufsize())
            raise RuntimeError("step failed")
        return equal(*args, **kwargs)

    caller = np.getbufsize()
    with mock.patch.object(np, "equal", failing_equal), \
            pytest.raises(RuntimeError, match="step failed"):
        viterbi_block(model, block)
    assert seen[0] < caller  # the step raised under the kernel's size
    assert np.getbufsize() == caller


def test_viterbi_blocks_below_the_floor_make_no_buffer_size_call():
    model, blocks = floor_blocks("below")
    with mock.patch.object(np, "getbufsize", wraps=np.getbufsize) as get, \
            mock.patch.object(np, "setbufsize", wraps=np.setbufsize) as set_:
        for block in blocks:
            viterbi_block(model, block)
    assert get.call_count == set_.call_count == 0


@pytest.mark.parametrize("kernel", [estep_block, score_block, viterbi_block])
def test_kernels_give_the_same_bits_at_any_buffer_size(kernel):
    # a buffer size changes how numpy walks a loop, never its arithmetic,
    # so no kernel's bits depend on it: Viterbi may size its own buffer, and
    # scoring and training run the same under any caller's size
    rng = np.random.default_rng(93)
    n = 8
    model = random_model(rng, n, 5)
    data = Dataset(buffer_floor_seqs(rng, 5, "crossing"))
    blocks = length_blocks(data, model, kernel)
    weights = rng.integers(1, 6, size=len(data)).astype(float)

    def run():
        if kernel is estep_block:
            return estep_counts(model, blocks, weights, estep_workspace(blocks, n), 0.0)
        if kernel is score_block:
            return [score_block(model, block).tobytes() for block in blocks]
        return [[x.tobytes() for x in viterbi_block(model, block)] for block in blocks]

    results = []
    for size in (16, 8192):
        old = np.setbufsize(size)
        try:
            results.append(run())
        finally:
            np.setbufsize(old)
    assert results[0] == results[1]
