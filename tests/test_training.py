"""Classical and weighted Baum-Welch re-estimation."""

import contextlib
import gc
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_budget, per_sequence_em

from hmmaccel import (
    ClusterTable,
    HmmModel,
    ImpossibleSequenceError,
    TrainingConfig,
    build_clusters,
    em_train,
    initialize_model,
    sample_sequences,
    validate_model,
    weighted_em_train,
    write_trace_csv,
)
from hmmaccel import inference
from hmmaccel import training as training_module
from hmmaccel.cli import _bundled_bench_model
from hmmaccel.inference import (
    BLOCK_BYTES,
    _kernel_bytes,
    estep_block,
    estep_workspace,
    length_blocks,
)
from hmmaccel.model import Dataset


def make(pi, a, b):
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return HmmModel(len(pi), b.shape[1], pi, a, b)


def reestimate_by_enumeration(model, obs):
    # posteriors from full path enumeration, then one M-step
    n, m = model.n_states, model.n_symbols
    t_len = len(obs)
    gamma = np.zeros((t_len, n))
    xi = np.zeros((t_len - 1, n, n))
    total = 0.0
    for states in itertools.product(range(n), repeat=t_len):
        p = model.pi[states[0]] * model.b[states[0], obs[0]]
        for t in range(1, t_len):
            p *= model.a[states[t - 1], states[t]] * model.b[states[t], obs[t]]
        total += p
        for t, s in enumerate(states):
            gamma[t, s] += p
        for t in range(t_len - 1):
            xi[t, states[t], states[t + 1]] += p
    gamma /= total
    xi /= total
    pi = gamma[0]
    a = xi.sum(axis=0) / gamma[:-1].sum(axis=0)[:, None]
    b = np.zeros((n, m))
    for t, o in enumerate(obs):
        b[:, o] += gamma[t]
    b /= gamma.sum(axis=0)[:, None]
    return pi, a, b


def estep_spy():
    """A spy on the E-step, which runs once per block and iteration. It
    keeps the kernel's name, by which `length_blocks` sizes training's
    blocks."""
    return mock.patch.object(
        training_module, "estep_block", autospec=True, side_effect=inference.estep_block
    )


@contextlib.contextmanager
def training_blocks(steps, n_states):
    """Train in blocks of at most `steps` padded steps at n_states states,
    through the byte budget that gives that cap, and yield a spy on the
    E-step."""
    budget = block_budget(estep_block, n_states, 1, steps)
    with mock.patch.object(inference, "BLOCK_BYTES", budget), estep_spy() as spy:
        yield spy


def assert_matches_per_sequence(train, init, data, seqs, weights, iterations):
    seen = []
    train(
        init,
        data,
        TrainingConfig(iterations=iterations),
        on_iteration=lambda it, model, ll: seen.append((ll, model)),
    )
    expected = per_sequence_em(init, seqs, weights, iterations)
    assert len(seen) == len(expected) == iterations
    for (ll, got), (exp_ll, exp) in zip(seen, expected):
        assert abs(ll - exp_ll) <= 1e-12 * max(1.0, abs(exp_ll))
        assert np.abs(got.pi - exp.pi).max() <= 1e-12
        assert np.abs(got.a - exp.a).max() <= 1e-12
        assert np.abs(got.b - exp.b).max() <= 1e-12


def test_block_kernel_matches_per_sequence_loop_on_mixed_lengths():
    rng = np.random.default_rng(48)
    lengths = [1, 4, 1, 7, 4, 2, 9, 7, 1, 3] * 6
    seqs = [rng.integers(0, 5, size=t) for t in lengths]
    weights = [int(w) for w in rng.integers(1, 9, size=len(seqs))]
    init = initialize_model(3, 5, 12)
    assert_matches_per_sequence(em_train, init, Dataset(seqs), seqs, [1] * len(seqs), 8)
    table = ClusterTable(Dataset(seqs), weights)
    assert_matches_per_sequence(weighted_em_train, init, table, seqs, weights, 8)


def test_block_kernel_matches_per_sequence_loop_across_block_boundaries():
    # one length fills four blocks, the last one partial and topped up with
    # a shorter sequence, ahead of a block of two shorter lengths
    rng = np.random.default_rng(49)
    steps = 4096
    t_long = steps // 4
    seqs = (
        [rng.integers(0, 4, size=3) for _ in range(5)]
        + [rng.integers(0, 4, size=t_long) for _ in range(15)]
        + [rng.integers(0, 4, size=1) for _ in range(3)]
    )
    weights = [int(w) for w in rng.integers(1, 5, size=len(seqs))]
    init = initialize_model(2, 4, 13)
    with training_blocks(steps, 2):
        blocks = length_blocks(Dataset(seqs), init, estep_block)
    assert [block.lengths.tolist() for block in blocks] == [
        [t_long] * 4,
        [t_long] * 4,
        [t_long] * 4,
        [t_long] * 3 + [3],
        [3] * 4 + [1] * 3,
    ]
    assert np.concatenate([block.rows for block in blocks]).tolist() == (
        list(range(5, 20)) + list(range(5)) + list(range(20, 23))
    )
    table = ClusterTable(Dataset(seqs), weights)
    with training_blocks(steps, 2) as spy:
        assert_matches_per_sequence(em_train, init, Dataset(seqs), seqs, [1] * len(seqs), 3)
        assert spy.call_count == 3 * 5
        assert_matches_per_sequence(weighted_em_train, init, table, seqs, weights, 3)
        assert spy.call_count == 2 * 3 * 5


def test_block_kernel_matches_per_sequence_loop_on_long_sequences_near_zero():
    # the E-step takes gamma and xi straight from the scaled recursions,
    # while the per-sequence loop renormalises each one: they must still
    # agree over 2,000 steps, under a model with entries down to 1e-12
    rng = np.random.default_rng(51)

    def stochastic(tiny):
        # random stochastic rows, holding 1e-12 where `tiny` is True
        p = np.where(tiny, 0.0, rng.uniform(0.1, 1.0, size=tiny.shape))
        p *= (1.0 - 1e-12 * tiny.sum(axis=-1, keepdims=True)) / p.sum(axis=-1, keepdims=True)
        return np.where(tiny, 1e-12, p)

    pi = stochastic(np.array([False, False, True]))
    a = stochastic(np.array([[False, False, True], [False, False, False], [True, True, False]]))
    b = stochastic(np.array([[False, True, False, False, False, True],
                             [True, False, False, True, False, False],
                             [False, False, True, False, True, False]]))
    init = make(pi, a, b)
    validate_model(init)
    assert init.a.min() < 1.1e-12 and init.b.min() < 1.1e-12
    seqs = [rng.integers(0, 6, size=t) for t in (2000, 7, 2000, 300, 2000, 2000)]
    weights = [1, 3, 2, 5, 1, 4]
    assert_matches_per_sequence(em_train, init, Dataset(seqs), seqs, [1] * len(seqs), 4)
    table = ClusterTable(Dataset(seqs), weights)
    assert_matches_per_sequence(weighted_em_train, init, table, seqs, weights, 4)


@st.composite
def mixed_corpora(draw):
    """Sequences of lengths 1..12 plus a lone longest one of length 13,
    their weights 1..8, a model size and a small block cap. At least six
    sequences, so that every cap splits them over two blocks or more."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=5, max_size=14)) + [13]
    lengths = draw(st.permutations(lengths))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = [rng.integers(0, m, size=t) for t in lengths]
    weights = draw(st.lists(st.integers(1, 8), min_size=len(seqs), max_size=len(seqs)))
    block_steps = draw(st.sampled_from([9, 30, 64]))
    return initialize_model(n, m, int(rng.integers(2**31))), seqs, weights, block_steps


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mixed_corpora())
def test_packed_blocks_match_per_sequence_loop(case):
    init, seqs, weights, block_steps = case
    # a small cap splits lengths across blocks; at 30 and 64 the lone
    # length-13 row leads a block of several, so the prefix shrinks to it
    with training_blocks(block_steps, init.n_states) as spy:
        n_blocks = len(length_blocks(Dataset(seqs), init, estep_block))
        assert n_blocks > 1
        assert_matches_per_sequence(em_train, init, Dataset(seqs), seqs, [1] * len(seqs), 3)
        assert spy.call_count == 3 * n_blocks
        table = ClusterTable(Dataset(seqs), weights)
        assert_matches_per_sequence(weighted_em_train, init, table, seqs, weights, 3)
        assert spy.call_count == 2 * 3 * n_blocks


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mixed_corpora(), st.randoms(use_true_random=False))
def test_weighted_table_matches_classical_em_on_expanded_corpus(case, shuffle):
    # a representative of weight w trains as w copies of itself, wherever
    # the copies sit in the corpus and whatever blocks they fall into
    init, seqs, weights, block_steps = case
    expanded = [seq for seq, w in zip(seqs, weights) for _ in range(w)]
    shuffle.shuffle(expanded)
    table = ClusterTable(Dataset(seqs), weights)
    cfg = TrainingConfig(iterations=4)
    with training_blocks(block_steps, init.n_states) as spy:
        weighted = weighted_em_train(init, table, cfg)
        assert spy.call_count > cfg.iterations  # more than one block
        spy.reset_mock()
        classical = em_train(init, Dataset(expanded), cfg)
        assert spy.call_count > cfg.iterations
    for got, exp in zip(weighted.per_iteration_log_likelihood,
                        classical.per_iteration_log_likelihood, strict=True):
        assert abs(got - exp) <= 1e-10 * max(1.0, abs(exp))
    for name in ("pi", "a", "b"):
        got, exp = getattr(weighted.final_model, name), getattr(classical.final_model, name)
        assert np.abs(got - exp).max() <= 1e-10, name


def test_block_kernel_names_impossible_sequence_in_later_length_group():
    # symbol 2 is never emitted, so sequence 5 (second row of the length-4
    # group, which comes second) is impossible
    init = make([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]])
    seqs = [
        np.array([0, 1]),
        np.array([1, 1, 0, 1]),
        np.array([1, 0]),
        np.array([0, 0]),
        np.array([0, 2, 1, 1]),
        np.array([0, 1, 1, 2]),
    ]
    with pytest.raises(ImpossibleSequenceError) as expected:
        per_sequence_em(init, seqs, [1] * len(seqs), 2)
    message = str(expected.value)
    assert message == "sequence 5 is impossible under the model at iteration 1"
    with pytest.raises(ImpossibleSequenceError, match=f"^{message}$"):
        em_train(init, Dataset(seqs), TrainingConfig(iterations=2))
    table = ClusterTable(Dataset(seqs), [3] * len(seqs))
    with pytest.raises(ImpossibleSequenceError, match=f"^{message}$"):
        weighted_em_train(init, table, TrainingConfig(iterations=2))


def test_impossible_sequence_named_in_input_order_across_blocks():
    # sequences 2 and 4 are impossible (symbol 2 is never emitted);
    # sequence 4 is longer, so it sits in an earlier block than sequence 2
    init = make([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]])
    seqs = [
        np.array([0, 1, 1, 0]),
        np.array([2, 1]),
        np.array([1, 0]),
        np.array([0, 1, 2, 1]),
    ]
    message = "sequence 2 is impossible under the model at iteration 1"
    with pytest.raises(ImpossibleSequenceError, match=f"^{message}$"):
        per_sequence_em(init, seqs, [1] * len(seqs), 1)
    with training_blocks(4, 2) as spy:
        blocks = [block.rows.tolist() for block in length_blocks(Dataset(seqs), init, estep_block)]
        assert blocks == [[0], [3], [1, 2]]
        with pytest.raises(ImpossibleSequenceError, match=f"^{message}$"):
            em_train(init, Dataset(seqs), TrainingConfig(iterations=1))
        assert spy.call_count == 3  # every block runs before the error names one
        table = ClusterTable(Dataset(seqs), [2] * len(seqs))
        with pytest.raises(ImpossibleSequenceError, match=f"^{message}$"):
            weighted_em_train(init, table, TrainingConfig(iterations=1))
        assert spy.call_count == 6


@pytest.mark.parametrize("impossible", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("weighted", [False, True], ids=["classical", "weighted"])
def test_no_state_outlives_a_run(weighted, impossible):
    # the plans hold views into the run's workspace; once a trainer
    # returns or raises, nothing holds that workspace, so no module keeps
    # a plan
    init = make([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]])
    seqs = [np.array([0, 1, 1, 0]), np.array([1, 0]), np.array([0, 1, 1, 0, 1, 0, 0])]
    if impossible:
        seqs.append(np.array([1, 2]))  # symbol 2 is never emitted
    make_workspace, refs = inference.estep_workspace, []

    def workspace(*args):
        work = make_workspace(*args)
        refs.append(weakref.ref(work))
        return work

    with mock.patch.object(inference, "estep_workspace", workspace):
        try:
            if weighted:
                weighted_em_train(init, ClusterTable(Dataset(seqs), [2] * len(seqs)),
                                  TrainingConfig(iterations=3))
            else:
                em_train(init, Dataset(seqs), TrainingConfig(iterations=3))
            raised = False
        except ImpossibleSequenceError:
            raised = True
    assert raised == impossible
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


@pytest.mark.parametrize("n", [1, 3, 8, 64])
def test_training_block_cap_keeps_the_workspace_within_budget(n):
    # a sequence of the most steps whose workspace, spare step included,
    # fits BLOCK_BYTES fills the largest block training makes; one more
    # step would not fit
    step = _kernel_bytes(estep_block, n)[0]
    steps = BLOCK_BYTES // step - 1
    rng = np.random.default_rng(n)
    lengths = [steps, steps // 2 + 1, steps // 2, 7, 3, 1, 1]
    data = Dataset([rng.integers(0, 2, size=t) for t in lengths])
    blocks = length_blocks(data, initialize_model(n, 2, 0), estep_block)
    assert [block.lengths.tolist() for block in blocks][:2] == [[steps], [steps // 2 + 1]]
    assert max(len(block.symbols) for block in blocks) == steps + 1
    work = estep_workspace(blocks, n)
    assert work.shape == (3, steps + 1, n) and work.dtype == np.float64
    assert work.nbytes <= BLOCK_BYTES < work.nbytes + step


def test_corpus_of_10000_by_5_trains_in_four_blocks_at_3_states():
    # the paper's corpus size under the bundled model's state count
    rng = np.random.default_rng(73)
    data = Dataset(list(rng.integers(0, 10, size=(10000, 5))))
    with estep_spy() as spy:
        em_train(initialize_model(3, 10, 3), data, TrainingConfig(iterations=1))
    assert [len(call.args[1].rows) for call in spy.call_args_list] == [2912, 2912, 2912, 1264]


def test_ragged_corpus_of_147_by_30_trains_in_one_block_at_8_states():
    rng = np.random.default_rng(71)
    data = Dataset(list(rng.integers(0, 40, size=(147, 30))))
    with estep_spy() as spy:
        em_train(initialize_model(8, 40, 3), data, TrainingConfig(iterations=2))
    assert spy.call_count == 2


def test_initialize_degenerate():
    m = initialize_model(1, 1, 0)
    assert m.pi.tolist() == [1.0]
    assert m.a.tolist() == [[1.0]]
    assert m.b.tolist() == [[1.0]]


def test_initialize_deterministic_and_valid():
    m1 = initialize_model(3, 10, 17)
    m2 = initialize_model(3, 10, 17)
    m3 = initialize_model(3, 10, 18)
    assert np.array_equal(m1.pi, m2.pi)
    assert np.array_equal(m1.a, m2.a)
    assert np.array_equal(m1.b, m2.b)
    assert not np.array_equal(m1.b, m3.b)
    assert (m1.pi > 0).all() and (m1.a > 0).all() and (m1.b > 0).all()
    assert abs(m1.pi.sum() - 1.0) < 1e-12
    assert np.abs(m1.a.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(m1.b.sum(axis=1) - 1.0).max() < 1e-12
    with pytest.raises(ValueError):
        initialize_model(0, 2, 0)


def test_single_state_closed_form():
    init = make([1.0], [[1.0]], [[0.5, 0.5]])
    data = Dataset([np.array([0, 0, 0])])
    trace = em_train(init, data, TrainingConfig(iterations=1))
    assert trace.final_model.pi.tolist() == [1.0]
    assert trace.final_model.a.tolist() == [[1.0]]
    assert trace.final_model.b.tolist() == [[1.0, 0.0]]


def test_one_iteration_matches_formula_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        pi = rng.uniform(0.1, 1.0, size=2)
        a = rng.uniform(0.1, 1.0, size=(2, 2))
        b = rng.uniform(0.1, 1.0, size=(2, 2))
        model = make(
            pi / pi.sum(),
            a / a.sum(axis=1, keepdims=True),
            b / b.sum(axis=1, keepdims=True),
        )
        obs = rng.integers(0, 2, size=2).tolist()
        trace = em_train(
            model, Dataset([np.array(obs)]), TrainingConfig(iterations=1)
        )
        exp_pi, exp_a, exp_b = reestimate_by_enumeration(model, obs)
        assert np.abs(trace.final_model.pi - exp_pi).max() < 1e-12
        assert np.abs(trace.final_model.a - exp_a).max() < 1e-12
        assert np.abs(trace.final_model.b - exp_b).max() < 1e-12


def test_weight_one_reduction_bit_identical():
    rng = np.random.default_rng(42)
    seqs = [rng.integers(0, 4, size=5) for _ in range(12)]
    init = initialize_model(3, 4, 1)
    cfg = TrainingConfig(iterations=15)
    classical = em_train(init, Dataset(seqs), cfg)
    table = ClusterTable(Dataset(seqs), [1] * len(seqs))
    weighted = weighted_em_train(init, table, cfg)
    assert np.array_equal(classical.final_model.pi, weighted.final_model.pi)
    assert np.array_equal(classical.final_model.a, weighted.final_model.a)
    assert np.array_equal(classical.final_model.b, weighted.final_model.b)
    assert classical.per_iteration_log_likelihood == weighted.per_iteration_log_likelihood


def test_two_copy_equivalence():
    s = np.array([3, 1, 1, 0, 2])
    init = initialize_model(2, 4, 7)
    cfg = TrainingConfig(iterations=20)
    weighted = weighted_em_train(init, ClusterTable(Dataset([s]), [2]), cfg)
    classical = em_train(init, Dataset([s, s]), cfg)
    ll_w = weighted.per_iteration_log_likelihood
    ll_c = classical.per_iteration_log_likelihood
    assert max(abs(x - y) for x, y in zip(ll_w, ll_c)) < 1e-10
    assert np.abs(weighted.final_model.pi - classical.final_model.pi).max() < 1e-10
    assert np.abs(weighted.final_model.a - classical.final_model.a).max() < 1e-10
    assert np.abs(weighted.final_model.b - classical.final_model.b).max() < 1e-10


def test_weight_scale_invariance():
    rng = np.random.default_rng(43)
    seqs = [rng.integers(0, 3, size=4) for _ in range(6)]
    weights = [1, 3, 2, 5, 1, 4]
    init = initialize_model(2, 3, 9)
    cfg = TrainingConfig(iterations=12)
    captured = {1: [], 7: []}
    for scale in (1, 7):
        table = ClusterTable(Dataset(seqs), [w * scale for w in weights])
        weighted_em_train(
            init,
            table,
            cfg,
            on_iteration=lambda it, m, ll, c=captured[scale]: c.append(
                (m.pi.copy(), m.a.copy(), m.b.copy())
            ),
        )
    for (p1, a1, b1), (p7, a7, b7) in zip(captured[1], captured[7]):
        assert np.abs(p1 - p7).max() <= 1e-12
        assert np.abs(a1 - a7).max() <= 1e-12
        assert np.abs(b1 - b7).max() <= 1e-12


def test_entry_permutation_invariance():
    rng = np.random.default_rng(44)
    seqs = [rng.integers(0, 3, size=5) for _ in range(8)]
    weights = [int(w) for w in rng.integers(1, 6, size=8)]
    init = initialize_model(2, 3, 11)
    cfg = TrainingConfig(iterations=15)
    base = weighted_em_train(
        init, ClusterTable(Dataset(seqs), weights), cfg
    )
    perm = rng.permutation(8)
    shuffled = weighted_em_train(
        init,
        ClusterTable(Dataset([seqs[i] for i in perm]), [weights[i] for i in perm]),
        cfg,
    )
    assert np.abs(base.final_model.pi - shuffled.final_model.pi).max() < 1e-10
    assert np.abs(base.final_model.a - shuffled.final_model.a).max() < 1e-10
    assert np.abs(base.final_model.b - shuffled.final_model.b).max() < 1e-10


def test_zero_occupancy_rows_carried_over():
    init = make(
        [1.0, 0.0],
        [[1.0, 0.0], [0.3, 0.7]],
        [[0.5, 0.5], [0.2, 0.8]],
    )
    data = Dataset([np.array([0, 1, 0])])
    trace = em_train(init, data, TrainingConfig(iterations=2))
    assert any("state 1" in w for w in trace.warnings)
    a_note = "has zero expected transition count; A row carried over"
    b_note = "has zero expected occupancy; B row carried over"
    assert trace.warnings == [
        f"iteration {it}: state 1 {note}" for it in (1, 2) for note in (a_note, b_note)
    ]
    assert trace.final_model.a[1].tolist() == [0.3, 0.7]
    assert trace.final_model.b[1].tolist() == [0.2, 0.8]
    assert validate_model(trace.final_model) == []

    # a length-1 sequence has no transitions, so state 0 carries over its A
    # row only: notes run by state, each state's A note before its B note
    init = make(
        [1.0, 0.0, 0.0],
        [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.4]],
        [[0.5, 0.5], [0.2, 0.8], [0.5, 0.5]],
    )
    trace = em_train(init, Dataset([np.array([0])]), TrainingConfig(iterations=1))
    assert trace.warnings == [
        f"iteration 1: state {i} {note}"
        for i, note in [(0, a_note), (1, a_note), (1, b_note), (2, a_note), (2, b_note)]
    ]
    assert trace.final_model.a.tolist() == init.a.tolist()


def test_ascent_and_stochasticity_every_iteration():
    rng = np.random.default_rng(45)
    for trial in range(4):
        gen = initialize_model(3, 5, 100 + trial)
        data = sample_sequences(gen, count=30, length=6, seed=trial)
        init = initialize_model(3, 5, 200 + trial)
        seen = []

        def record(it, m, ll):
            seen.append(ll)
            assert validate_model(m) == []
            assert abs(m.pi.sum() - 1.0) < 1e-12
            assert np.abs(m.a.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(m.b.sum(axis=1) - 1.0).max() < 1e-12

        trace = em_train(init, data, TrainingConfig(iterations=25), on_iteration=record)
        lls = trace.per_iteration_log_likelihood
        assert lls == seen
        assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))

        table = build_clusters(data, distance="dtw")
        wtrace = weighted_em_train(init, table, TrainingConfig(iterations=25))
        wlls = wtrace.per_iteration_log_likelihood
        assert all(b - a >= -1e-9 for a, b in zip(wlls, wlls[1:]))


def test_fixed_point_proximity():
    model = _bundled_bench_model()
    data = sample_sequences(model, count=10000, length=5, seed=3)
    table = build_clusters(data, distance="euclidean")
    trace = weighted_em_train(model, table, TrainingConfig(iterations=50))
    final = trace.final_model
    assert np.abs(final.pi - model.pi).max() < 0.05
    assert np.abs(final.a - model.a).max() < 0.05
    assert np.abs(final.b - model.b).max() < 0.05


def test_early_stop():
    rng = np.random.default_rng(46)
    seqs = [rng.integers(0, 3, size=5) for _ in range(10)]
    init = initialize_model(2, 3, 5)
    trace = em_train(
        init, Dataset(seqs), TrainingConfig(iterations=200, ll_tolerance=1e-3)
    )
    assert len(trace.per_iteration_log_likelihood) < 200
    lls = trace.per_iteration_log_likelihood
    assert lls[-1] - lls[-2] < 1e-3
    assert all(b - a >= 1e-3 for a, b in zip(lls[:-2], lls[1:-1]))
    full = em_train(init, Dataset(seqs), TrainingConfig(iterations=200))
    assert len(full.per_iteration_log_likelihood) == 200


def test_impossible_sequence_names_index_and_iteration():
    init = make([1.0], [[1.0]], [[1.0, 0.0]])
    data = Dataset([np.array([0, 0]), np.array([0, 1])])
    with pytest.raises(ImpossibleSequenceError, match="sequence 2.*iteration 1"):
        em_train(init, data, TrainingConfig(iterations=3))


def test_symbol_range_checked_upfront():
    init = initialize_model(2, 3, 0)
    with pytest.raises(ValueError, match="sequence 1 uses symbols outside"):
        em_train(init, Dataset([np.array([0, 5])]), TrainingConfig(iterations=1))
    # the first bad sequence in input order is named, whatever its length group
    mixed = [np.array([0, 1]), np.array([0, 1, 2]), np.array([2, 1, 0]), np.array([0, 3]),
             np.array([3])]
    with pytest.raises(ValueError, match="^sequence 4 uses symbols outside"):
        em_train(init, Dataset(mixed), TrainingConfig(iterations=1))
    # an empty sequence or a negative symbol is refused where the Dataset is built
    with pytest.raises(ValueError, match="^sequence 2 is empty$"):
        em_train(init, Dataset([mixed[0], [], mixed[3]]), TrainingConfig(iterations=1))
    with pytest.raises(ValueError, match="^sequence 4 has a negative symbol$"):
        em_train(init, Dataset(mixed[:3] + [[0, -1], []]), TrainingConfig(iterations=1))


def test_offsets_of_no_sequence_refused_before_training():
    # from_flat once adopted these offsets, a sequence of length -1, and
    # weighted EM trained on them into a pi summing to 0.667
    init = initialize_model(2, 3, 0)
    config = TrainingConfig(iterations=1)
    trainers = (lambda data: em_train(init, data, config),
                lambda data: weighted_em_train(init, ClusterTable(data, [1, 1, 1]), config))
    with mock.patch.object(training_module, "_run_em") as run:
        for train in trainers:
            with pytest.raises(ValueError, match=r"^sequence 2 spans offsets 2 to 1, but offsets "
                                                 r"must rise from 0 to len\(values\) = 3$"):
                train(Dataset.from_flat([0, 1, 2], [0, 2, 1, 3]))
    run.assert_not_called()


def test_config_validation():
    init = initialize_model(1, 2, 0)
    data = Dataset([np.array([0, 1])])
    with pytest.raises(ValueError, match="iterations"):
        em_train(init, data, TrainingConfig(iterations=0))
    with pytest.raises(ValueError, match="ll_tolerance"):
        em_train(init, data, TrainingConfig(iterations=1, ll_tolerance=-1.0))
    with pytest.raises(ValueError, match="^ll_tolerance must be >= 0, got nan$"):
        em_train(init, data, TrainingConfig(iterations=1, ll_tolerance=math.nan))
    trace = em_train(init, data, TrainingConfig(iterations=3, ll_tolerance=math.inf))
    assert len(trace.per_iteration_log_likelihood) == 2
    # no sequence: refused where the Dataset is built
    with pytest.raises(ValueError, match="^sequence 1 is missing$"):
        weighted_em_train(init, ClusterTable(Dataset([]), []), TrainingConfig(iterations=1))
    with pytest.raises(ValueError, match="^sequence 1 is missing$"):
        em_train(init, Dataset([]), TrainingConfig(iterations=1))


def test_trace_timing_and_csv(tmp_path):
    rng = np.random.default_rng(47)
    seqs = [rng.integers(0, 3, size=5) for _ in range(5)]
    init = initialize_model(2, 3, 6)
    trace = em_train(init, Dataset(seqs), TrainingConfig(iterations=4))
    assert len(trace.per_iteration_seconds) == 4
    assert all(
        b >= a for a, b in zip(trace.per_iteration_seconds, trace.per_iteration_seconds[1:])
    )
    assert trace.wall_time_seconds >= trace.per_iteration_seconds[-1]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,log_likelihood,cumulative_seconds"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == i
        assert float(fields[1]) == trace.per_iteration_log_likelihood[i - 1]
