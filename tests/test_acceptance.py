"""Acceptance suite: one test per release criterion, stated tolerances only.

Each test prints "[acceptance] criterion N: PASS|FAIL" (visible with -s).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
from oracles import dtw_path, enum_min_cost, forward_backward, run_length_collapse

from hmmaccel import (
    TrainingConfig,
    ClusterTable,
    build_clusters,
    dtw_distance,
    em_train,
    initialize_model,
    likelihood,
    sample_sequences,
    validate_model,
    viterbi,
    weighted_em_train,
)
from hmmaccel.cli import _bundled_bench_model
from hmmaccel.model import Dataset, HmmModel


@contextmanager
def reported(n):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    print(f"[acceptance] criterion {n}: PASS")


def random_model(rng, n, m):
    pi = rng.uniform(0.1, 1.0, size=n)
    a = rng.uniform(0.1, 1.0, size=(n, n))
    b = rng.uniform(0.1, 1.0, size=(n, m))
    return HmmModel(
        n, m, pi / pi.sum(), a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)
    )


def enum_likelihood(model, obs):
    total = 0.0
    for states in itertools.product(range(model.n_states), repeat=len(obs)):
        p = model.pi[states[0]] * model.b[states[0], obs[0]]
        for t in range(1, len(obs)):
            p *= model.a[states[t - 1], states[t]] * model.b[states[t], obs[t]]
        total += p
    return total


def enum_viterbi(model, obs):
    best_states = best_lp = best_key = None
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


def test_criterion_1_classical_weighted_equivalence():
    with reported(1):
        model = _bundled_bench_model()
        data = sample_sequences(model, count=10000, length=5, seed=1)
        assert len({tuple(s) for s in data.sequences}) < 100000
        table = build_clusters(data, distance="euclidean")
        init = initialize_model(model.n_states, model.n_symbols, 2)
        config = TrainingConfig(iterations=50)
        classical = em_train(init, data, config).final_model
        weighted = weighted_em_train(init, table, config).final_model
        assert np.abs(classical.pi - weighted.pi).max() <= 1e-8
        assert np.abs(classical.a - weighted.a).max() <= 1e-8
        assert np.abs(classical.b - weighted.b).max() <= 1e-8


def test_criterion_2_worked_clustering_example():
    with reported(2):
        rows = [
            [1, 2, 3, 4, 5, 6, 7],
            [1, 2, 2, 2, 2, 3, 4],
            [1, 1, 2, 3, 3, 3, 4],
            [1, 2, 2, 2, 3, 4, 4],
        ]
        data = Dataset([np.array(r) for r in rows])
        dtw_table = build_clusters(data, distance="dtw")
        assert len(dtw_table) == 2
        assert dtw_table.weights.tolist() == [1, 3]
        assert dtw_table.reps.sequences[0].tolist() == rows[0]
        assert dtw_table.reps.sequences[1].tolist() == rows[1]
        euc_table = build_clusters(data, distance="euclidean")
        assert len(euc_table) == 4
        assert euc_table.weights.tolist() == [1, 1, 1, 1]


def test_criterion_3_dtw_matches_path_enumeration():
    with reported(3):
        rng = np.random.default_rng(300)
        for _ in range(500):
            x = rng.integers(0, 3, size=int(rng.integers(1, 7))).tolist()
            y = rng.integers(0, 3, size=int(rng.integers(1, 7))).tolist()
            d = dtw_distance(x, y)
            assert d == float(enum_min_cost(x, y))
            path_cost = float(sum(abs(x[i] - y[j]) for i, j in dtw_path(x, y)[1]))
            assert path_cost == d


def test_criterion_4_zero_distance_characterization():
    with reported(4):
        rng = np.random.default_rng(400)

        def stretch(base, target_len):
            extra = target_len - len(base)
            reps = np.ones(len(base), dtype=int)
            for pos in rng.integers(0, len(base), size=extra):
                reps[pos] += 1
            return np.repeat(base, reps).tolist()

        pairs = []
        for _ in range(500):
            x = rng.integers(0, 10, size=int(rng.integers(3, 10))).tolist()
            y = rng.integers(0, 10, size=int(rng.integers(3, 10))).tolist()
            pairs.append((x, y))
        for _ in range(500):
            base = [int(rng.integers(0, 10))]
            while len(base) < int(rng.integers(2, 4)):
                nxt = int(rng.integers(0, 10))
                if nxt != base[-1]:
                    base.append(nxt)
            pairs.append(
                (
                    stretch(base, int(rng.integers(len(base), 10))),
                    stretch(base, int(rng.integers(len(base), 10))),
                )
            )

        assert len(pairs) == 1000
        failures = 0
        for x, y in pairs:
            zero = dtw_distance(x, y) == 0.0
            collapsed_equal = run_length_collapse(x) == run_length_collapse(y)
            failures += zero != collapsed_equal
        assert failures == 0


def test_criterion_5_forward_backward_and_viterbi_oracle():
    with reported(5):
        rng = np.random.default_rng(500)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            model = random_model(rng, n, m)
            t_len = int(rng.integers(1, 6))
            obs = rng.integers(0, m, size=t_len).tolist()

            ll = likelihood(model, obs)
            exact = enum_likelihood(model, obs)
            assert abs(math.exp(ll) - exact) <= 1e-12 * exact

            total = sum(
                math.exp(likelihood(model, list(o)))
                for o in itertools.product(range(m), repeat=t_len)
            )
            assert abs(total - 1.0) <= 1e-10

            path, lp = viterbi(model, obs)
            exp_path, exp_lp = enum_viterbi(model, obs)
            assert lp == exp_lp
            assert path.tolist() == exp_path


def test_criterion_6_em_ascent_and_stochasticity():
    with reported(6):
        def checked(trace_builder):
            lls = []

            def record(it, m, ll):
                lls.append(ll)
                assert validate_model(m) == []
                assert abs(m.pi.sum() - 1.0) <= 1e-12
                assert np.abs(m.a.sum(axis=1) - 1.0).max() <= 1e-12
                assert np.abs(m.b.sum(axis=1) - 1.0).max() <= 1e-12

            trace = trace_builder(record)
            assert trace.per_iteration_log_likelihood == lls
            assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))

        bundled = _bundled_bench_model()
        data = sample_sequences(bundled, count=400, length=5, seed=60)
        init = initialize_model(3, 10, 61)
        config = TrainingConfig(iterations=50)
        checked(lambda cb: em_train(init, data, config, on_iteration=cb))
        for distance in ("euclidean", "dtw"):
            table = build_clusters(data, distance=distance)
            checked(lambda cb: weighted_em_train(init, table, config, on_iteration=cb))

        rng = np.random.default_rng(62)
        for trial in range(3):
            gen = random_model(rng, int(rng.integers(2, 4)), int(rng.integers(3, 6)))
            rdata = sample_sequences(gen, count=50, length=6, seed=63 + trial)
            rinit = initialize_model(gen.n_states, gen.n_symbols, 70 + trial)
            rconfig = TrainingConfig(iterations=30)
            checked(lambda cb: em_train(rinit, rdata, rconfig, on_iteration=cb))
            rtable = build_clusters(rdata, distance="dtw")
            checked(lambda cb: weighted_em_train(rinit, rtable, rconfig, on_iteration=cb))


def test_criterion_7_training_speedup():
    with reported(7):
        model = _bundled_bench_model()
        data = sample_sequences(model, count=10000, length=5, seed=7)
        distinct = len({tuple(s) for s in data.sequences})
        assert distinct <= 200
        init = initialize_model(model.n_states, model.n_symbols, 8)
        config = TrainingConfig(iterations=50)

        # the phases take turns, and each is judged by its median, so a
        # slow spell of the host in one repeat moves neither side
        t_em, t_cluster, t_wem = [], [], []
        for _ in range(5):
            t0 = time.perf_counter()
            em_train(init, data, config)
            t_em.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            table = build_clusters(data, distance="euclidean")
            t_cluster.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            weighted_em_train(init, table, config)
            t_wem.append(time.perf_counter() - t0)

        speedup = np.median(t_em) / (np.median(t_cluster) + np.median(t_wem))
        assert speedup >= 10.0, f"speedup {speedup:.2f} below floor 10"


def test_criterion_8_warp_redundant_corpus():
    with reported(8):
        rng = np.random.default_rng(800)
        patterns = []
        seen = set()
        while len(patterns) < 25:
            p = [int(rng.integers(0, 10))]
            while len(p) < 5:
                nxt = int(rng.integers(0, 10))
                if nxt != p[-1]:
                    p.append(nxt)
            if tuple(p) not in seen:
                seen.add(tuple(p))
                patterns.append(np.array(p))

        sequences = []
        for i in range(30000):
            base = patterns[i % 25]
            reps = np.ones(5, dtype=int)
            for pos in rng.integers(0, 5, size=4):
                reps[pos] += 1
            sequences.append(np.repeat(base, reps))

        data = Dataset(sequences)
        dtw_table = build_clusters(data, distance="dtw")
        assert len(dtw_table) == 25
        assert dtw_table.total_weight == 30000
        euc_table = build_clusters(data, distance="euclidean")
        assert len(euc_table) > 25


def test_criterion_9_weight_semantics():
    with reported(9):
        rng = np.random.default_rng(900)
        for w in (2, 3, 5):
            s = rng.integers(0, 4, size=5)
            init = initialize_model(2, 4, int(w))
            config = TrainingConfig(iterations=20)
            a_params, b_params = [], []
            weighted = weighted_em_train(
                init,
                ClusterTable(Dataset([s]), [w]),
                config,
                on_iteration=lambda it, m, ll: a_params.append((m.pi, m.a, m.b)),
            )
            classical = em_train(
                init,
                Dataset([s] * w),
                config,
                on_iteration=lambda it, m, ll: b_params.append((m.pi, m.a, m.b)),
            )
            ll_pairs = zip(
                weighted.per_iteration_log_likelihood,
                classical.per_iteration_log_likelihood,
            )
            assert max(abs(x - y) for x, y in ll_pairs) <= 1e-10
            for (p1, a1, b1), (p2, a2, b2) in zip(a_params, b_params):
                assert np.abs(p1 - p2).max() <= 1e-10
                assert np.abs(a1 - a2).max() <= 1e-10
                assert np.abs(b1 - b2).max() <= 1e-10

        seqs = [rng.integers(0, 3, size=5) for _ in range(6)]
        weights = [1, 4, 2, 6, 3, 1]
        init = initialize_model(2, 3, 91)
        config = TrainingConfig(iterations=20)
        captured = {1: [], 7: []}
        for scale in (1, 7):
            table = ClusterTable(Dataset(seqs), [w * scale for w in weights])
            weighted_em_train(
                init,
                table,
                config,
                on_iteration=lambda it, m, ll, c=captured[scale]: c.append(
                    (m.pi, m.a, m.b)
                ),
            )
        for (p1, a1, b1), (p7, a7, b7) in zip(captured[1], captured[7]):
            assert np.abs(p1 - p7).max() <= 1e-12
            assert np.abs(a1 - a7).max() <= 1e-12
            assert np.abs(b1 - b7).max() <= 1e-12
