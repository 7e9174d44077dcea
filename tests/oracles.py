"""Reference block scoring and decoding that keep their whole history.

These are `score_block` and `viterbi_block` as they were before scoring
dropped its history: the forward pass keeps the (T, B, N) emission and
alpha arrays, and Viterbi keeps a (T, B, N) table of log-emissions and
`intp` back-pointers, taking each argmax over the last axis of a
(B, N_j, N_i) score array. The tests require the library's functions to
give the same bits on every row.
"""

import numpy as np

from hmmaccel.inference import _batch_sizes, _check_symbols, _length_runs


def forward_history(model, obs, sizes):
    """Scaled forward pass: bt, alpha (T, B, N) and c (T, B)."""
    _check_symbols(model, obs)
    a = model.a
    bt = np.take(np.ascontiguousarray(model.b.T), obs.T, axis=0)
    alpha = np.empty_like(bt)
    c = np.empty(obs.T.shape)
    ones = np.ones_like(a)
    sums = np.empty_like(bt[0])
    floor = min(2, obs.shape[0])
    rows = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(obs.shape[1]):
            k = max(sizes[t], floor)
            if k != rows:
                rows = k
                al, bk, ck, sk = alpha[:, :k], bt[:, :k], c[:, :k, None], sums[:k]
                sk0 = sk[:, :1]
            at = al[t]
            if t == 0:
                np.multiply(model.pi, bk[0], out=at)
            else:
                np.matmul(al[t - 1], a, out=at)
                at *= bk[t]
            np.matmul(at, ones, out=sk)
            np.divide(1.0, sk0, out=ck[t])
            at *= ck[t]
    return bt, alpha, c


def score_block_history(model, obs, lengths=None):
    """log P(obs_b | model) per row, -inf where the row is impossible."""
    obs = np.asarray(obs, dtype=np.int64)
    lone = obs.shape[0] == 1
    if lone:
        obs = np.repeat(obs, 2, axis=0)
        lengths = None if lengths is None else np.repeat(lengths, 2)
    sizes = _batch_sizes(obs, lengths)
    _, _, c = forward_history(model, obs, sizes)
    ct = np.ascontiguousarray(c.T)
    ll = np.empty(obs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, t_end in _length_runs(sizes):
            ll[lo:hi] = -np.log(ct[lo:hi, :t_end]).sum(axis=1) + 0.0
    ll[~np.isfinite(ll)] = -np.inf
    return ll[:1] if lone else ll


def viterbi_block_history(model, obs, lengths=None):
    """Best paths (B, T) and their log-probabilities (B,), lowest state on ties."""
    obs = np.asarray(obs, dtype=np.int64)
    _check_symbols(model, obs)
    b_len, t_len = obs.shape
    n = model.n_states
    sizes = _batch_sizes(obs, lengths)

    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_at = np.log(np.ascontiguousarray(model.a.T))
        log_bt = np.take(np.log(model.b.T), obs.T, axis=0)

    psi = np.empty((t_len, b_len, n), dtype=np.intp)
    rows_start = np.arange(b_len * n).reshape(b_len, n) * n
    delta = log_pi + log_bt[0]
    rows = None
    for t in range(1, t_len):
        if sizes[t] != rows:
            rows = sizes[t]
            dk, sk, bk, pk = delta[:rows], rows_start[:rows], log_bt[:, :rows], psi[:, :rows]
        scores = dk[:, None, :] + log_at
        best = scores.argmax(axis=2)
        pk[t] = best
        np.add(np.take(scores, sk + best), bk[t], out=dk)

    last = delta.argmax(axis=1)
    paths = np.zeros((b_len, t_len), dtype=np.int64)
    rows = np.arange(b_len)
    for t in range(t_len - 1, -1, -1):
        k = sizes[t]
        if sizes[t + 1] < k:
            paths[sizes[t + 1] : k, t] = last[sizes[t + 1] : k]
        if t:
            paths[:k, t - 1] = psi[t, rows[:k], paths[:k, t]]
    return paths, delta.max(axis=1) + 0.0
