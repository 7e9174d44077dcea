"""Scaled forward-backward recursions and Viterbi decoding.

The forward pass normalizes each alpha row to sum 1 and keeps the per-step
scaling coefficients c_t (reciprocals of the raw row sums), so the sequence
log-likelihood is recovered exactly as -sum(log c_t) and no underflow can
occur at any sequence length (Rabiner 1989, section V.A). The backward pass
reuses the same coefficients.

Training, scoring and decoding all run on blocks of equal-length
sequences. `length_blocks` groups a Dataset's sequences by length, in
order of first appearance, gathers each group from the flat buffer with
one fancy index, and cuts it into blocks of at most BLOCK_STEPS
sequence-steps. `_forward_block` runs the scaled forward pass on a block,
one batched matmul per time step; `score_block` turns it into one
log-likelihood per sequence, and `estep_block` adds the backward pass and
the block's weighted expected counts, never building a per-sequence xi.
`viterbi_block` runs the max-product recursion on a block. `likelihood`
and `viterbi` are the one-sequence case of `score_block` and
`viterbi_block`. `forward_backward` is the per-sequence reference that
returns every posterior; the tests check the block functions against it.

A sequence gets the same score and path, bit for bit, whatever block it
sits in: see `score_block` and `viterbi_block`.

Model validity is the caller's precondition (see model.validate_model);
symbol range is checked here because it is an indexing hazard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, HmmModel

# Cap on B * T per block. Larger blocks mean fewer Python-level steps but
# larger (T, B, N) temporaries; at 4096 a 10,000 x 5 corpus runs in 13
# blocks and peak memory stays within a few percent of a per-sequence loop.
BLOCK_STEPS = 4096


class ImpossibleSequenceError(ValueError):
    """The sequence has probability exactly 0 under the model.

    When raised by `estep_block`, `row` is the block row of the first
    impossible sequence; otherwise it is None.
    """

    def __init__(self, message: str = "impossible sequence", row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ForwardBackwardResult:
    """Posteriors and likelihood for one sequence.

    gamma[t, i] is the posterior probability of being in state i at time t;
    xi[t, i, j] the posterior of the i->j transition between times t and
    t+1 (empty when T == 1). scaling holds the per-step coefficients c_t
    with log_likelihood == -sum(log(scaling)).
    """

    log_likelihood: float
    gamma: np.ndarray
    xi: np.ndarray
    scaling: np.ndarray


def _check_symbols(model: HmmModel, obs: np.ndarray) -> None:
    if obs.size == 0:
        raise ValueError("empty sequence")
    lo, hi = int(obs.min()), int(obs.max())
    if lo < 0 or hi >= model.n_symbols:
        raise ValueError(
            f"symbol out of range: sequence uses {lo}..{hi}, "
            f"model has {model.n_symbols} symbols"
        )


def length_blocks(data: Dataset, n_symbols):
    """Blocks of equal-length sequences of a Dataset as (rows, obs): the
    input positions of the block's sequences (B,) and their symbols (B, T),
    gathered from the flat buffer.

    Length groups come in order of first appearance, input order inside a
    group, and each group is cut into blocks of at most BLOCK_STEPS
    sequence-steps. Rejects the first empty sequence or sequence with a
    symbol outside [0, n_symbols), by its 1-based position.
    """
    stacked = []
    faults = []  # (position, message) of the first bad sequence per group
    for t_len, members in data.length_groups():
        if t_len == 0:
            faults.append((members[0], "is empty"))
            continue
        obs = data.rows(members, t_len)
        if obs.min() < 0 or obs.max() >= n_symbols:
            bad = (obs.min(axis=1) < 0) | (obs.max(axis=1) >= n_symbols)
            faults.append(
                (members[int(np.argmax(bad))], f"uses symbols outside [0, {n_symbols})")
            )
        stacked.append((members, obs))
    if faults:
        idx, message = min(faults)
        raise ValueError(f"sequence {idx + 1} {message}")

    blocks = []
    for members, obs in stacked:
        size = max(1, BLOCK_STEPS // obs.shape[1])
        for lo in range(0, len(members), size):
            blocks.append((members[lo : lo + size], obs[lo : lo + size]))
    return blocks


def _forward_block(model: HmmModel, obs: np.ndarray):
    """Scaled forward pass over a block obs (B, T) of int64 symbols.

    Returns the emission probabilities bt and the normalized alpha, both
    laid out (T, B, N) so that each step works on one contiguous (B, N)
    slice, and the coefficients c (T, B). A row with probability 0 gets a
    non-finite c from the step where it dies.
    """
    _check_symbols(model, obs)
    t_len, n = obs.shape[1], model.n_states
    a = model.a
    bt = np.take(np.ascontiguousarray(model.b.T), obs.T, axis=0)
    ones = np.ones(n)  # x @ ones sums the last axis, faster than x.sum(-1) at small N

    alpha = np.empty_like(bt)
    c = np.empty(obs.T.shape)
    c_col = c[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # each step fills alpha[t] in place: f = (alpha[t-1] @ a) * b(o_t), c_t = 1 / sum f
        for t in range(t_len):
            if t == 0:
                np.multiply(model.pi, bt[0], out=alpha[0])
            else:
                np.matmul(alpha[t - 1], a, out=alpha[t])
                alpha[t] *= bt[t]
            np.divide(1.0, alpha[t] @ ones, out=c[t])
            alpha[t] *= c_col[t]
    return bt, alpha, c


def forward_backward(model: HmmModel, seq) -> ForwardBackwardResult:
    """Posterior state and transition distributions for one sequence."""
    obs = np.asarray(seq, dtype=np.int64)
    _check_symbols(model, obs)
    bt = model.b[:, obs].T  # (T, N) emission probabilities per step
    t_len = obs.shape[0]
    n = model.n_states

    alpha = np.empty((t_len, n))
    c = np.empty(t_len)
    for t in range(t_len):
        f = model.pi * bt[0] if t == 0 else (alpha[t - 1] @ model.a) * bt[t]
        s = f.sum()
        if s == 0.0:
            raise ImpossibleSequenceError("impossible sequence")
        c[t] = 1.0 / s
        alpha[t] = f * c[t]

    beta = np.empty((t_len, n))
    beta[t_len - 1] = 1.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = (model.a @ (bt[t + 1] * beta[t + 1])) * c[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    if t_len > 1:
        xi = alpha[:-1, :, None] * model.a[None, :, :] * (bt[1:] * beta[1:])[:, None, :]
        xi /= xi.sum(axis=(1, 2), keepdims=True)
    else:
        xi = np.empty((0, n, n))

    log_likelihood = float(-np.log(c).sum()) + 0.0  # avoid -0.0
    return ForwardBackwardResult(log_likelihood, gamma, xi, c)


def estep_block(
    model: HmmModel,
    obs: np.ndarray,
    w: np.ndarray,
    pi_num: np.ndarray,
    a_num: np.ndarray,
    b_num_mt: np.ndarray,
) -> float:
    """Add the weighted expected counts of a block of sequences in place.

    obs is (B, T), B sequences of one length T; w holds their B weights.
    Adds sum_b w_b gamma_1^b to pi_num (N,), sum_b w_b sum_t xi_t^b to
    a_num (N, N) and sum_b w_b sum_{t: o_t=k} gamma_t^b to b_num_mt[k]
    (M, N), and returns sum_b w_b log P(obs_b). Each xi_t is normalized by
    its own sum, as in `forward_backward`, but is only ever summed over t
    and b, so no (B, T, N, N) array is made.
    """
    obs = np.asarray(obs, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    bt, alpha, c = _forward_block(model, obs)
    t_len, n = obs.shape[1], model.n_states
    a = model.a
    ones = np.ones(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = -np.log(c).sum(axis=0)
    dead = ~np.isfinite(ll)
    if dead.any():
        raise ImpossibleSequenceError(row=int(np.argmax(dead)))

    beta = np.empty_like(bt)
    beta[t_len - 1] = 1.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = ((bt[t + 1] * beta[t + 1]) @ a.T) * c[t + 1][:, None]

    gamma = alpha * beta
    gamma *= (w / (gamma @ ones))[:, :, None]  # weighted posteriors
    pi_num += gamma[0].sum(axis=0)
    symbols = obs.T.ravel()
    for j in range(n):
        b_num_mt[:, j] += np.bincount(
            symbols, weights=gamma[:, :, j].ravel(), minlength=model.n_symbols
        )

    if t_len > 1:
        # xi_t(i, j) = alpha_{t-1}(i) a_ij v_t(j) / norm_t, v_t = b(o_t) beta_t
        v = bt[1:] * beta[1:]
        norm = ((alpha[:-1] @ a) * v) @ ones
        left = alpha[:-1] * (w / norm)[:, :, None]
        a_num += a * (left.reshape(-1, n).T @ v.reshape(-1, n))
    return float(w @ ll)


def score_block(model: HmmModel, obs: np.ndarray) -> np.ndarray:
    """log P(obs_b | model) for each row of a block obs (B, T), or -inf
    where the row has probability 0.

    A row gets the same bits whatever block it sits in. numpy sends a
    one-row matmul down another BLAS path than a multi-row one, so a lone
    row runs as two copies; and each row's -sum_t log c_t is summed along a
    contiguous row, the order numpy uses for a 1-D array, where summing the
    (T, B) columns would use another order for B == 1 than for B > 1.
    """
    obs = np.asarray(obs, dtype=np.int64)
    lone = obs.shape[0] == 1
    if lone:
        obs = np.repeat(obs, 2, axis=0)
    _, _, c = _forward_block(model, obs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = -np.log(np.ascontiguousarray(c.T)).sum(axis=1) + 0.0  # + 0.0: no -0.0
    ll[~np.isfinite(ll)] = -np.inf
    return ll[:1] if lone else ll


def viterbi_block(model: HmmModel, obs: np.ndarray):
    """Most probable state path and its joint log-probability for each row
    of a block obs (B, T): paths (B, T) and log_probs (B,), where log_probs
    is -inf for a row with probability 0.

    Ties at every argmax resolve to the lowest state index, which makes each
    path the one minimizing (q_T, ..., q_1) lexicographically among all
    maximizers. The recursion only adds and takes maxima, so a row's result
    does not depend on the rest of the block.
    """
    obs = np.asarray(obs, dtype=np.int64)
    _check_symbols(model, obs)
    b_len, t_len = obs.shape
    n = model.n_states

    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_at = np.log(np.ascontiguousarray(model.a.T))
        log_bt = np.take(np.log(model.b.T), obs.T, axis=0)  # (T, B, N)

    psi = np.empty((t_len, b_len, n), dtype=np.intp)
    rows_start = np.arange(b_len * n).reshape(b_len, n) * n  # flat index of scores[b, j, 0]
    delta = log_pi + log_bt[0]
    for t in range(1, t_len):
        # scores[b, j, i]: best path ending i -> j. An argmax over the last,
        # contiguous axis and a gather of its entries are much faster than
        # reductions over a middle axis or .max() over short rows.
        scores = delta[:, None, :] + log_at
        best = scores.argmax(axis=2)
        psi[t] = best
        delta = np.take(scores, rows_start + best) + log_bt[t]

    paths = np.empty((b_len, t_len), dtype=np.int64)
    paths[:, -1] = delta.argmax(axis=1)
    rows = np.arange(b_len)
    for t in range(t_len - 1, 0, -1):
        paths[:, t - 1] = psi[t, rows, paths[:, t]]
    return paths, delta.max(axis=1) + 0.0  # + 0.0: no -0.0


def likelihood(model: HmmModel, seq) -> float:
    """log P(sequence | model): the one-row case of `score_block`."""
    ll = float(score_block(model, np.asarray(seq, dtype=np.int64)[None])[0])
    if ll == -np.inf:
        raise ImpossibleSequenceError("impossible sequence")
    return ll


def viterbi(model: HmmModel, seq):
    """Most probable state path and its joint log-probability for one
    sequence: the one-row case of `viterbi_block`."""
    paths, log_probs = viterbi_block(model, np.asarray(seq, dtype=np.int64)[None])
    if log_probs[0] == -np.inf:
        raise ImpossibleSequenceError("impossible sequence")
    return paths[0], float(log_probs[0])
