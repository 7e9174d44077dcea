"""Scaled forward-backward recursions and Viterbi decoding.

The forward pass normalizes each alpha row to sum 1 and keeps the per-step
scaling coefficients c_t (reciprocals of the raw row sums), so the sequence
log-likelihood is recovered exactly as -sum(log c_t) and no underflow can
occur at any sequence length (Rabiner 1989, section V.A). The backward pass
reuses the same coefficients.

Two forms of these recursions live here. `estep_block` is the block kernel
that training uses: it runs them on a block of equal-length sequences at
once, one batched matmul per time step, and adds the block's weighted
expected counts straight from alpha and beta, never building a
per-sequence xi. `forward_backward` is the per-sequence reference that
returns every posterior; the tests check the kernel against it.
`likelihood` and `viterbi` work on one sequence each.

Model validity is the caller's precondition (see model.validate_model);
symbol range is checked here because it is an indexing hazard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HmmModel


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


def _scaled_forward(model: HmmModel, obs: np.ndarray, bt: np.ndarray):
    """Alpha rows normalized to sum 1, plus the c_t coefficients."""
    t_len = obs.shape[0]
    alpha = np.empty((t_len, model.n_states))
    c = np.empty(t_len)

    f = model.pi * bt[0]
    s = f.sum()
    if s == 0.0:
        raise ImpossibleSequenceError("impossible sequence")
    c[0] = 1.0 / s
    alpha[0] = f * c[0]
    for t in range(1, t_len):
        f = (alpha[t - 1] @ model.a) * bt[t]
        s = f.sum()
        if s == 0.0:
            raise ImpossibleSequenceError("impossible sequence")
        c[t] = 1.0 / s
        alpha[t] = f * c[t]
    return alpha, c


def forward_backward(model: HmmModel, seq) -> ForwardBackwardResult:
    """Posterior state and transition distributions for one sequence."""
    obs = np.asarray(seq, dtype=np.int64)
    _check_symbols(model, obs)
    bt = model.b[:, obs].T  # (T, N) emission probabilities per step
    t_len = obs.shape[0]
    n = model.n_states

    alpha, c = _scaled_forward(model, obs, bt)

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
    and b, so no (B, T, N, N) array is made. Arrays are laid out (T, B, N)
    so that each step works on one contiguous (B, N) slice.
    """
    obs = np.asarray(obs, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    _check_symbols(model, obs)
    t_len, n = obs.shape[1], model.n_states
    a = model.a
    # (T, B, N) emission probabilities per step
    bt = np.take(np.ascontiguousarray(model.b.T), obs.T, axis=0)
    ones = np.ones(n)  # x @ ones sums the last axis, faster than x.sum(-1) at small N

    alpha = np.empty_like(bt)
    c = np.empty(obs.T.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = model.pi * bt[0]
        c[0] = 1.0 / (f @ ones)
        alpha[0] = f * c[0][:, None]
        for t in range(1, t_len):
            f = (alpha[t - 1] @ a) * bt[t]
            c[t] = 1.0 / (f @ ones)
            alpha[t] = f * c[t][:, None]
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


def likelihood(model: HmmModel, seq) -> float:
    """log P(sequence | model), from the scaled forward pass alone."""
    obs = np.asarray(seq, dtype=np.int64)
    _check_symbols(model, obs)
    bt = model.b[:, obs].T
    _, c = _scaled_forward(model, obs, bt)
    return float(-np.log(c).sum()) + 0.0


def viterbi(model: HmmModel, seq):
    """Most probable state path and its joint log-probability.

    Ties at every argmax resolve to the lowest state index, which makes the
    returned path the one minimizing (q_T, ..., q_1) lexicographically among
    all maximizers.
    """
    obs = np.asarray(seq, dtype=np.int64)
    _check_symbols(model, obs)
    t_len = obs.shape[0]
    n = model.n_states

    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_a = np.log(model.a)
        log_bt = np.log(model.b[:, obs].T)

    delta = np.empty((t_len, n))
    psi = np.zeros((t_len, n), dtype=np.int64)
    delta[0] = log_pi + log_bt[0]
    cols = np.arange(n)
    for t in range(1, t_len):
        scores = delta[t - 1][:, None] + log_a  # scores[i, j]: best path ending i -> j
        best = np.argmax(scores, axis=0)
        psi[t] = best
        delta[t] = scores[best, cols] + log_bt[t]

    last = int(np.argmax(delta[t_len - 1]))
    log_prob = float(delta[t_len - 1, last]) + 0.0
    if log_prob == -np.inf:
        raise ImpossibleSequenceError("impossible sequence")

    path = np.empty(t_len, dtype=np.int64)
    path[t_len - 1] = last
    for t in range(t_len - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return path, log_prob
