"""Scaled forward-backward recursions and Viterbi decoding.

The forward pass normalizes each alpha row to sum 1 and keeps the per-step
scaling coefficients c_t (reciprocals of the raw row sums), so the sequence
log-likelihood is recovered exactly as -sum(log c_t) and no underflow can
occur at any sequence length (Rabiner 1989, section V.A). The backward pass
reuses the same coefficients.

Training, scoring and decoding all run on packed blocks, in the layout of
PyTorch's `pack_padded_sequence`. `length_blocks` sorts a Dataset's
sequences longest first (stably, so a single-length corpus keeps input
order), cuts that order into blocks of a capped number of padded
sequence-steps (BLOCK_STEPS for training, SCORE_STEPS for scoring and
decoding), and gathers each block from the flat buffer as a right-padded
(B, T) array with its B lengths. Since the rows are sorted, the sequences
still running at step t are a prefix of the block, and every recursion
works on that prefix only. `_forward_block` runs the scaled forward pass,
two batched matmuls per time step (the transition and the row sums).
`estep_block` keeps the whole (T, B, N) alpha and adds the backward pass
and the block's weighted expected counts, taken over the valid steps only
and never building a per-sequence xi. `score_block` runs it with no
history, keeping only the coefficients, and turns them into one
log-likelihood per sequence. `viterbi_block` runs the max-product
recursion with one-byte back-pointers. Neither holds a (T, B, N) float
array, so their blocks can be 8 times the size of training's.
`likelihood` and `viterbi` are the one-sequence case of `score_block` and
`viterbi_block`. The tests keep a per-sequence forward-backward that
returns every posterior, and check the block functions against it.

A sequence gets the same score and path, bit for bit, whatever block it
sits in, at whatever row and beside whatever lengths: see `score_block`
and `viterbi_block`.

Model validity is the caller's precondition (see model.validate_model);
symbol range is checked here because it is an indexing hazard.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Dataset, HmmModel

# Cap on the padded size B * T of a training block, and on the rows of any
# block. Larger blocks mean fewer Python-level steps but larger (T, B, N)
# temporaries; at 4096 a 10,000 x 5 corpus runs in 13 blocks and peak memory
# stays within a few percent of a per-sequence loop.
BLOCK_STEPS = 4096
# Cap on the padded size of a scoring or decoding block. A training step
# holds at least 3 * 8 * N bytes at the E-step's peak: its packed alpha,
# emissions and beta. A scoring step holds its int64 symbol (8 bytes) and
# either its c_t (8) or its back-pointer (N bytes below 257 states) and
# path entry (8): at most 16 + N bytes. At 8 states that is an eighth of
# a training step, so a scoring block 8 times as long holds no more, and
# a 500 x 60 file runs in one.
SCORE_STEPS = 8 * BLOCK_STEPS


class ImpossibleSequenceError(ValueError):
    """The sequence has probability exactly 0 under the model.

    When raised by `estep_block`, `rows` holds the block rows of every
    impossible sequence; otherwise it is None.
    """

    def __init__(self, message: str = "impossible sequence", rows=None):
        super().__init__(message)
        self.rows = rows


def _check_symbols(model: HmmModel, obs: np.ndarray) -> None:
    if obs.size == 0:
        raise ValueError("empty sequence")
    lo, hi = int(obs.min()), int(obs.max())
    if lo < 0 or hi >= model.n_symbols:
        raise ValueError(
            f"symbol out of range: sequence uses {lo}..{hi}, "
            f"model has {model.n_symbols} symbols"
        )


def length_blocks(data: Dataset, n_symbols, steps=None):
    """Packed blocks of a Dataset as (rows, obs, lengths): the input
    positions of the block's B sequences, their symbols right-padded to
    (B, T), and their B lengths.

    Sequences are sorted longest first, stably, so equal lengths keep
    input order, and the sorted order is cut into blocks of at most
    `steps` padded sequence-steps (BLOCK_STEPS when None; a longer
    sequence gets a block of its own) and at most BLOCK_STEPS rows, which
    bounds the per-row state of scoring and decoding, a few (N,) or
    (N, N) arrays per row, at short lengths. A row is padded with copies
    of its last symbol. Rejects the first empty sequence or sequence with
    a symbol outside [0, n_symbols), by its 1-based position.
    """
    steps = BLOCK_STEPS if steps is None else steps
    values, offsets, lengths = data.values, data.offsets, data.lengths
    faults = []  # (position, message) of the first bad sequence of each kind
    if (lengths == 0).any():
        faults.append((int(np.argmax(lengths == 0)), "is empty"))
    bad = (values < 0) | (values >= n_symbols)
    if bad.any():
        # values lie in input order, so the first bad symbol is in the first bad sequence
        idx = int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
        faults.append((idx, f"uses symbols outside [0, {n_symbols})"))
    if faults:
        idx, message = min(faults)
        raise ValueError(f"sequence {idx + 1} {message}")

    order = np.argsort(-lengths, kind="stable")
    blocks = []
    lo = 0
    while lo < len(order):
        t_len = int(lengths[order[lo]])
        rows = order[lo : lo + max(1, min(steps // t_len, BLOCK_STEPS))]
        lens = lengths[rows]
        at = np.minimum(np.arange(t_len), lens[:, None] - 1)
        at += offsets[rows][:, None]
        blocks.append((rows, values[at], lens))
        lo += len(rows)
    return blocks


def _batch_sizes(obs: np.ndarray, lengths) -> list[int]:
    """[B_0, ..., B_{T-1}, 0]: how many rows of a block obs (B, T) are still
    running at each step. `lengths` must run longest first, from T down to
    at least 1; None means every row has length T."""
    b_len, t_len = obs.shape
    if lengths is None:
        return [b_len] * t_len + [0]
    lengths = np.asarray(lengths)
    if (
        lengths.shape != (b_len,)
        or lengths[0] != t_len
        or lengths[-1] < 1
        or (lengths[1:] > lengths[:-1]).any()
    ):
        raise ValueError(
            f"lengths must run longest first from {t_len} down to at least 1, "
            f"one per row of a ({b_len}, {t_len}) block"
        )
    if lengths[-1] == t_len:
        return [b_len] * t_len + [0]
    # B_t counts the lengths > t, which searchsorted finds in the ascending -lengths
    return np.searchsorted(-lengths, -np.arange(t_len + 1)).tolist()


def _forward_block(model: HmmModel, obs: np.ndarray, sizes: list[int], history: bool = True):
    """Scaled forward pass over a block obs (B, T) of int64 symbols, with
    `sizes` from `_batch_sizes`. Each step gathers its own emission
    probabilities, so the block holds no padded (T, B, N) emission array.

    With history, as training needs it, returns the emissions of the valid
    (t, b) steps in `pack_padded_sequence` order, (sum_t B_t, N), which is
    where each step gathers them; the normalized alpha, laid out (T, B, N)
    so that each step works on one contiguous (B_t, N) prefix; and the
    coefficients c (T, B). Without, as scoring needs it, alpha lives in a
    two-row ring (2, B, N), each step's emissions in one (B, N) buffer,
    and only c comes back, as a (T, B) view of a (B, T) array; the block
    then holds no (T, B, N) array at all. Entries of alpha and c past a
    row's length are padding. A row with probability 0 gets a non-finite
    c from the step where it dies.

    Each step's row sums come from a matmul with an all-ones (N, N)
    matrix, which puts a row's sum in every column with bits that depend
    on that row alone, as the transition matmul's do; a BLAS gemv
    (x @ ones(N)) rounds a row by the row count and the row's offset.
    numpy sends a one-row matmul down another BLAS path than a multi-row
    one, so in a block of two or more rows a step runs on at least two;
    the second is padding once its own sequence has ended. Both modes do
    the same arithmetic, so they give the same c bits.
    """
    _check_symbols(model, obs)
    a = model.a
    b_t = np.ascontiguousarray(model.b.T)
    b_len, t_len = obs.shape
    if history:
        # Step t's symbols are steps[t, :k], copied into contiguous rows,
        # which makes the per-step gathers cost about what one gather of the
        # whole block does; on scoring's larger blocks the copy costs more
        # than it saves. Its emissions go to rows first[t]:first[t] + k of
        # the packed array. A padding row run beside a lone running row
        # writes one row on, into the next step's first row, which that step
        # then overwrites, or into the one spare row at the end.
        steps = np.ascontiguousarray(obs.T)
        first = list(itertools.accumulate(sizes[:-1], initial=0))
        alpha = np.empty((t_len, b_len, a.shape[0]))  # step t in alpha[t]
        c = np.empty((t_len, b_len))
        et = np.empty((first[-1] + 1, a.shape[0]))
    else:
        steps = obs.T
        first = [0] * (t_len + 1)
        alpha = np.empty((2, b_len, a.shape[0]))  # step t in alpha[t % 2]
        c = np.empty(obs.shape).T
        et = np.empty_like(alpha[0])
    ones = np.ones_like(a)
    sums = np.empty_like(alpha[0])
    floor = min(2, b_len)
    rows = None
    with np.errstate(divide="ignore", invalid="ignore"):
        # each step fills alpha[t] in place: f = (alpha[t-1] @ a) * b(o_t), c_t = 1 / sum f
        for t in range(t_len):
            k = max(sizes[t], floor)
            if k != rows:  # views of the running prefix, made again only when it shrinks
                rows = k
                al, ck, sk = alpha[:, :k], c[:, :k, None], sums[:k]
                sk0 = sk[:, :1]
            at = al[t % len(al)]
            # symbols are checked; "clip" lets take write straight into out
            ek = b_t.take(steps[t, :k], axis=0, out=et[first[t] : first[t] + k], mode="clip")
            if t == 0:
                np.multiply(model.pi, ek, out=at)
            else:
                np.matmul(al[(t - 1) % len(al)], a, out=at)
                at *= ek
            np.matmul(at, ones, out=sk)
            np.divide(1.0, sk0, out=ck[t])
            at *= ck[t]
    return (et[:-1], alpha, c) if history else c


def _length_runs(sizes: list[int]):
    """(lo, hi, T) for each run of rows [lo, hi) of one length T in a block,
    from its `_batch_sizes`: the rows of length T are [B_T, B_{T-1})."""
    return [(sizes[t], sizes[t - 1], t) for t in range(len(sizes) - 1, 0, -1)
            if sizes[t] < sizes[t - 1]]


def estep_block(
    model: HmmModel,
    obs: np.ndarray,
    w: np.ndarray,
    pi_num: np.ndarray,
    a_num: np.ndarray,
    b_num_mt: np.ndarray,
    lengths=None,
) -> float:
    """Add the weighted expected counts of a block of sequences in place.

    obs is (B, T), B sequences right-padded to the longest, with `lengths`
    as for `score_block`; w holds their B weights. Adds
    sum_b w_b gamma_1^b to pi_num (N,), sum_b w_b sum_t xi_t^b to a_num
    (N, N) and sum_b w_b sum_{t: o_t=k} gamma_t^b to b_num_mt[k] (M, N),
    and returns sum_b w_b log P(obs_b). Each xi_t is normalized by its own
    sum, but is only ever summed over t and b, so no (B, T, N, N) array is
    made.

    The forward pass runs on the padded block and gathers the emissions
    straight into `pack_padded_sequence` order, valid (t, b) steps only;
    its alpha is then gathered once into that order, where the backward
    pass and the counts work. A block of one length is in that order
    already and needs no gather.
    """
    obs = np.asarray(obs, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    sizes = _batch_sizes(obs, lengths)
    bt, alpha, c = _forward_block(model, obs, sizes)
    b_len, t_len = obs.shape
    n = model.n_states
    a = model.a
    ones = np.ones(n)
    ll = np.empty(b_len)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, t_end in _length_runs(sizes):
            ll[lo:hi] = -np.log(c[:t_end, lo:hi]).sum(axis=0)
    dead = ~np.isfinite(ll)
    if dead.any():
        raise ImpossibleSequenceError(rows=np.flatnonzero(dead))

    # From here on every array holds the valid (t, b) entries only, t-major
    # as in pack_padded_sequence: step t's B_t rows are [off[t], off[t + 1]).
    one_length = sizes[t_len - 1] == b_len  # then the padded alpha is packed already
    valid = np.s_[:] if one_length else np.flatnonzero(np.arange(t_len)[:, None] < lengths)
    alpha = alpha.reshape(-1, n)[valid]
    off = list(itertools.accumulate(sizes, initial=0))

    beta = np.empty_like(bt)
    beta[off[t_len - 1] :] = 1.0
    for t in range(t_len - 2, -1, -1):
        k, nxt = sizes[t + 1], np.s_[off[t + 1] : off[t + 2]]
        beta[off[t] : off[t] + k] = ((bt[nxt] * beta[nxt]) @ a.T) * c[t + 1, :k, None]
        if k < sizes[t]:  # rows whose last step is t
            beta[off[t] + k : off[t + 1]] = 1.0

    # Each packed array is reused in place or dropped as soon as it is used
    # up, so that no more than three are alive at once.
    v = bt[b_len:]  # b(o_t) beta_t for t >= 1, in place: bt is not read again
    v *= beta[b_len:]
    del bt
    gamma = beta  # alpha * beta, in place: beta is not read again
    gamma *= alpha
    del beta
    wp = np.repeat(w[None], t_len, axis=0).reshape(-1)[valid]
    gamma *= (wp / (gamma @ ones))[:, None]  # weighted posteriors
    pi_num += gamma[:b_len].sum(axis=0)
    symbols = obs.T.reshape(-1)[valid]
    for j in range(n):
        b_num_mt[:, j] += np.bincount(symbols, weights=gamma[:, j], minlength=model.n_symbols)
    del gamma

    if t_len > 1:
        # xi_t(i, j) = alpha_{t-1}(i) a_ij v_t(j) / norm_t, with alpha_{t-1}
        # taken at the same b: the entry off[t - 1] + b of each off[t] + b
        if one_length:
            prev = alpha[:-b_len]
        else:
            prev = alpha[np.arange(b_len, len(alpha)) - np.repeat(sizes[:-2], sizes[1:-1])]
        del alpha
        f = prev @ a
        f *= v
        prev *= (wp[b_len:] / (f @ ones))[:, None]
        a_num += a * (prev.T @ v)
    return float(w @ ll)


def score_block(model: HmmModel, obs: np.ndarray, lengths=None) -> np.ndarray:
    """log P(obs_b | model) for each row of a block obs (B, T), or -inf
    where the row has probability 0.

    `lengths` gives each row's length, longest first, from T down; a row
    is right-padded past its length with any in-range symbols. None means
    every row has length T.

    A row gets the same bits whatever block it sits in. Each step's
    matmuls give a row bits that depend on that row alone (see
    `_forward_block`); a lone row runs as two copies, so that every
    matmul takes the multi-row BLAS path; and each row's -sum_t log c_t
    is summed along a contiguous run of exactly its own steps, the order
    numpy uses for a 1-D array, where summing the (T, B) columns would use
    another order for one row than for several.
    """
    obs = np.asarray(obs, dtype=np.int64)
    lone = obs.shape[0] == 1
    if lone:
        obs = np.repeat(obs, 2, axis=0)
        lengths = None if lengths is None else np.repeat(lengths, 2)
    sizes = _batch_sizes(obs, lengths)
    ct = _forward_block(model, obs, sizes, history=False).T  # (B, T), contiguous
    ll = np.empty(obs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(ct, out=ct)
        for lo, hi, t_end in _length_runs(sizes):
            ll[lo:hi] = -ct[lo:hi, :t_end].sum(axis=1) + 0.0  # + 0.0: no -0.0
    ll[~np.isfinite(ll)] = -np.inf
    return ll[:1] if lone else ll


def viterbi_block(model: HmmModel, obs: np.ndarray, lengths=None):
    """Most probable state path and its joint log-probability for each row
    of a block obs (B, T), with `lengths` as for `score_block`: paths
    (B, T) and log_probs (B,), where log_probs is -inf for a row with
    probability 0 and a path holds 0 past its row's length.

    Ties at every argmax resolve to the lowest state index, which makes each
    path the one minimizing (q_T, ..., q_1) lexicographically among all
    maximizers. The recursion only adds and takes maxima, so a row's result
    does not depend on the rest of the block.

    The block is laid out state-major, with the rows along the last,
    contiguous axis, so that each step is a few numpy calls over the whole
    (N, N, B_t) prefix. Back-pointers take the smallest unsigned type that
    holds a state index, one byte below 257 states, and each step gathers
    its own log-emissions, so the block holds no (T, B, N) float array.
    """
    obs = np.asarray(obs, dtype=np.int64)
    _check_symbols(model, obs)
    b_len, t_len = obs.shape
    n = model.n_states
    sizes = _batch_sizes(obs, lengths)

    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_a = np.log(model.a)[:, :, None]  # (N_i, N_j, 1)
        log_b = np.log(model.b)

    index = np.min_scalar_type(n - 1)
    psi = np.empty((t_len, n, b_len), dtype=index)  # psi[t, j, b]: best i before j
    # rank[i] = N - 1 - i, so that among the maximizing i the lowest ranks highest
    rank = np.arange(n - 1, -1, -1, dtype=index)[:, None, None]
    scores = np.empty((n, n, b_len))
    hits = np.empty(scores.shape, dtype=bool)
    ranked = np.empty(scores.shape, dtype=index)
    best = np.empty((n, b_len))
    delta = log_pi[:, None] + log_b.take(obs[:, 0], axis=1)  # (N, B)
    rows, dk, sk, hk, rk, bk = b_len, delta, scores, hits, ranked, best
    for t in range(1, t_len):
        # scores[i, j, b]: best path ending i -> j. Rows that have ended
        # keep their last delta.
        if sizes[t] != rows:  # views of the running prefix, made again only when it shrinks
            rows = sizes[t]
            dk, sk, hk, rk, bk = (
                delta[:, :rows], scores[..., :rows], hits[..., :rows], ranked[..., :rows],
                best[:, :rows],
            )
        np.add(dk[:, None, :], log_a, out=sk)
        np.maximum.reduce(sk, axis=0, out=bk)
        np.equal(sk, bk, out=hk)
        np.multiply(hk, rank, out=rk)
        pt = psi[t, :, :rows]
        np.maximum.reduce(rk, axis=0, out=pt)
        np.subtract(n - 1, pt, out=pt)  # the lowest maximizing i
        np.add(bk, log_b.take(obs[:rows, t], axis=1), out=dk)
    del scores, hits, ranked, sk, hk, rk  # freed before the paths are made

    last = delta.argmax(axis=0)
    paths = np.zeros((b_len, t_len), dtype=np.int64)
    rows = np.arange(b_len)
    for t in range(t_len - 1, -1, -1):
        k = sizes[t]
        if sizes[t + 1] < k:  # rows whose last step is t
            paths[sizes[t + 1] : k, t] = last[sizes[t + 1] : k]
        if t:
            paths[:k, t - 1] = psi[t, paths[:k, t], rows[:k]]
    return paths, delta.max(axis=0) + 0.0  # + 0.0: no -0.0


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
