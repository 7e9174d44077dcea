"""Scaled forward-backward recursions and Viterbi decoding.

The forward pass divides each step's unnormalized row f_t = (alpha_{t-1}
a) b(o_t) (f_0 = pi b(o_0)) by its sum s_t, so alpha_t = f_t / s_t sums
to 1, and takes the scaling coefficients c_t = 1 / s_t once per block,
after the loop. The sequence log-likelihood is recovered exactly as
-sum(log c_t), and no underflow can occur at any sequence length (Rabiner
1989, section V.A). The backward pass scales the emissions by the same
coefficients, once per block: beta_{T-1} = 1 and beta_t = a (c_{t+1}
b(o_{t+1}) beta_{t+1}). The scaled alpha_t carries the factor c_0 ... c_t
and beta_t the factor c_{t+1} ... c_{T-1}, whose product is 1 / P(obs), so
the posteriors need no normalizing: gamma_t = alpha_t beta_t and xi_t(i, j)
= alpha_{t-1}(i) a_ij (c_t b_j(o_t) beta_t(j)), each summing to 1 up to
rounding. Training weights both through beta's start: the backward pass
of a sequence of weight w starts at beta_{T-1} = w, and since it is
linear, every beta_t, and with it w gamma_t = alpha_t (w beta_t) and
w xi_t(i, j) = alpha_{t-1}(i) a_ij (c_t b_j(o_t) w beta_t(j)), carries the
weight.

Training, scoring and decoding all run on packed blocks, and
`length_blocks` is the one place that makes them. It checks a Dataset's
symbols against the model once, sorts its sequences longest first
(stably, so a single-length corpus keeps input order), cuts that order
into blocks that fit one byte budget, BLOCK_BYTES, in the kernel that
will run them, and gathers each block's symbols in the t-major order of
PyTorch's `pack_padded_sequence`: step t holds the symbols of the B_t sequences
still running at t. Since the rows are sorted, those are a prefix of the
block, and every recursion works on that prefix only, reading each step's
symbols as one contiguous run. `_kernel_bytes` states, beside the kernels,
the bytes each one holds per padded step and per row at N states.

`_forward_block` runs the scaled forward pass, four numpy calls per
time step in training: the transition product, the emission multiply,
the row-sum product and the normalizing divide (scoring adds the step's
emission gather and keeps its sums). `estep_block` keeps the packed alpha
and adds the backward pass, two calls per step, and the block's weighted
expected counts, all in packed order: each row's weight enters once, at
its beta's start, and xi is summed with one matmul per run of steps
whose alpha_{t-1} rows lie end to end, never building a per-sequence xi.
A block that holds a sequence of probability 0 returns a non-finite
log-likelihood before the backward pass and adds no counts;
`score_block` names its rows.
It runs in a workspace of three packed (P + 1, N) buffers that
`estep_workspace` makes once per training run: alpha, the emissions, and
the row sums that beta then overwrites. No block or iteration allocates a
packed (P, N) array; training's blocks keep that workspace within
BLOCK_BYTES. `estep_plans` also makes each block's step plan once per
run: the views into the workspace that each forward and backward step
reads and writes, so that no iteration slices the workspace step by step
(`estep_plan`; scoring runs the same loop on views made as it goes). The
per-step products are np.dot, which reaches the same dgemm as np.matmul,
with the same bits, for less overhead per call.
`score_block` runs the forward pass with no history, keeping only the
row sums, and turns their coefficients into one log-likelihood per
sequence.
`viterbi_block` runs the max-product recursion with one-byte
back-pointers below 257 states. Neither holds a (T, B, N) float array, so
their blocks hold more steps than training's at short lengths, while
Viterbi's (N, N, B) scores shrink its blocks as N grows. Some of
Viterbi's per-step loops read an operand broadcast along the rows, which
numpy copies through its ufunc buffer unless the buffer holds fewer
elements than three times the rows; from UNBUFFERED_ROWS running rows the
step loop lowers the buffer size below that, so that those loops run
unbuffered, and then restores the caller's. `likelihood` and
`viterbi` are the one-sequence case of `score_block` and `viterbi_block`.
The tests keep a per-sequence forward-backward and padded block scorers,
and check the packed kernels against them.

A sequence gets the same score and path, bit for bit, whatever block it
sits in, at whatever row and beside whatever lengths: see `score_block`
and `viterbi_block`. Its c_t in training are the same bits as in scoring.

Model validity is the caller's precondition (see model.validate_model);
symbol range is an indexing hazard, so `length_blocks` checks it, and the
kernels trust its blocks.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .model import Dataset, HmmModel

# Byte budget of every block: `length_blocks` gives a block of B rows of
# padded length T the most rows for which B (T step + row) + step bytes fit
# it, and at least one, where step and row are the running kernel's bytes
# per padded step and per row (`_kernel_bytes`). In training those are the
# E-step workspace, made once per run and reused by every block and
# iteration: 14,562 padded steps at 3 states, where a 10,000 x 5 corpus
# trains in 4 blocks, and 5,460 at 8. In a sweep of training caps from
# 1,024 to 65,536 steps at 3 and 8 states (BENCH_15.json), the time per
# iteration stopped falling at about 8,192 steps; differences above that
# were within the host's noise. At 8 states a 500 x 60 file scores and
# decodes in one block.
BLOCK_BYTES = 2**20

# Padded steps whose E-step plans a training run keeps, summed over its
# blocks, longest first: a kept plan holds about 1 KB of views per padded
# step, so a run keeps at most about 16 MB of them. A block past the cap
# makes its views as each call reaches them.
PLAN_STEPS = 2**14

# Running rows from which `viterbi_block` sizes numpy's ufunc buffer for
# its step loop. A ufunc whose operand is broadcast along the rows (log A
# in the add, best in the compare, the ranks in the tie-break multiply)
# goes through numpy's buffer unless that buffer holds fewer elements than
# three times the rows: below 2,731 rows at the default 8,192. Buffered,
# the add at 8 states and 500 rows took 38 us a step, against 11 us
# unbuffered. Below 128 rows a smaller buffer did not pay at every state
# count (BENCH_28.json), so smaller prefixes keep the caller's size.
UNBUFFERED_ROWS = 128


class ImpossibleSequenceError(ValueError):
    """The sequence has probability exactly 0 under the model."""


class Block(NamedTuple):
    """B sequences of a Dataset, packed by `length_blocks`.

    `rows` holds their input positions and `lengths` their lengths, longest
    first, from T down to at least 1. `symbols` holds the symbols of the
    valid (t, b) steps in t-major order: sequence rows[b]'s symbol at step
    t sits at first_t + b, where first_t = B_0 + ... + B_{t-1}. One spare
    in-range symbol follows the last step. `sizes` is
    [B_0, ..., B_{T-1}, 0], where B_t counts the sequences still running
    at step t, which are the block's first B_t rows.
    """

    rows: np.ndarray
    lengths: np.ndarray
    symbols: np.ndarray
    sizes: list[int]


def length_blocks(data: Dataset, model: HmmModel, kernel) -> list[Block]:
    """The packed blocks of a Dataset for `kernel` (estep_block,
    score_block or viterbi_block) to run under `model`.

    Sequences are sorted longest first, stably, so equal lengths keep
    input order, and the sorted order is cut into blocks within
    BLOCK_BYTES: a block of rows of padded length T takes the most rows
    whose bytes in the kernel at the model's N states, plus one spare step,
    fit the budget, and at least one. Rejects the first sequence with a
    symbol of model.n_symbols or more, by its 1-based position.
    """
    step, per_row = _kernel_bytes(kernel, model.n_states)
    values, offsets, lengths = data.values, data.offsets, data.lengths
    if values.max() >= model.n_symbols:
        # values lie in input order, so the first bad symbol is in the first bad sequence
        idx = int(np.searchsorted(offsets, np.argmax(values >= model.n_symbols), side="right"))
        raise ValueError(f"sequence {idx} uses symbols outside [0, {model.n_symbols})")

    order = np.argsort(-lengths, kind="stable")
    blocks = []
    lo = 0
    while lo < len(order):
        t_len = int(lengths[order[lo]])
        rows = order[lo : lo + max(1, (BLOCK_BYTES - step) // (t_len * step + per_row))]
        lens = lengths[rows]
        at = np.add.outer(np.arange(t_len), offsets[rows]).ravel()  # t * B + b: row b at t
        if lens[-1] < t_len:  # keep the valid steps only
            at = at[(np.arange(t_len)[:, None] < lens).ravel()]
        symbols = np.empty(len(at) + 1, dtype=np.int64)
        values.take(at, out=symbols[:-1], mode="clip")  # "clip": no buffered copy
        symbols[-1] = symbols[0]  # the spare
        # B_t counts the lengths > t, which searchsorted finds in the ascending -lens
        sizes = np.searchsorted(-lens, -np.arange(t_len + 1)).tolist()
        blocks.append(Block(rows, lens, symbols, sizes))
        lo += len(rows)
    return blocks


def estep_workspace(blocks: list[Block], n_states: int) -> np.ndarray:
    """The workspace `estep_block` runs every block in: three (P + 1, N)
    float64 buffers, where P is the largest block's count of valid steps.
    Make it once per training run; its contents between calls do not
    matter."""
    return np.empty((3, max(len(block.symbols) for block in blocks), n_states))


def step_weights(block: Block, weights: np.ndarray) -> np.ndarray:
    """Each valid step's weight, packed as the block's symbols are: the
    weight of sequence rows[b] at each of its steps. `weights` is indexed
    by input position. Step t holds the block's first B_t rows, so its
    weights are a prefix of the rows' weights."""
    w = weights[block.rows]
    return np.concatenate([w[:k] for k in block.sizes[:-1]])


def _forward_steps(block: Block, alpha, et, sums, s=None):
    """The views each step of `_forward_block` reads and writes, made as
    its loop asks for them: one (symbols, alpha_{t-1}, product, alpha_t,
    emissions, row sums, kept sums, their source) tuple per step, None
    where the step has no such view. Training (no s) packs every step in
    place, and needs neither symbols nor kept sums: `estep_plan` keeps its
    tuples for a whole run, up to PLAN_STEPS. Scoring (s, a (T, W) view of
    the coefficients) runs alpha in two slots and one step's emissions and
    sums, and keeps step t's running sums in s[t]; it plans on each call.

    Where a padding row ran beside a lone row at t - 1, alpha_t overlaps
    the alpha_{t-1} rows that the transition product reads, so that
    product goes to the step's row sums first, and every other step
    writes it straight into alpha_t.
    """
    sizes, symbols = block.sizes, block.symbols
    first = list(itertools.accumulate(sizes, initial=0))  # step t at first[t]
    width = len(alpha) // 2  # scoring's slot
    prev = rows = None
    for t, b in enumerate(sizes[:-1]):
        k, lo = max(b, 2), first[t] if s is None else t % 2 * width
        at = alpha[lo : lo + k]
        if s is None:
            ek, sk, sym, st, sb = et[lo : lo + k], sums[lo : lo + k], None, None, None
        else:
            if b != rows:  # views of the running prefix, made when it shrinks
                rows, ek, sk, sb = b, et[:k], sums[:k], sums[:b, 0]
            sym, st = symbols[first[t] : first[t] + k], s[t, :b]
        prev = prev if prev is None or len(prev) == k else prev[:k]
        yield sym, prev, sk if s is None and t and sizes[t - 1] < k else at, at, ek, sk, st, sb
        prev = at


def _forward_block(model: HmmModel, block: Block, plan: EStepPlan | None = None):
    """Scaled forward pass over a block: alpha_t = f_t / s_t, where f_0 =
    pi b(o_0), f_t = (alpha_{t-1} a) b(o_t) and s_t is the sum of f_t, and
    the coefficients c_t = 1 / s_t, taken for the whole block in one call
    after the loop. Every step runs the views of `_forward_steps`: in
    training four numpy calls, the transition product, the emission
    multiply, the row-sum product and the normalizing divide; scoring adds
    the step's emission gather and keeps its sums.

    Given the plan of `estep_plan`, as training needs it, keeps the
    history: gathers the block's emissions into the plan's workspace in
    one call before the loop, writes the alpha of the valid steps and
    their row sums beside them, all in the block's packed order, and
    returns c as one contiguous (sum_t B_t,) array, packed the same way:
    row b's c_t at first_t + b. Without, as scoring needs it, alpha lives
    in two slots, each step gathers its own emissions into a one-step
    buffer and copies its row sums into a (T, W) view of a (W, T) array,
    where W is B but at least 2, and only c comes back, as that view; the
    block then holds no (T, B, N) array at all, and c is 1.0 past a row's
    length. A row with probability 0 gets a non-finite c from the step
    where it dies, after a 0 / 0 that callers run under np.errstate. The
    emissions come from the model's `b_by_symbol`, made once per model.

    Each step's row sums come from a product with the model's all-ones
    (N, N) matrix, which puts a row's sum in every column with bits that
    depend on that row alone, as the transition product's do; a BLAS gemv
    (x @ ones(N)) rounds a row by the row count and the row's offset.
    numpy sends a one-row product down another BLAS path than a multi-row
    one, so every step runs on at least two rows. The second is padding
    once its own sequence has ended, and reads the symbol after the
    step's last: the next step's first, or the block's spare. Both modes
    do the same arithmetic, so a row gets the same c bits in either, in
    every block. The products are np.dot, which reaches the dgemm that
    np.matmul does, with the same bits, at less cost per call.
    """
    a, pi, b_t, ones = model.a, model.pi, model.b_by_symbol, model.ones
    if plan is None:
        width, n = max(block.sizes[0], 2), model.n_states
        alpha, (et, sums) = np.empty((2 * width, n)), np.empty((2, width, n))
        s = np.ones((width, len(block.sizes) - 1)).T  # entries past a row's length stay 1
        steps = _forward_steps(block, alpha, et, sums, s)
    else:
        # symbols are checked; "clip" lets take write straight into out
        b_t.take(block.symbols, axis=0, out=plan.work[1], mode="clip")
        steps = plan.forward
    # each step fills its alpha rows in place: f = (alpha_{t-1} a) b(o_t), alpha_t = f / s_t
    for sym, prev, product, at, ek, sk, st, sb in steps:
        if sym is not None:
            b_t.take(sym, axis=0, out=ek, mode="clip")
        if prev is None:
            np.multiply(pi, ek, out=at)
        else:
            np.dot(prev, a, out=product)
            np.multiply(product, ek, out=at)
        np.dot(at, ones, out=sk)
        at /= sk
        if st is not None:
            st[...] = sb
    if plan is None:
        return np.divide(1.0, s, out=s)
    return np.divide(1.0, plan.work[2, :-1, 0])  # contiguous, unlike the column it reads


def _length_runs(sizes: list[int]):
    """(lo, hi, T) for each run of rows [lo, hi) of one length T in a block,
    from its sizes: the rows of length T are [B_T, B_{T-1})."""
    return [(sizes[t], sizes[t - 1], t) for t in range(len(sizes) - 1, 0, -1)
            if sizes[t] < sizes[t - 1]]


class EStepPlan(NamedTuple):
    """One block's E-step in a workspace of `estep_workspace`, as
    `estep_plan` lays it out. `wp` holds the block's step weights; `work`
    is the block's (3, P + 1, N) part of the workspace: its packed alpha,
    emissions and row sums, which beta overwrites, with the spare step;
    `forward` and `backward` hold one tuple of views per step, and `runs`
    the operands of the one xi product of each run of steps whose
    alpha_{t-1} rows lie end to end.
    """

    wp: np.ndarray
    work: np.ndarray
    forward: Iterable
    backward: Iterable
    runs: list


class _Steps(functools.partial):
    """Steps whose views each pass over them makes afresh."""

    def __iter__(self):
        return self()


def _backward_steps(sizes: list[int], off: list[int], bt, beta, wp):
    """One (v_{t+1}, beta_{t+1}, beta_t's first B_{t+1} rows, the rows of
    beta_t whose sequences end at t, their weights) tuple per step t from
    T - 2 down to 0, the last two None where no sequence ends at t."""
    for t in range(len(sizes) - 3, -1, -1):
        k, lo, hi, nxt = sizes[t + 1], off[t], off[t + 1], np.s_[off[t + 1] : off[t + 2]]
        ends = (beta[lo + k : hi], wp[lo + k : hi, None]) if k < sizes[t] else (None, None)
        yield bt[nxt], beta[nxt], beta[lo : lo + k], *ends


def estep_plan(block: Block, wp: np.ndarray, work: np.ndarray, keep: bool = True) -> EStepPlan:
    """The views `estep_block` runs a block in: wp is the block's step
    weights, from `step_weights`, and work a workspace from
    `estep_workspace` for a list of blocks that holds this one. With keep,
    every step's views are made now, once, and the plan serves every
    call to come while work lives; without, each step's views are made as
    the one call the plan serves reaches it, so the plan holds no per-step
    objects. A kept plan holds about 1 KB of views per padded step.
    """
    sizes, t_len = block.sizes, len(block.sizes) - 1
    off = list(itertools.accumulate(sizes, initial=0))
    work = work[:, : off[-1] + 1]
    alpha, et, sums = work
    bt, beta = et[:-1], sums[:-1]
    forward = _Steps(_forward_steps, block, alpha, et, sums)
    backward = _Steps(_backward_steps, sizes, off, bt, beta, wp)
    if keep:
        forward, backward = list(forward), list(backward)
    # Step t pairs its rows with alpha rows [off[t - 1], off[t - 1] + B_t),
    # the same b one step back, which run on into step t + 1's until a row
    # ends: one product serves each run of steps.
    starts = [t for t in range(1, t_len) if t == 1 or sizes[t - 1] < sizes[t - 2]]
    runs = [(alpha[off[t0 - 1] : off[t0 - 1] + off[t1] - off[t0]].T, bt[off[t0] : off[t1]])
            for t0, t1 in zip(starts, starts[1:] + [t_len])]
    return EStepPlan(wp, work, forward, backward, runs)


def estep_plans(blocks: list[Block], weights: np.ndarray, n_states: int):
    """Each block of a training run with its plan, all in the one
    workspace of `estep_workspace`: (block, plan) pairs for `estep_block`.
    `weights` is indexed by input position. The first blocks, longest
    first, keep their plans' views while their padded steps sum to at
    most PLAN_STEPS; later blocks make theirs on every call."""
    work = estep_workspace(blocks, n_states)
    planned = itertools.accumulate(len(block.sizes) - 1 for block in blocks)
    return [(block, estep_plan(block, step_weights(block, weights), work, steps <= PLAN_STEPS))
            for block, steps in zip(blocks, planned)]


def estep_block(model: HmmModel, block: Block, plan: EStepPlan, pi_num: np.ndarray,
                a_num: np.ndarray, b_num: np.ndarray) -> float:
    """Add the weighted expected counts of a block of sequences in place,
    and return sum_b w_b log P(obs_b) = -sum_{t, b} w_b log c_t^b.

    The plan, from `estep_plan`, holds the block's per-step weights and the
    views of every step into its workspace, so that a forward step is its
    four numpy calls and a backward step its two. Adds sum_b w_b
    gamma_1^b to pi_num (N,), sum_b w_b sum_t xi_t^b to a_num (N, N) and
    sum_b w_b sum_{t: o_t=k} gamma_t^b(j) to b_num[j, k] (N, M), laid out
    as the model's B. With the emissions scaled by c, v_t = c_t b(o_t), the
    backward pass starts each row at its weight, beta_{T-1} = w, and runs
    beta_t = a (v_{t+1} beta_{t+1}). The recursion is linear, so every
    beta_t carries w, and both posteriors carry it straight from the
    scaled recursions (see the module docstring), with no normalizing:
    w gamma_t = alpha_t (w beta_t) and w xi_t(i, j) = alpha_{t-1}(i) a_ij
    v_t(j) (w beta_t(j)). xi_t is only ever summed over t and b, so no
    (B, T, N, N) array is made: a_num gains a_ij times the sum of
    alpha_{t-1}^T (v_t w beta_t), one product per run of steps whose
    alpha_{t-1} rows lie end to end. The backward pass and the counts work
    in the block's packed order, valid (t, b) steps only: step t's B_t
    rows are [off[t], off[t + 1]).

    If a row has probability 0, the sum is not finite; it is returned as
    soon as the forward pass gives it, and nothing is added to the counts.
    `score_block` names the rows, with the same c bits.
    """
    b_len, n, wp = block.sizes[0], model.n_states, plan.wp
    alpha, bt, beta = plan.work[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a row of probability 0 divides 0 by 0
        c = _forward_block(model, block, plan)
        ll = -float(wp @ np.log(c, out=c))  # log c in place: c itself is not needed again
    if not np.isfinite(ll):
        return ll

    # The three workspace buffers are reused in place as each is used up.
    # Every column of the row sums holds s_t = 1 / c_t, so one contiguous
    # divide scales the emissions.
    v = bt[b_len:]  # c_t b(o_t) for t >= 1, then c_t b(o_t) beta_t
    np.divide(v, beta[b_len:], out=v)
    last = len(wp) - block.sizes[-2]  # the rows of the last step
    beta[last:] = wp[last:, None]
    a_t = model.a_transposed
    for v_next, beta_next, out, ends, w in plan.backward:
        v_next *= beta_next  # made c b(o_{t+1}) beta_{t+1} in place: no emission is read again
        np.dot(v_next, a_t, out=out)
        if ends is not None:
            ends[...] = w

    gamma = np.multiply(beta, alpha, out=beta)  # in place: beta is not read again
    symbols = block.symbols[:-1]
    for j in range(n):
        b_num[j] += np.bincount(symbols, weights=gamma[:, j], minlength=model.n_symbols)
    pi_num += np.ones(b_len) @ gamma[:b_len]
    xi = np.zeros((n, n))
    for alpha_prev, v_run in plan.runs:
        xi += alpha_prev @ v_run
    a_num += model.a * xi
    return ll


def score_block(model: HmmModel, block: Block) -> np.ndarray:
    """log P(sequence | model) for each row of a block, or -inf where the
    row has probability 0.

    A row gets the same bits whatever block it sits in. Each step's
    matmuls give a row bits that depend on that row alone (see
    `_forward_block`), and every step runs on at least two rows, so that
    every matmul takes the multi-row BLAS path; and each row's
    -sum_t log c_t is summed along a contiguous run of exactly its own
    steps, the order numpy uses for a 1-D array, where summing the (T, B)
    columns would use another order for one row than for several.
    """
    ll = np.empty(len(block.rows))
    with np.errstate(divide="ignore", invalid="ignore"):  # a row of probability 0 divides 0 by 0
        ct = _forward_block(model, block).T  # (W, T), contiguous
        np.log(ct, out=ct)
        for lo, hi, t_end in _length_runs(block.sizes):
            ll[lo:hi] = -ct[lo:hi, :t_end].sum(axis=1) + 0.0  # + 0.0: no -0.0
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def viterbi_block(model: HmmModel, block: Block):
    """Most probable state path and its joint log-probability for each row
    of a block: paths (B, T) and log_probs (B,), where log_probs is -inf
    for a row with probability 0 and a path holds 0 past its row's length.

    Ties at every argmax resolve to the lowest state index, which makes each
    path the one minimizing (q_T, ..., q_1) lexicographically among all
    maximizers. The recursion only adds and takes maxima, so a row's result
    does not depend on the rest of the block.

    The block is laid out state-major, with the rows along the last,
    contiguous axis, so that each step is a few numpy calls over the whole
    (N, N, B_t) prefix. Back-pointers take the smallest unsigned type that
    holds a state index, one byte below 257 states, and each step gathers
    its own log-emissions, so the block holds no (T, B, N) float array.

    From UNBUFFERED_ROWS running rows, the step loop sets numpy's ufunc
    buffer below three times the rows, a multiple of 16 as numpy 1.x
    requires, and never above the caller's size, so that its (N, N, B_t)
    loops, which read an operand broadcast along the rows, run unbuffered;
    it sets the size again as the prefix shrinks, and restores the
    caller's size when it returns or raises. The tie-break multiply reads
    the hits as uint8, so no loop needs a buffer to cast them. Only the
    loop's strides change, not its arithmetic, so the bits do not.
    """
    symbols, sizes = block.symbols, block.sizes
    b_len, t_len = sizes[0], len(sizes) - 1
    n = model.n_states
    first = list(itertools.accumulate(sizes, initial=0))  # step t at first[t]

    log_pi, log_a, log_b = model.log_parameters
    log_a = log_a[:, :, None]  # (N_i, N_j, 1)

    index = np.min_scalar_type(n - 1)
    psi = np.empty((t_len, n, b_len), dtype=index)  # psi[t, j, b]: best i before j
    # rank[i] = N - 1 - i, so that among the maximizing i the lowest ranks highest
    rank = np.arange(n - 1, -1, -1, dtype=index)[:, None, None]
    scores = np.empty((n, n, b_len))
    hits = np.empty(scores.shape, dtype=bool)
    flags = hits.view(np.uint8)  # hits as the multiply reads them: no bool to uint8 cast
    ranked = np.empty(scores.shape, dtype=index)
    best = np.empty((n, b_len))
    delta = log_pi[:, None] + log_b.take(symbols[:b_len], axis=1)  # (N, B)
    caller = np.getbufsize() if b_len >= UNBUFFERED_ROWS else 0
    # a block that sizes the buffer makes its views, and sets the size, at t = 1
    rows = None if caller else b_len
    dk, sk, hk, fk, rk, bk = delta, scores, hits, flags, ranked, best
    try:
        for t in range(1, t_len):
            # scores[i, j, b]: best path ending i -> j. Rows that have ended
            # keep their last delta.
            if sizes[t] != rows:  # views of the running prefix, made again only when it shrinks
                rows = sizes[t]
                dk, sk, hk, fk, rk, bk = (
                    delta[:, :rows], scores[..., :rows], hits[..., :rows], flags[..., :rows],
                    ranked[..., :rows], best[:, :rows],
                )
                if caller:  # a buffer of fewer than 3 * rows elements: see UNBUFFERED_ROWS
                    np.setbufsize(caller if rows < UNBUFFERED_ROWS
                                  else min(caller, (3 * rows - 1) // 16 * 16))
            np.add(dk[:, None, :], log_a, out=sk)
            np.maximum.reduce(sk, axis=0, out=bk)
            np.equal(sk, bk, out=hk)
            np.multiply(fk, rank, out=rk)
            pt = psi[t, :, :rows]
            np.maximum.reduce(rk, axis=0, out=pt)
            np.subtract(n - 1, pt, out=pt)  # the lowest maximizing i
            np.add(bk, log_b.take(symbols[first[t] : first[t + 1]], axis=1), out=dk)
    finally:
        if caller:
            np.setbufsize(caller)
    del scores, hits, flags, ranked, sk, hk, fk, rk  # freed before the paths are made

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


def _kernel_bytes(kernel, n: int) -> tuple[int, int]:
    """The bytes `kernel` holds per padded step and per row of a block at n
    states, beyond what it holds whatever the block's size. The kernel is
    known by its name, so that a wrapper made with functools.wraps, as a
    tracer or a test spy makes, sizes its blocks as the kernel itself:

    - estep_block: per step, the three (P + 1, N) float64 workspace buffers;
    - score_block: per step, the (W, T) float64 coefficients; per row,
      alpha's two (N,) slots, the one-step emissions and row sums, and ll;
    - viterbi_block: per step, psi's N back-pointers and the int64 path
      entry; per row, the (N, N) scores, hits and ranked, then delta, best
      and one step's log-emissions, each (N,) float64.

    The (N, N) arrays the kernels read, the backward pass's A transposed,
    scoring's all-ones matrix and Viterbi's log A, with B by symbol, log pi
    and log B, are the model's, made once per model, not per block. A
    training plan's views (`estep_plan`) are held per padded step, not per
    row, and are bounded per run by PLAN_STEPS, outside this budget.
    """
    index = np.min_scalar_type(n - 1).itemsize  # one back-pointer
    return {"estep_block": (24 * n, 0), "score_block": (8, 32 * n + 8),
            "viterbi_block": (index * n + 8, (9 + index) * n * n + 24 * n)}[kernel.__name__]


def likelihood(model: HmmModel, seq) -> float:
    """log P(sequence | model): the one-row case of `score_block`."""
    (block,) = length_blocks(Dataset([seq]), model, score_block)
    ll = float(score_block(model, block)[0])
    if ll == -np.inf:
        raise ImpossibleSequenceError("impossible sequence")
    return ll


def viterbi(model: HmmModel, seq):
    """Most probable state path and its joint log-probability for one
    sequence: the one-row case of `viterbi_block`."""
    (block,) = length_blocks(Dataset([seq]), model, viterbi_block)
    paths, log_probs = viterbi_block(model, block)
    if log_probs[0] == -np.inf:
        raise ImpossibleSequenceError("impossible sequence")
    return paths[0], float(log_probs[0])
