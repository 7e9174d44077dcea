"""The slow code that the library's fast paths replaced, kept as test oracles.

- `forward_backward` is the per-sequence scaled forward-backward pass,
  returning every posterior. It normalises as the block kernels do,
  alpha_t = f_t / s_t with c_t = 1 / s_t, so its log-likelihood has the
  same bits as `likelihood`'s; `per_sequence_em` is the accumulation loop
  over it that the block E-step replaced, with the same M-step. It keeps
  the renormalised form as the reference: each gamma_t and xi_t is
  divided by its own sum, where the block E-step takes them straight
  from the scaled recursions, whose sums are 1 up to rounding.
- `run_length_collapse` and `scan_clusters` are the per-sequence collapse
  and the pairwise first-match scan that keyed clustering replaced.
- `score_block_history` and `viterbi_block_history` are `score_block` and
  `viterbi_block` as they were before scoring dropped its history and
  blocks were packed: they take a right-padded (B, T) block with its B
  lengths, as `padded_block` builds it, and check its symbols. The
  forward pass keeps the (T, B, N) emission and alpha arrays, and Viterbi
  keeps a (T, B, N) table of log-emissions and `intp` back-pointers,
  taking each argmax over the last axis of a (B, N_j, N_i) score array.
  The tests require the library's packed kernels to give the same bits on
  every row.
- `save_cluster_table_json` is the cluster-table writer that encoded each
  cluster with `json.dumps`; `save_cluster_table` must write its bytes.
- `save_sequences_join` is the sequence-file writer that joined str()
  names line by line; `save_sequences` must write its bytes.
- `dataset_fault` states the Dataset invariant one sequence at a time;
  `Dataset.from_flat` must refuse exactly the pairs it faults, with its
  message.
- `decode_lines_join` is the `decode` formatter that joined each row's
  state names with `str.join`, one row at a time; `cli._decode_lines`
  must give its lines.
- `dtw_path` is the DTW that filled the whole n x m table and backtracked
  a warping path; the two-row `dtw_distance` must return its distance.
  `enum_min_cost` walks every monotone path, with no memoisation.
- `estep_block_slicing` is `estep_block` as it was before each block's
  steps were planned once per run: it slices the workspace at every step
  of the forward and backward passes and runs each step's products with
  np.matmul, reading a contiguous A transposed in the backward product as
  `estep_block` does. `estep_block` must give its counts and
  log-likelihood bits.
- `block_budget` is no oracle but the inverse of `length_blocks`' sizing:
  the BLOCK_BYTES at which a kernel's blocks take a given number of rows
  of a given length, so that tests can shrink blocks through the one
  budget.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from hmmaccel import HmmModel, ImpossibleSequenceError, euclidean_distance
from hmmaccel.inference import _kernel_bytes, _length_runs
from hmmaccel.model import _write_json


def _check_symbols(model, obs):
    if obs.size == 0:
        raise ValueError("empty sequence")
    lo, hi = int(obs.min()), int(obs.max())
    if lo < 0 or hi >= model.n_symbols:
        raise ValueError(
            f"symbol out of range: sequence uses {lo}..{hi}, "
            f"model has {model.n_symbols} symbols"
        )


def padded_block(seqs):
    """Sequences sorted longest first as a (B, T) block, each row padded
    with copies of its last symbol, and their B lengths."""
    lengths = np.array([len(s) for s in seqs])
    at = np.minimum(np.arange(lengths[0]), lengths[:, None] - 1)
    return np.array([np.asarray(s)[i] for s, i in zip(seqs, at)], dtype=np.int64), lengths


def _sizes(obs, lengths):
    """[B_0, ..., B_{T-1}, 0]: how many rows of a padded block obs (B, T)
    are still running at each step; None means every row has length T."""
    b_len, t_len = obs.shape
    lengths = np.full(b_len, t_len) if lengths is None else np.asarray(lengths)
    return [int((lengths > t).sum()) for t in range(t_len + 1)]


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
        alpha[t] = f / s

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


def per_sequence_em(init, seqs, weights, iterations):
    """The per-sequence accumulation loop over forward_backward, with the
    same M-step as the library's. Returns the log-likelihood and the
    re-estimated model of every iteration."""
    n, m = init.n_states, init.n_symbols
    model = init
    history = []
    for it in range(1, iterations + 1):
        pi_num = np.zeros(n)
        a_num = np.zeros((n, n))
        b_num_mt = np.zeros((m, n))
        total_ll = 0.0
        for idx, (seq, w) in enumerate(zip(seqs, weights), start=1):
            try:
                fb = forward_backward(model, seq)
            except ImpossibleSequenceError as exc:
                raise ImpossibleSequenceError(
                    f"sequence {idx} is impossible under the model at iteration {it}"
                ) from exc
            total_ll += w * fb.log_likelihood
            wg = w * fb.gamma
            pi_num += wg[0]
            if len(seq) > 1:
                a_num += w * fb.xi.sum(axis=0)
            np.add.at(b_num_mt, seq, wg)
        a_den = a_num.sum(axis=1)
        b_den = b_num_mt.sum(axis=0)
        new_a = model.a.copy()
        new_b = model.b.copy()
        for i in range(n):
            if a_den[i] > 0.0:
                new_a[i] = a_num[i] / a_den[i]
            if b_den[i] > 0.0:
                new_b[i] = b_num_mt[:, i] / b_den[i]
        model = HmmModel(n, m, pi_num / sum(weights), new_a, new_b)
        history.append((total_ll, model))
    return history


def run_length_collapse(seq) -> tuple[int, ...]:
    """Remove consecutive repeats, e.g. (1,2,2,2,2,3,4) -> (1,2,3,4)."""
    out = []
    prev = None
    for v in seq:
        v = int(v)
        if v != prev:
            out.append(v)
            prev = v
    return tuple(out)


def dtw_path(x, y):
    """DTW distance between two sequences and one warping path attaining it.

    The path is a list of 0-based index pairs (i, j) into the two input
    sequences, from (0, 0) to (len(x)-1, len(y)-1), each step advancing by
    (1,0), (0,1), or (1,1). Ties between predecessors are broken diagonal
    first, then vertical (advance in x), then horizontal (advance in y).
    The table is the full O(len(x) * len(y)) dynamic program: each cell
    accumulates its local cost plus the cheapest of the diagonal,
    vertical, and horizontal predecessors. The arithmetic is exact
    (integer costs).
    """
    xs = [int(v) for v in x]
    ys = [int(v) for v in y]
    if not xs or not ys:
        raise ValueError("empty sequence")
    n, m = len(xs), len(ys)

    d = [[0] * m for _ in range(n)]
    d[0][0] = abs(xs[0] - ys[0])
    for j in range(1, m):
        d[0][j] = d[0][j - 1] + abs(xs[0] - ys[j])
    for i in range(1, n):
        row = d[i]
        prev = d[i - 1]
        row[0] = prev[0] + abs(xs[i] - ys[0])
        xi = xs[i]
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = best + abs(xi - ys[j])

    # Backtrack; costs are exact ints, so re-deriving the argmin is safe.
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(d[i - 1][j - 1], d[i - 1][j], d[i][j - 1])
            if d[i - 1][j - 1] == best:
                i, j = i - 1, j - 1
            elif d[i - 1][j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(d[n - 1][m - 1]), path


def enum_min_cost(xs, ys):
    """The least cost over every monotone warping path, as an exact int."""
    # exhaustive walk over every monotone path, no memoization
    best = [None]
    n, m = len(xs), len(ys)

    def walk(i, j, acc):
        acc += abs(xs[i] - ys[j])
        if i == n - 1 and j == m - 1:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0)
    return best[0]


def save_cluster_table_json(table, path):
    """Write a cluster table through `_write_json`, one json.dumps per cluster."""
    values, offsets = table.reps.values.tolist(), table.reps.offsets.tolist()
    _write_json(
        {
            "total_weight": table.total_weight,
            "clusters": [
                {"representative": values[lo:hi], "weight": w}
                for lo, hi, w in zip(offsets, offsets[1:], table.weights.tolist())
            ],
        },
        path,
    )


def scan_clusters(data, distance):
    """Each sequence joins the first representative at distance exactly
    zero, or opens a new cluster: (representatives, weights)."""
    if distance == "euclidean":
        dist = euclidean_distance
    else:
        dist = lambda x, y: dtw_path(x, y)[0]  # noqa: E731
    reps, weights = [], []
    for seq in data.sequences:
        for idx, rep in enumerate(reps):
            if dist(seq, rep) == 0.0:
                weights[idx] += 1
                break
        else:
            reps.append(np.array(seq, dtype=np.int64))
            weights.append(1)
    return reps, weights


def forward_history(model, obs, sizes):
    """Scaled forward pass: bt, alpha (T, B, N) and c (T, B), where
    alpha_t = f_t / s_t and c_t = 1 / s_t."""
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
            at /= sk
    return bt, alpha, c


def score_block_history(model, obs, lengths=None):
    """log P(obs_b | model) per row, -inf where the row is impossible."""
    obs = np.asarray(obs, dtype=np.int64)
    lone = obs.shape[0] == 1
    if lone:
        obs = np.repeat(obs, 2, axis=0)
        lengths = None if lengths is None else np.repeat(lengths, 2)
    sizes = _sizes(obs, lengths)
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
    sizes = _sizes(obs, lengths)

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


class _NameTable(dict):
    """symbol -> str(symbol), calling str() once per distinct symbol."""

    def __missing__(self, symbol: int) -> str:
        name = self[symbol] = str(symbol)
        return name


def save_sequences_join(dataset, path):
    """Write sequences one per line, symbols space-separated: str() once per
    distinct symbol and one str.join per line. `save_sequences` must write
    its bytes."""
    names = _NameTable()
    values, offsets = dataset.values.tolist(), dataset.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(map(names.__getitem__, values[lo:hi])) + "\n"
                         for lo, hi in zip(offsets, offsets[1:])))


def dataset_fault(values, offsets):
    """The ValueError text that `Dataset.from_flat(values, offsets)` must
    raise, for lists of ints, or None if they hold the invariant: offsets
    start at 0, rise strictly and end at len(values), with at least one
    sequence, and no symbol is negative. Sequences are checked in order,
    and a sequence's symbols only once its offsets are known good."""
    n = len(values)
    if len(offsets) < 2:
        return "sequence 1 is missing"
    for i, (lo, hi) in enumerate(zip(offsets, offsets[1:]), start=1):
        if lo == hi:
            return f"sequence {i} is empty"
        if (i == 1 and lo != 0) or hi < lo or hi > n or (i == len(offsets) - 1 and hi != n):
            return (f"sequence {i} spans offsets {lo} to {hi}, but offsets must rise from 0 "
                    f"to len(values) = {n}")
        if min(values[lo:hi]) < 0:
            return f"sequence {i} has a negative symbol"
    return None


def decode_lines_join(model, block, paths, log_probs):
    """The `decode` lines of a block from `viterbi_block`'s paths and
    log-probabilities: one " ".join of str() names per row, and "-inf" for a
    row of probability 0. Reads a copy of `paths`, which `cli._decode_lines`
    may write into."""
    names = [str(i) for i in range(model.n_states)]
    return [
        "-inf\n" if lp == -np.inf
        else " ".join([names[s] for s in path[:t].tolist()]) + f"\t{lp!r}\n"
        for path, t, lp in zip(paths.copy(), block.lengths.tolist(), log_probs.tolist())
    ]


def block_budget(kernel, n_states, t_len, rows):
    """The BLOCK_BYTES at which `length_blocks` gives `kernel`, at n_states
    states, blocks of `rows` rows of padded length t_len, and no more. For
    training, whose bytes are all per step, block_budget(estep_block, n, 1,
    steps) caps a block at `steps` padded steps."""
    step, per_row = _kernel_bytes(kernel, n_states)
    return step + rows * (t_len * step + per_row)


def estep_block_slicing(model, block, wp, pi_num, a_num, b_num, work):
    """Add a block's weighted expected counts, slicing the workspace `work`
    (from `estep_workspace`) at every step, and return its weighted
    log-likelihood; a non-finite one adds no counts."""
    a, n = model.a, model.n_states
    sizes, symbols = block.sizes, block.symbols
    b_len, t_len = sizes[0], len(sizes) - 1
    off = list(itertools.accumulate(sizes, initial=0))
    p = off[-1]
    ones = np.ones_like(a)
    alpha, et, sums = work[:, : p + 1]
    np.ascontiguousarray(model.b.T).take(symbols, axis=0, out=et, mode="clip")
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(t_len):
            lo, k = off[t], max(sizes[t], 2)  # a padding row beside a lone row
            at, ek, sk = alpha[lo : lo + k], et[lo : lo + k], sums[lo : lo + k]
            if t == 0:
                np.multiply(model.pi, ek, out=at)
            else:
                np.matmul(alpha[off[t - 1] : off[t - 1] + k], a, out=at)
                at *= ek
            np.matmul(at, ones, out=sk)
            at /= sk
        c = np.divide(1.0, sums[:p, 0])
        ll = -float(wp @ np.log(c, out=c))
    if not np.isfinite(ll):
        return ll

    bt, beta = et[:p], sums[:p]
    v = bt[b_len:]
    np.divide(v, beta[b_len:], out=v)
    last = off[t_len - 1]
    beta[last:] = wp[last:, None]
    for t in range(t_len - 2, -1, -1):
        k, nxt = sizes[t + 1], np.s_[off[t + 1] : off[t + 2]]
        v_next = bt[nxt]
        v_next *= beta[nxt]
        np.matmul(v_next, np.ascontiguousarray(a.T), out=beta[off[t] : off[t] + k])
        if k < sizes[t]:  # rows whose last step is t
            beta[off[t] + k : off[t + 1]] = wp[off[t] + k : off[t + 1], None]

    gamma = beta
    gamma *= alpha[:p]
    for j in range(n):
        b_num[j] += np.bincount(symbols[:-1], weights=gamma[:, j], minlength=model.n_symbols)
    pi_num += np.ones(b_len) @ gamma[:b_len]
    starts = [t for t in range(1, t_len) if t == 1 or sizes[t - 1] < sizes[t - 2]]
    xi = np.zeros((n, n))
    for t0, t1 in zip(starts, starts[1:] + [t_len]):
        src = off[t0 - 1]
        xi += alpha[src : src + off[t1] - off[t0]].T @ v[off[t0] - b_len : off[t1] - b_len]
    a_num += a * xi
    return ll
