"""Discrete-observation HMM parameters, datasets, validation, and sampling.

A model is the full parameter set (pi, A, B) over N hidden states and M
observation symbols. Observation sequences are 1-D integer arrays with
0-based symbol indices. A Dataset keeps a whole corpus flat, in one int64
buffer with sequence offsets, so that later stages cut length blocks and
clustering keys from it with a few numpy calls rather than one Python
step per sequence. All randomness goes through numpy's default_rng
(PCG64), so sampling is reproducible given a seed.

`_parse_plain` is the one tokenizer for plain text: ASCII digits and
ASCII whitespace alone, with no carriage return and no token longer than
18 digits. It builds the symbols and the line offsets by digit arithmetic
over the bytes. `save_sequences` writes this form, for every symbol below
10**18, and every Dataset loads back from it as the same values and
offsets.
`load_sequences` reads a file once, in binary, and runs `_parse_plain`
over the whole file when the file is plain, with no line memo. Any other
file, and any symbol out of the model's range, takes the path of
`load_distinct_sequences`, which does its work per distinct line rather
than per line: a repeated line costs one dictionary lookup. Its distinct
lines go through `_parse_plain` when they are plain, and through int() per
token of each distinct line otherwise, which accepts whatever int()
accepts and names the first faulty line. `load_distinct_sequences`
returns its work as it is, the distinct lines with an index from each
sequence to its line, so that clustering, scoring and decoding can handle
each distinct line once.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class HmmModel:
    """Complete HMM parameter set.

    Attributes:
        n_states: number of hidden states N.
        n_symbols: number of observation symbols M.
        pi: initial state distribution, shape (N,).
        a: transition matrix, shape (N, N), row-stochastic.
        b: emission matrix, shape (N, M), row-stochastic.
    """

    n_states: int
    n_symbols: int
    pi: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("pi", "a", "b"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def b_by_symbol(self) -> np.ndarray:
        """B transposed, contiguous and read-only: row k holds b(k), the
        emission probability of symbol k in each state. Made once per
        model, however many blocks read it."""
        b_t = np.ascontiguousarray(self.b.T)
        b_t.setflags(write=False)
        return b_t

    @functools.cached_property
    def a_transposed(self) -> np.ndarray:
        """A transposed, contiguous and read-only: the backward pass's
        operand, beta_t = (v_{t+1} beta_{t+1}) A^T row by row. Made once
        per model."""
        a_t = np.ascontiguousarray(self.a.T)
        a_t.setflags(write=False)
        return a_t

    @functools.cached_property
    def ones(self) -> np.ndarray:
        """An (N, N) all-ones matrix, read-only: the forward pass takes
        each step's row sums as its product with alpha_t. Made once per
        model."""
        ones = np.ones_like(self.a)
        ones.setflags(write=False)
        return ones

    @functools.cached_property
    def log_parameters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log pi, log A and log B, read-only, with log 0 = -inf: Viterbi's
        operands, made once per model."""
        with np.errstate(divide="ignore"):
            logs = np.log(self.pi), np.log(self.a), np.log(self.b)
        for x in logs:
            x.setflags(write=False)
        return logs

    @classmethod
    def from_arrays(cls, pi, a, b) -> "HmmModel":
        """Build a model, taking N and M from the array shapes."""
        pi = np.asarray(pi, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return cls(n_states=pi.shape[0], n_symbols=b.shape[1], pi=pi, a=a, b=b)


class Dataset:
    """Ordered observation sequences, stored flat.

    All symbols sit in one read-only int64 buffer `values`; sequence i is
    values[offsets[i]:offsets[i + 1]]. Every Dataset holds the invariant:
    offsets start at 0, rise strictly and end at len(values), with at least
    one sequence, and every symbol lies in [0, 2**63). So no sequence is
    empty and no symbol is negative. The two public constructors check it
    and raise a ValueError naming the first sequence, 1-based, that breaks
    it: `Dataset(sequences)` copies a list of 1-D integer arrays into that
    layout, and `from_flat` adopts a buffer and offsets as they are; either
    refuses integers of another dtype, or of 2**63 or more, rather than cut
    them to int64. `take` gathers some of the sequences, at integer
    positions, into a new Dataset. The loaders, `sample_sequences`, `take`
    and clustering's `_collapse` build valid arrays by construction and
    adopt them unchecked, through `_adopt`. Order is input order, which
    clustering and block building preserve.
    """

    def __init__(self, sequences):
        rows = []
        for i, seq in enumerate(sequences, start=1):
            row = np.asarray(seq)
            if row.ndim != 1:
                raise ValueError(f"sequence {i} is not a 1-D array")
            rows.append(_as_int64(row, f"sequence {i}"))
        values = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        self._adopt(*_checked(values, _offsets([len(r) for r in rows])))

    @classmethod
    def from_flat(cls, values, offsets) -> "Dataset":
        values, offsets = _as_int64(values, "values"), _as_int64(offsets, "offsets")
        return cls.__new__(cls)._adopt(*_checked(values, offsets))

    def _adopt(self, values, offsets) -> "Dataset":
        """Take int64 `values` and `offsets` that hold the invariant, read-only
        and unchecked, and return self."""
        values.setflags(write=False)
        offsets.setflags(write=False)
        self.values = values
        self.offsets = offsets
        return self

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @functools.cached_property
    def sequences(self) -> list[np.ndarray]:
        """Read-only per-sequence views of `values`."""
        offsets = self.offsets.tolist()
        return [self.values[lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    def take(self, rows) -> "Dataset":
        """The sequences at positions `rows`, in that order, repeats allowed,
        as a new Dataset. A negative position counts from the end, as
        numpy's do. A position that is not an integer or lies outside
        [-len(self), len(self)), or no position, is a ValueError, not a
        truncated index or an empty Dataset."""
        rows = _as_int64(rows, "rows")
        if not rows.size:
            raise ValueError("sequence 1 is missing")
        out = rows[(rows < -len(self)) | (rows >= len(self))]
        if out.size:
            raise ValueError(f"position {out[0]} is out of range for {len(self)} sequences")
        lengths = self.lengths[rows]
        offsets = _offsets(lengths)
        index = np.repeat(self.offsets[:-1][rows] - offsets[:-1], lengths)
        index += np.arange(offsets[-1])
        return Dataset.__new__(Dataset)._adopt(self.values[index], offsets)


def _checked(values, offsets):
    """(values, offsets) if they hold the Dataset invariant, else a
    ValueError naming the first sequence, 1-based, that breaks it. The
    symbols of a sequence that is empty, or that does not run from its
    predecessor's end (0 for the first) to at most len(values) (exactly,
    for the last), are not read."""
    if values.ndim != 1 or offsets.ndim != 1:
        raise ValueError("values and offsets must be 1-D arrays")
    if offsets.shape[0] < 2:
        raise ValueError("sequence 1 is missing")
    n, lengths = values.shape[0], np.diff(offsets)
    bad = (lengths <= 0) | (offsets[1:] > n)
    bad[0] |= offsets[0] != 0
    bad[-1] |= offsets[-1] != n
    k = int(np.argmax(bad)) if bad.any() else len(lengths)  # offsets[:k + 1] rise from 0
    # values lie in input order up to offsets[k], so the first negative one
    # there is in the first sequence that holds one
    negative = values[: offsets[k] if k else 0] < 0
    if negative.any():
        i = np.searchsorted(offsets[: k + 1], np.argmax(negative), side="right")
        raise ValueError(f"sequence {i} has a negative symbol")
    if k < len(lengths):
        raise ValueError(f"sequence {k + 1} is empty" if lengths[k] == 0 else
                         f"sequence {k + 1} spans offsets {offsets[k]} to {offsets[k + 1]}, "
                         f"but offsets must rise from 0 to len(values) = {n}")
    return values, offsets


def _as_int64(values, name: str) -> np.ndarray:
    """`values` as an int64 array, or a ValueError naming them if they hold
    anything but integers below 2**63, which int64 cannot hold. Empty
    values may be float, as np.asarray([]) is."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if values.size and (kind not in "iu" or kind == "u" and values.max() >= 2**63):
        raise ValueError(f"{name} must hold integers below 2**63")
    return values.astype(np.int64, copy=False)


def _offsets(lengths) -> np.ndarray:
    """Sequence boundaries [0, l0, l0 + l1, ...] for these lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def validate_model(model: HmmModel) -> list[str]:
    """Check all model invariants; return a list of violations (empty = ok).

    Checks dimensions, that entries are finite and in [0, 1], and
    stochasticity of pi and every row of A and B at tolerance 1e-9.
    """
    violations = []
    if model.n_states < 1:
        violations.append(f"n_states must be >= 1, got {model.n_states}")
    if model.n_symbols < 1:
        violations.append(f"n_symbols must be >= 1, got {model.n_symbols}")
    if violations:
        return violations

    n, m = model.n_states, model.n_symbols
    if model.pi.shape != (n,):
        violations.append(f"pi has shape {model.pi.shape}, expected ({n},)")
    if model.a.shape != (n, n):
        violations.append(f"a has shape {model.a.shape}, expected ({n}, {n})")
    if model.b.shape != (n, m):
        violations.append(f"b has shape {model.b.shape}, expected ({n}, {m})")
    if violations:
        return violations

    for name, arr in (("pi", model.pi), ("a", model.a), ("b", model.b)):
        if not np.all(np.isfinite(arr)):
            violations.append(f"{name} has non-finite entries")
        elif np.any(arr < 0.0) or np.any(arr > 1.0):
            violations.append(f"{name} has entries outside [0, 1]")

    s = float(model.pi.sum())
    if abs(s - 1.0) > STOCHASTIC_TOL:
        violations.append(f"pi sums to {s!r}, expected 1")
    for name, arr in (("a", model.a), ("b", model.b)):
        sums = arr.sum(axis=1)
        for i in np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)[0]:
            violations.append(f"{name} row {i} sums to {float(sums[i])!r}, expected 1")
    return violations


def require_valid(model: HmmModel) -> None:
    """Raise ValueError listing all violations if the model is invalid."""
    violations = validate_model(model)
    if violations:
        raise ValueError("invalid model: " + "; ".join(violations))


def sample_sequences(model: HmmModel, count: int, length: int, seed: int) -> Dataset:
    """Sample `count` observation sequences of exactly `length` symbols.

    Each sequence draws its initial state from pi, then repeatedly emits a
    symbol from the current state's B row and transitions via its A row.
    Deterministic given (model, count, length, seed): draws come from one
    PCG64 stream, in the order initial-states, then per time step emissions
    followed by transitions, each vectorized across all `count` sequences.
    """
    require_valid(model)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    cum_pi = np.cumsum(model.pi)
    cum_a = np.cumsum(model.a, axis=1)
    cum_b = np.cumsum(model.b, axis=1)

    def pick(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        # index of first cumulative entry > u, capped for float edge cases
        idx = (cum_rows <= u[:, None]).sum(axis=1)
        return np.minimum(idx, cum_rows.shape[1] - 1)

    states = pick(np.broadcast_to(cum_pi, (count, model.n_states)), rng.random(count))
    symbols = np.empty((count, length), dtype=np.int64)
    for t in range(length):
        symbols[:, t] = pick(cum_b[states], rng.random(count))
        if t + 1 < length:
            states = pick(cum_a[states], rng.random(count))

    return Dataset.__new__(Dataset)._adopt(symbols.ravel(), _offsets(np.full(count, length)))


# ---------------------------------------------------------------------------
# File formats


def _write_json(doc: dict, path) -> None:
    """Write a JSON object with one key per line, and a list of lists or of
    objects with one item per line.

    Each piece is encoded by json.dumps without indent, which takes json's
    C encoder; any indent makes json take its pure-Python one.
    """
    parts = []
    for key, value in doc.items():
        if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            text = "[\n    " + ",\n    ".join(map(json.dumps, value)) + "\n  ]"
        else:
            text = json.dumps(value)
        parts.append(f"  {json.dumps(key)}: {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def save_model(model: HmmModel, path) -> None:
    """Write a model as JSON with keys n_states, n_symbols, pi, a, b; each
    row of a and b takes one line."""
    _write_json(
        {
            "n_states": model.n_states,
            "n_symbols": model.n_symbols,
            "pi": model.pi.tolist(),
            "a": model.a.tolist(),
            "b": model.b.tolist(),
        },
        path,
    )


def _exact_int(value, where: str) -> int:
    """value itself if it is a JSON integer (not a bool), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def load_model(path, renormalize: bool = False) -> HmmModel:
    """Read a model JSON file and validate it.

    n_states and n_symbols must be JSON integers (not floats or booleans),
    every entry of pi, a and b a JSON number (not a boolean, string or
    null), and every error names the file. With renormalize=True, rows
    whose sums are off are divided by their sums before validation; off-sum
    rows are otherwise reported as errors so data bugs are not silently
    hidden.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path} must hold a JSON object")
    try:
        n = _exact_int(doc["n_states"], f"model file {path}: n_states")
        m = _exact_int(doc["n_symbols"], f"model file {path}: n_symbols")
        pi, a, b = doc["pi"], doc["a"], doc["b"]
    except KeyError as exc:
        raise ValueError(f"model file {path} is missing key {exc}") from None

    try:
        for key, value in (("pi", [pi]), ("a", a), ("b", b)):
            # pi is one row, a and b are lists of rows, and a row must hold
            # numbers, not lists; a row that is no list is left to the width
            # check below, and a matrix that is none to HmmModel's shape check
            rows = value if type(value) is list else [value]
            for i, row in enumerate(r if type(r) is list else [r] for r in rows):
                if not {int, float}.issuperset(map(type, row)):
                    bad = next(x for x in row if type(x) not in (int, float))
                    at = "" if key == "pi" else f" row {i}"
                    raise ValueError(f"{key}{at} must hold JSON numbers, got {json.dumps(bad)}")
            if key != "pi" and len({len(r) if type(r) is list else -1 for r in rows}) > 1:
                width = n if key == "a" else m  # name the first row numpy could not stack
                i = next(i for i, r in enumerate(rows) if type(r) is not list or len(r) != width)
                got = f"has {len(rows[i])} entries" if type(rows[i]) is list else "is not a list"
                raise ValueError(f"{key} row {i} {got}, expected {width}")
        model = HmmModel(n, m, pi, a, b)
        if renormalize:
            # A row summing to zero turns non-finite here; validation rejects it.
            with np.errstate(all="ignore"):
                pi = model.pi / model.pi.sum()
                a = model.a / model.a.sum(axis=1, keepdims=True)
                b = model.b / model.b.sum(axis=1, keepdims=True)
            model = HmmModel(n, m, pi, a, b)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: {exc}") from None

    violations = validate_model(model)
    if violations:
        raise ValueError(f"model file {path} is invalid: " + "; ".join(violations))
    return model


# 10**1 .. 10**18: a symbol below 2**63 has one digit more than it
# reaches of these
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def save_sequences(dataset: Dataset, path) -> None:
    """Write sequences one per line, symbols in decimal separated by single
    spaces: the plain text that `load_sequences` reads back as the same
    values and offsets.

    The text is built in one uint8 buffer by numpy calls over all symbols
    at once: each token's digit count, from comparisons with powers of ten,
    gives its place, its separator goes at its end (a newline after a line's
    last token), and its digits are filled from the last backwards, one
    pass per digit position over the tokens that have one.
    """
    values, offsets = dataset.values, dataset.offsets
    digits = np.ones(len(values), dtype=np.uint8)
    for power in _POWERS_OF_TEN:
        more = values >= power
        if not more.any():
            break
        digits += more
    at = np.cumsum(digits + 1, dtype=np.intp)  # one past each token's separator
    text = np.full(at[-1], ord("\n"), dtype=np.uint8)
    at -= 1  # each token's separator
    text[at] = ord(" ")
    text[at[offsets[1:] - 1]] = ord("\n")
    for place in range(int(digits.max())):
        if place:  # the tokens with a digit at this place
            live = digits > place
            at, values, digits = at[live], values[live], digits[live]
        at -= 1
        rest = values // 10  # not divmod, which takes several times as long
        text[at] = values - rest * 10 + ord("0")
        values = rest
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.tobytes().decode("ascii"))


def load_distinct_sequences(path, n_symbols: int | None = None) -> tuple[Dataset, np.ndarray]:
    """Parse a sequence file into its distinct lines and where they repeat:
    (distinct, inverse), where `distinct` holds each distinct line's
    sequence once, in order of first appearance, and inverse[i] is the row
    of `distinct` that holds sequence i of the file. The format and the
    faults are those of `load_sequences`.

    Lines are distinct as text: "1 2" and " 1 2" are two rows with equal
    symbols. A repeated line costs one dictionary lookup. The distinct
    lines go through `_parse_plain` when they are plain and no symbol is
    out of range; anything else (`+3`, `1_0`, `٣`, a NEL separator, a
    19-digit token, a fault) goes through `_parse_lines`, int() per
    distinct token.
    """
    index: dict[str, int] = {}  # distinct line -> its number, in order of first appearance
    with open(path, "r", encoding="utf-8") as fh:
        try:
            ids = np.array([index.setdefault(line, len(index)) for line in fh], dtype=np.int64)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    # a distinct line holds a sequence unless it is blank or a comment
    keep = np.array([t[:1] not in ("", "#") for t in map(str.strip, index)], dtype=bool)
    inverse = (np.cumsum(keep) - 1)[ids[keep[ids]]]  # skipped lines dropped
    if not inverse.size:
        raise ValueError(f"{path}: no sequences found")

    lines = list(itertools.compress(index, keep))  # in order of first appearance
    # text mode has turned every line end into one newline, and no kept
    # line is blank, so a plain parse gives one row per line
    parsed = _parse_plain("".join(lines).encode(), n_symbols)
    if parsed is None:  # name a bad line by its first line number
        first_line = (np.unique(ids, return_index=True)[1][keep] + 1).tolist()
        parsed = _parse_lines(path, lines, first_line, n_symbols)
    return Dataset.__new__(Dataset)._adopt(*parsed), inverse


def load_sequences(path, n_symbols: int | None = None) -> Dataset:
    """Parse a sequence file: one sequence per line, non-negative ints
    separated by whitespace; lines that are blank or start with '#' after
    stripping are ignored.

    A plain file goes whole through `_parse_plain`; any other, or one with
    a symbol >= n_symbols, gives the distinct lines of
    `load_distinct_sequences`, gathered back into file order. With
    n_symbols given, a symbol >= n_symbols is bad input too. Raises
    ValueError naming the file, and the 1-based line number of the first
    bad line where there is one, on bad input.
    """
    with open(path, "rb") as fh:
        parsed = _parse_plain(fh.read(), n_symbols)
    if parsed is not None:
        return Dataset.__new__(Dataset)._adopt(*parsed)
    distinct, inverse = load_distinct_sequences(path, n_symbols)
    return distinct if len(inverse) == len(distinct) else distinct.take(inverse)


# ASCII digits and the ASCII whitespace that text mode leaves as it is
_PLAIN = b"0123456789 \t\n\x0b\x0c"


def _parse_plain(raw: bytes, n_symbols):
    """(values, offsets) of the lines of `raw` that hold a token, lines
    ending at newlines, or None unless some line holds one, every byte is
    in _PLAIN, no token has more than 18 digits (so every one is below
    2**63) and every symbol is below n_symbols.

    Each token's last digit is gathered at its end, and each earlier
    digit, times its power of ten, is added in one pass per place, masked
    to 0 for the tokens too short to have it.
    """
    if raw.translate(None, _PLAIN):
        return None
    # a newline before and after give every token both its edges and
    # every line an end
    byte = np.frombuffer(b"\n".join((b"", raw, b"")), dtype=np.uint8)
    digit = byte > 32  # every byte in _PLAIN above the space is a digit
    edges = np.flatnonzero(digit[1:] != digit[:-1])  # before each token, then at its last digit
    del digit
    if not edges.size:
        return None
    before, last = edges[::2], edges[1::2]
    cut = np.searchsorted(before, np.flatnonzero(byte == 10))  # tokens before each newline
    # a line with no token adds no row; the added first line gives offsets[0] = 0
    offsets = cut[np.append(True, cut[1:] > cut[:-1])]
    del cut
    before -= last  # minus each token's length
    width = -int(before.min())
    if width > 18:
        return None
    values = np.subtract(byte[last], ord("0"), dtype=np.int64)
    for place in range(1, width):
        last -= 1
        # "clip": a short token near the start may reach before the first
        # byte; a token with no digit at this place gets 0 from the mask
        more = np.subtract(byte.take(last, mode="clip"), ord("0"), dtype=np.int64)
        more *= before < -place
        more *= 10**place
        values += more
    if n_symbols is not None and values.max() >= n_symbols:
        return None
    return values, offsets


class _SymbolTable(dict):
    """token -> int(token), calling int() once per distinct token."""

    def __missing__(self, tok: str) -> int:
        value = self[tok] = int(tok)
        return value


def _parse_lines(path, lines, first_line, n_symbols):
    """(values, offsets) of the distinct lines, which come in file order,
    through int() once per distinct token; raises the fault of the first
    bad line. A non-integer outranks a negative symbol, which outranks one
    out of range or too large for 64 bits."""
    values: list[int] = []
    counts: list[int] = []
    symbol = _SymbolTable().__getitem__
    for line, lineno in zip(lines, first_line):
        try:
            row = list(map(symbol, line.split()))
        except ValueError:
            fault = "symbols must be base-10 integers"
        else:
            top = max(row)
            if min(row) < 0:
                fault = "negative symbol"
            elif n_symbols is not None and top >= n_symbols:
                fault = f"symbol {top} is out of range for a model with {n_symbols} symbols"
            elif top >= 2**63:
                fault = f"symbol {top} does not fit in 64 bits"
            else:
                values += row
                counts.append(len(row))
                continue
        raise ValueError(f"{path}: line {lineno}: {fault}")
    return np.array(values, dtype=np.int64), _offsets(counts)
