"""Discrete-observation HMM parameters, datasets, validation, and sampling.

A model is the full parameter set (pi, A, B) over N hidden states and M
observation symbols. Observation sequences are 1-D integer arrays with
0-based symbol indices. All randomness goes through numpy's default_rng
(PCG64), so sampling is reproducible given a seed.
"""

from __future__ import annotations

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

    @classmethod
    def from_arrays(cls, pi, a, b) -> "HmmModel":
        """Build a model, taking N and M from the array shapes."""
        pi = np.asarray(pi, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return cls(n_states=pi.shape[0], n_symbols=b.shape[1], pi=pi, a=a, b=b)


@dataclass
class Dataset:
    """Ordered training sequences for one category.

    Clustering scans sequences in list order, so order is preserved.
    """

    sequences: list[np.ndarray]
    category_id: int = 0

    def __len__(self) -> int:
        return len(self.sequences)


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


def sample_sequences(
    model: HmmModel, count: int, length: int, seed: int, category_id: int = 0
) -> Dataset:
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

    return Dataset(sequences=list(symbols), category_id=category_id)


# ---------------------------------------------------------------------------
# File formats


def save_model(model: HmmModel, path) -> None:
    """Write a model as JSON with keys n_states, n_symbols, pi, a, b."""
    doc = {
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "pi": model.pi.tolist(),
        "a": model.a.tolist(),
        "b": model.b.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _exact_int(value, where: str) -> int:
    """value itself if it is a JSON integer (not a bool), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def load_model(path, renormalize: bool = False) -> HmmModel:
    """Read a model JSON file and validate it.

    n_states and n_symbols must be JSON integers (not floats or booleans),
    and every error names the file. With renormalize=True, rows whose sums
    are off are divided by their sums before validation; off-sum rows are
    otherwise reported as errors so data bugs are not silently hidden.
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
        model = HmmModel(n, m, pi, a, b)
        if renormalize:
            # A row summing to zero turns non-finite here; validation rejects it.
            with np.errstate(all="ignore"):
                pi = model.pi / model.pi.sum()
                a = model.a / model.a.sum(axis=1, keepdims=True)
                b = model.b / model.b.sum(axis=1, keepdims=True)
            model = HmmModel(n, m, pi, a, b)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: {exc}") from None

    violations = validate_model(model)
    if violations:
        raise ValueError(f"model file {path} is invalid: " + "; ".join(violations))
    return model


def save_sequences(dataset: Dataset, path) -> None:
    """Write sequences one per line, symbols space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in dataset.sequences:
            fh.write(" ".join(str(int(s)) for s in seq))
            fh.write("\n")


def load_sequences(path, category_id: int = 0, n_symbols: int | None = None) -> Dataset:
    """Parse a sequence file: one sequence per line, non-negative ints
    separated by spaces; lines starting with '#' and blank lines ignored.

    With n_symbols given, a symbol >= n_symbols is bad input too. Raises
    ValueError naming the file, and the 1-based line number where there is
    one, on bad input.
    """
    sequences = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                try:
                    values = [int(tok) for tok in stripped.split()]
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: symbols must be base-10 integers"
                    ) from None
                if min(values) < 0:
                    raise ValueError(f"{path}: line {lineno}: negative symbol")
                if n_symbols is not None and max(values) >= n_symbols:
                    raise ValueError(
                        f"{path}: line {lineno}: symbol {max(values)} is out of range "
                        f"for a model with {n_symbols} symbols"
                    )
                sequences.append(np.array(values, dtype=np.int64))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not sequences:
        raise ValueError(f"{path}: no sequences found")
    return Dataset(sequences=sequences, category_id=category_id)
