"""Fixed reference loops that measure how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by up to about 2x,
often from one tenth of a second to the next (frequency and sibling-thread
contention, which a process cannot see in its own CPU time either). The drift hits the program
and these loops alike, so the host is probed with a loop before, during
and after every timed step, and the step's wall time is scaled by REF_S
over the loop's time: the time the step would take on a host that runs
the loop in REF_S seconds. A program that gets 20% slower still reports
20% more time.

The loops never call hmmaccel, so a change to the program cannot move
them. Drift does not slow all code alike, so there are two loops, each
like the work of the steps it stands for. The "mixed" loop is interpreted
Python (parsing text into integers, dict updates) plus small-array numpy
calls (a scaled forward recursion over an 8-state model), like parsing,
training and scoring. The "integer" loop is a DTW table over Python lists
of ints, like a distance scan.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds each loop takes at the reference host speed, a speed within the
# drift of a 2.0 GHz Xeon, so reference seconds are of the order of wall
# seconds there. Only ratios between runs matter; these never change.
REF_S = {"mixed": 0.001, "integer": 0.001}
# Seconds between probes inside a step. The host's speed can change from
# one tenth of a second to the next, so probes are short and frequent.
INTERVAL = 0.02

_rng = np.random.default_rng(20130415)
_TEXT = "\n".join(" ".join(map(str, _rng.integers(0, 40, 20))) for _ in range(40))
_A = _rng.dirichlet(np.ones(8), size=8)
_B = _rng.dirichlet(np.ones(40), size=8)
_OBS = _rng.integers(0, 40, 100).tolist()
_PAIRS = [(_rng.integers(0, 40, 40).tolist(), _rng.integers(0, 40, 40).tolist())
          for _ in range(3)]


def _mixed() -> None:
    total = 0
    for line in _TEXT.splitlines():
        total += sum(int(t) for t in line.split())
    counts: dict[int, int] = {}
    for i in range(2700):
        counts[i % 97] = counts.get(i % 97, 0) + i
    alpha = np.full(8, 1 / 8)
    for o in _OBS:
        alpha = (alpha @ _A) * _B[:, o]
        alpha /= alpha.sum()


def _integer() -> None:
    for xs, ys in _PAIRS:
        m = len(ys)
        prev = [0] * m
        for x in xs:
            row = [0] * m
            row[0] = prev[0] + abs(x - ys[0])
            for j in range(1, m):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if row[j - 1] < best:
                    best = row[j - 1]
                row[j] = best + abs(x - ys[j])
            prev = row


_LOOPS = {"mixed": _mixed, "integer": _integer}


def probe(kind: str) -> float:
    """Seconds one pass of the reference loop of this kind takes now."""
    t0 = perf_counter()
    _LOOPS[kind]()
    return perf_counter() - t0


class Step:
    """Times one in-process step in reference seconds.

    The host is probed just before the step, every INTERVAL seconds during
    it (from a timer signal, so the speed can change within a long step)
    and just after it. The time spent probing inside the step is taken out
    of its wall time; `seconds` is the rest, times the mean host speed.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.probes: list[float] = []
        self.probing = 0.0
        self.wall = self.speed = self.seconds = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(probe(self.kind))
        self.probing += perf_counter() - t0

    def __enter__(self) -> "Step":
        self.probes.append(probe(self.kind))
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.wall = t1 - self._t0 - self.probing
        self.probes.append(probe(self.kind))
        self.speed = REF_S[self.kind] * statistics.fmean(1 / p for p in self.probes)
        self.seconds = self.wall * self.speed


def speed(before: float, after: float, kind: str) -> float:
    """Host speed around a step, from the probes of its kind taken just
    before and just after it: wall seconds times this are reference seconds."""
    return REF_S[kind] / ((before + after) / 2)
