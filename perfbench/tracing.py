"""Spans recorded from outside the program, for the traced run only.

`Tracer.install` replaces public functions at each module boundary with
timing wrappers, under the names their callers look up (for example
`hmmaccel.training.forward_backward`, which the EM loop calls), and
`uninstall` puts the originals back. Spans hold a name, start, end,
parent span and step id (one step is one `hmmaccel` command); they stay in
flat arrays in memory and are written out once, when the run ends.
A target that no longer exists is skipped, so its count reads 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from time import perf_counter

import numpy as np


def _fb_steps(args, result) -> float:
    model, seq = args[0], args[1]
    return float(len(seq) * model.n_states**2)


def _symbols(args, result) -> float:
    return float(sum(len(s) for s in result.sequences))


# (module, attribute, note): `note` turns a call into a number kept on its
# span, e.g. the work it did or whether a distance was zero. The layer of a
# span is the module that defines the function: model, clustering, dtw,
# inference or training.
TARGETS = [
    ("hmmaccel.cli", "sample_sequences", None),
    ("hmmaccel.cli", "save_sequences", None),
    ("hmmaccel.cli", "load_sequences", _symbols),
    ("hmmaccel.cli", "load_model", None),
    ("hmmaccel.cli", "save_model", None),
    ("hmmaccel.cli", "build_clusters", None),
    ("hmmaccel.cli", "save_cluster_table", None),
    ("hmmaccel.cli", "load_cluster_table", None),
    ("hmmaccel.clustering", "dtw_distance", lambda a, r: float(r.distance == 0.0)),
    ("hmmaccel.clustering", "euclidean_distance", lambda a, r: float(r == 0.0)),
    ("hmmaccel.training", "forward_backward", _fb_steps),
    ("hmmaccel.cli", "likelihood", None),
    ("hmmaccel.cli", "viterbi", None),
    ("hmmaccel.cli", "initialize_model", None),
    ("hmmaccel.cli", "em_train", None),
    ("hmmaccel.cli", "weighted_em_train", None),
    ("hmmaccel.cli", "write_trace_csv", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.step = array("l")
        self.note = array("d")
        self._stack: list[int] = []
        self._step = -1
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self._step)
        self.note.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_step(self, name: str) -> int:
        """Open the root span of a new step."""
        self._step += 1
        return self.open(self.name_id(name))

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.note[idx] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, note in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", fn, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def frame(self, lo: int, hi: int, scale=1.0) -> "Frame":
        return Frame(self, lo, hi, scale)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: [name, start, end, parent, step]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                row = [self.names[self.name[i]], self.start[i], self.end[i],
                       self.parent[i], self.step[i]]
                fh.write(json.dumps(row) + "\n")


class Frame:
    """Spans lo..hi-1, with durations and self times (duration minus the
    time covered by direct child spans). Durations are multiplied by
    `scale`: one factor, or one per step in the frame."""

    def __init__(self, tracer: Tracer, lo: int, hi: int, scale=1.0):
        # Slicing copies, so the tracer's arrays stay free to grow.
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name[lo:hi], dtype=np.int_)
        if np.ndim(scale) and hi > lo:
            step = np.frombuffer(tracer.step[lo:hi], dtype=np.int_)
            scale = np.asarray(scale)[step - step[0]]
        self.dur = scale * (np.frombuffer(tracer.end[lo:hi]) - np.frombuffer(tracer.start[lo:hi]))
        self.note = np.frombuffer(tracer.note[lo:hi])
        parent = np.frombuffer(tracer.parent[lo:hi], dtype=np.int_) - lo
        inside = parent >= 0
        children = np.zeros(hi - lo)
        np.add.at(children, parent[inside], self.dur[inside])
        self.self_time = self.dur - children
        self.parent_name = np.where(inside, self.name[np.where(inside, parent, 0)], -1)

    def mask(self, *names: str, parent: str | None = None) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        hit = np.isin(self.name, ids)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            hit &= self.parent_name == pid
        return hit

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str, parent: str | None = None) -> float:
        return float(self.dur[self.mask(*names, parent=parent)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def notes(self, *names: str) -> float:
        return float(self.note[self.mask(*names)].sum())

    def durations(self, *names: str) -> np.ndarray:
        return self.dur[self.mask(*names)]
