"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public gvfswarm functions at the place where their
caller looks them up (a module global or a class attribute), so the
program itself is not edited and an untraced run executes exactly the
original code. Each call records one span: (id, name, start, end,
parent, job). Ids are handed out when a span opens, so a child knows
its parent while the parent is still running. Spans go into one flat
int64 array (48 bytes each) and are written out when the run ends.

Self time is a span's duration minus the durations of its direct
children; on one thread spans nest, so the children never overlap and
the self times of one root's tree sum to the root's duration.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

_FIELDS = 6  # id, name, start_ns, end_ns, parent (-1 for a root), job


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buf = array("q")
        self._ids = itertools.count()
        self._stack = [-1]
        self.job = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """fn, recording one span per call."""
        nid = self._name_id(name)
        stack = self._stack
        ids = self._ids
        extend = self._buf.extend

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                extend((sid, nid, start, end, parent, self.job))

        return traced

    @contextmanager
    def span(self, name: str):
        """One span around the body of a with block."""
        nid = self._name_id(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._buf.extend((sid, nid, start, end, parent, self.job))

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, span name) triples.

        The owner's own attribute is wrapped (``vars(owner)``), so a
        method stays a plain function and binds as before. Originals
        are restored on exit, even when the body raises.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) int64 array ordered by id."""
        tab = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, _FIELDS).copy()
        return tab[np.argsort(tab[:, 0], kind="stable")]

    def save(self, path: Path) -> None:
        np.savez(
            path,
            spans=self.table(),
            columns=np.array(["id", "name", "start_ns", "end_ns", "parent", "job"]),
            names=np.array(self.names),
        )


def self_times(tab: np.ndarray) -> np.ndarray:
    """Per-span self time in ns: duration minus the direct children's."""
    if len(tab) and not np.array_equal(tab[:, 0], np.arange(len(tab))):
        raise ValueError("span ids must be 0..n-1; a span was left open")
    dur = tab[:, 3] - tab[:, 2]
    child = np.zeros(len(tab), dtype=np.int64)
    has_parent = tab[:, 4] >= 0
    np.add.at(child, tab[has_parent, 4], dur[has_parent])
    return dur - child


def by_name(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Calls, total ns and self ns per span name."""
    tab = tracer.table()
    own = self_times(tab)
    dur = tab[:, 3] - tab[:, 2]
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = tab[:, 1] == nid
        out[name] = {
            "calls": int(sel.sum()),
            "total_ns": int(dur[sel].sum()),
            "self_ns": int(own[sel].sum()),
        }
    return out
