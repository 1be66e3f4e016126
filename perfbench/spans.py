"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.wrap` replaces a
public function where its callers look it up (a module attribute, or a
method on a class) with a wrapper that opens a span around the call, and
`Tracer.span` opens one around a call the benchmark makes itself. Every
span stores its name, start and end (perf_counter ns), the span that was
open when it started, and the current query id, so the spans of one query
share an id. Records go to compact arrays and are written out only when
the run ends.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.qid = array("q")
        self.counters: dict[str, int] = {}
        self.query_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.query_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _install(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        target = getattr(owner, attr)    # bound already when it is a classmethod
        wrapper = functools.wraps(target)(make_wrapper(target))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, classmethod)
                else wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        def make(target):
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return target(*args, **kwargs)
                finally:
                    self._close(idx)
            return traced
        self._install(owner, attr, make)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of owner.attr under `key` without opening spans."""
        self.counters.setdefault(key, 0)

        def make(target):
            def counted(*args, **kwargs):
                self.counters[key] += 1
                return target(*args, **kwargs)
            return counted
        self._install(owner, attr, make)

    def restore(self) -> None:
        """Undo every wrap and count, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def report(self) -> dict[tuple[str, str], list[int]]:
        """{(root span name, span name): [calls, total ns, self ns]}.

        The root is the outermost span open when a span started; self time
        is a span's duration minus the durations of its direct children.
        """
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        root = np.arange(len(dur))
        while True:   # climb one level per pass; spans nest only a few deep
            up = parent[root]
            if not (up >= 0).any():
                break
            root = np.where(up >= 0, up, root)
        names = np.asarray(self.name_id).astype(np.int64)
        keys, inv = np.unique(names[root] * len(self.names) + names, return_inverse=True)
        calls = np.bincount(inv)
        total = np.bincount(inv, weights=dur)
        own = np.bincount(inv, weights=dur - child)
        return {(self.names[k // len(self.names)], self.names[k % len(self.names)]):
                [int(c), int(t), int(s)]
                for k, c, t, s in zip(keys.tolist(), calls, total, own)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
            parent=np.asarray(self.parent), query_id=np.asarray(self.qid))
