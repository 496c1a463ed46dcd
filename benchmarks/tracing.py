"""Spans around calls into walklab's layers, kept in memory until the run ends.

A span records its name, start, end, parent span, a work count (steps,
letters, samples) and whether the call raised. Self time is a span's duration
minus the time its child spans cover. Wrappers go on the attributes that
callers look functions up by (a module global, a list slot) and come off
again when the traced section ends, so untraced rounds run the bare library.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.failed = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, work=None, rename=None):
        """Return `fn` recording one span per call.

        `name` is a string or a function of the call's arguments, `work` a
        function of the arguments giving the work count (default 1), and
        `rename` a function of the result that renames the span afterwards.
        """
        fixed = self._id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            i = len(self.end)
            self.name.append(fixed if fixed is not None else self._id(name(*args, **kwargs)))
            self.parent.append(self._stack[-1])
            self.work.append(work(*args, **kwargs) if work else 1)
            self.failed.append(0)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()
            if rename is not None:
                self.name[i] = self._id(rename(result))
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self ns, work, failures, median ns."""
        n = len(self.end)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        child = np.zeros(n, dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            m = names == nid
            if not m.any():
                continue
            out[name] = {
                "count": int(m.sum()),
                "total_ns": int(dur[m].sum()),
                "self_ns": int(own[m].sum()),
                "median_ns": float(np.median(dur[m])),
                "work": int(work[m].sum()),
                "failed": int(failed[m].sum()),
            }
        return out


def _get(owner, key):
    return owner[key] if isinstance(owner, list) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, list):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextmanager
def patched(tracer: Tracer, targets):
    """Install span wrappers on (owner, key, name, work, rename) targets.

    The owner is a module or class (key: attribute name) or a list (key:
    index), such as a registry of check functions.
    """
    saved = []
    try:
        for owner, key, name, work, rename in targets:
            fn = _get(owner, key)
            saved.append((owner, key, fn))
            _set(owner, key, tracer.wrap(fn, name, work, rename))
        yield
    finally:
        for owner, key, fn in reversed(saved):
            _set(owner, key, fn)
