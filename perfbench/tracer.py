"""In-memory span recorder that wraps functions where their callers look them up.

A hook rebinds `module.attr` to a wrapper that records one span per call:
name, start, end (perf_counter_ns) and the index of the enclosing span.
Spans live in flat arrays and are written out only when the run ends.  A
span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._plan: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> None:
        self.counters.setdefault(name, 0)

    def _span_wrapper(self, name: str, fn, on_result):
        nid = self._name_id(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_ids, self.parents, self.starts, self.ends
        )
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _target(self, module, attr: str):
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; its metrics read 0", file=sys.stderr)
        return original

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        """Plan a span named `name` around every call that looks up module.attr."""
        self._name_id(name)
        original = self._target(module, attr)
        if original is not None:
            self._plan.append((module, attr, self._span_wrapper(name, original, on_result)))

    def count(self, module, attr: str, name: str) -> None:
        """Plan a plain call counter (no span) on module.attr."""
        self.counter(name)
        original = self._target(module, attr)
        if original is not None:
            self._plan.append((module, attr, self._count_wrapper(name, original)))

    def install(self) -> None:
        for module, attr, wrapper in self._plan:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _arrays(self):
        nid = np.frombuffer(self.name_ids, dtype=np.int64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        return nid, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and duration percentiles."""
        nid, parent, dur = self._arrays()
        k = len(self.names)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_total = np.bincount(nid, weights=self_ns, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            durs = dur[nid == i]
            out[name] = {
                "calls": int(calls[i]),
                "s": float(total[i]) / 1e9,
                "self_s": float(self_total[i]) / 1e9,
                # a percentile needs at least ten samples beyond it
                "p50_ms": float(np.percentile(durs, 50)) / 1e6 if len(durs) >= 20 else 0.0,
                "p90_ms": float(np.percentile(durs, 90)) / 1e6 if len(durs) >= 100 else 0.0,
            }
        return out

    def write(self, path: str) -> None:
        nid, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )
