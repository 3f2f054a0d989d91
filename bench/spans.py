"""In-memory span recorder that wraps functions from the outside.

A :class:`Tracer` replaces named attributes (module functions, class
methods) with timing wrappers, records one span per call (name, start, end,
parent span, run id) in flat integer arrays, and restores every original
attribute on :meth:`Tracer.remove`. Garbage-collector pauses are recorded
as ``runtime.gc`` spans through ``gc.callbacks``. Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of a run.

Single-threaded use only: the parent of a span is whatever span is open on
the one call stack when it starts.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable

GC_SPAN = "runtime.gc"

# hook(tracer, args, kwargs, result) runs after a wrapped call returns
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans for wrapped callables; one instance per traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.run_labels: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._current_run = -1
        self._patches: list[tuple[object, str, object]] = []
        self._gc_open: int | None = None

    # -- recording ---------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Tag the spans that follow with a new run id."""
        self.run_labels.append(label)
        self._current_run = len(self.run_labels) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.run.append(self._current_run)
        self._stack.append(idx)
        self.start[idx] = self.clock()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = self._open(self._name_id(GC_SPAN))
        elif self._gc_open is not None:
            self._close(self._gc_open)
            self._gc_open = None

    # -- installing and removing wrappers ----------------------------------

    def install(self, targets: Iterable[tuple[object, str, str, Hook | None]]) -> None:
        """Wrap ``owner.attr`` for each (owner, attr, span name, hook) target."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, hook in targets:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))
        gc.callbacks.append(self._gc_callback)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def has_ancestor(self, idx: int, name: str) -> bool:
        target = self._name_ids.get(name)
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] == target:
                return True
            p = self.parent[p]
        return False

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it that its children cover."""
        return self_times(self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.span_name(i),
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "run": self.run_labels[self.run[i]] if self.run[i] >= 0 else None,
                }) + "\n")


def self_times(start, end, parent) -> list[int]:
    """Span durations minus the union of their children's intervals.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        intervals = sorted((max(start[k], start[p]), min(end[k], end[p])) for k in kids)
        covered = 0
        cur_lo, cur_hi = None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
