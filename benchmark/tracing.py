"""In-memory spans around calls into chargegame's modules.

``Tracer.wrap`` replaces a module attribute with a wrapper that records one
span per call; ``Tracer.restore`` puts every original object back.  Spans
carry a name, start, end, parent, thread id and the CPU time of their thread,
and stay in memory until the benchmark asks for the numbers.

A span opened on a thread that has no open span of its own (a worker of the
sweep's thread pool) takes as parent the innermost span open on the thread
that created the tracer, so grid points run by ``--threads 2`` still count as
children of ``experiments.run_sweep``.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    cpu: float = 0.0  # CPU time of the span's own thread, so GIL waits count 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children, clipped to the span.

    Children that ran side by side on two threads cover their overlap once.
    """
    children: dict = {s.id: [] for s in spans}
    for s in spans:
        if s.parent in children:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if min(c.end, s.end) > max(c.start, s.start)
        ]
        out[s.id] = s.duration - union_length(clipped)
    return out


class Tracer:
    """Collects spans; wraps module attributes and restores them."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks: dict = {}  # thread id -> list of open span ids
        self._root_thread = threading.get_ident()
        self._originals: list = []  # (module, attribute, original object)

    def _open(self) -> tuple:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if (root and tid != self._root_thread) else None
            span_id = self._next_id
            self._next_id += 1
            stack.append(span_id)
        return span_id, parent, tid

    @contextmanager
    def span(self, name: str):
        span_id, parent, tid = self._open()
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            span = Span(span_id, name, start, time.perf_counter(), parent, tid, time.thread_time() - cpu)
            with self._lock:
                self._stacks[tid].remove(span_id)
                self.spans.append(span)

    def wrap(self, module, attribute: str, name: str) -> None:
        original = getattr(module, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._originals.append((module, attribute, original))
        setattr(module, attribute, traced)

    def restore(self) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)

    # --- aggregation -----------------------------------------------------

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(own[s.id] for s in self.named(name))

    def child_cpu(self, name: str, prefix: str) -> float:
        """Summed thread CPU time of the spans named ``prefix*`` whose parent is ``name``."""
        parents = {s.id for s in self.named(name)}
        return sum(s.cpu for s in self.spans if s.parent in parents and s.name.startswith(prefix))
