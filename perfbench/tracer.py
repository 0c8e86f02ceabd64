"""In-memory span tracer for the benchmark's traced runs.

A span records name, start, end, parent span and thread.  `Tracer.wrap`
replaces a function attribute on a module (the place where callers look it
up) with a wrapper that opens a span around each call; `Tracer.restore` puts
every original back.  A span opened on a thread that has no open span of its
own (a pool worker) is parented to the innermost open span of the thread that
installed the tracer, which is the call that started the pool.

Self time follows the usual definition: a span's duration minus the part of
its interval that its child spans cover, children on other threads included.
Nothing here imports the package under test.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; use as a context manager so wrapped names
    are always restored."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].id
            else:
                home = self._stacks.get(self._home) if tid != self._home else None
                parent = home[-1].id if home else None
            span = Span(len(self.spans), name, self.clock(), parent, tid)
            self.spans.append(span)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        with self._lock:
            stack = self._stacks[span.thread]
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span.name!r} closed out of order")
            stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace `owner.attr` by a traced wrapper.

        `on_call(span, args, kwargs, result)` runs after each call returns and
        may add entries to `span.counts`.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        traced.tracer = self
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def still_wrapped(self, modules) -> list:
        """Names in `modules` that still hold one of this tracer's wrappers."""
        return [
            f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if getattr(v, "tracer", None) is self
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- analysis ------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = s.duration - union_length((a, b) for a, b in kids if b > a)
    return out


def parallel_overlap(spans) -> float:
    """Time counted more than once because spans parented across threads ran
    concurrently: sum of their durations minus the union of their intervals,
    per parent."""
    by_parent: dict[int, list[Span]] = {}
    index = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and index[s.parent].thread != s.thread:
            by_parent.setdefault(s.parent, []).append(s)
    return sum(
        sum(c.duration for c in kids) - union_length((c.start, c.end) for c in kids)
        for kids in by_parent.values()
    )


def aggregate(spans) -> dict:
    """Per span name: total duration `s`, total self time `self_s`, `calls`,
    and the sum of every count the spans carry."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += s.duration
        entry["self_s"] += selfs[s.id]
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out
