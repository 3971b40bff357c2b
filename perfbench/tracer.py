"""Span tracer installed from outside the program by rebinding module names.

Each caller looks a function up in its own module namespace, so a wrapper
goes on every name a caller uses (for example both
`controller.segment_has_collision` and `bench.segment_has_collision`).
Spans are (id, name, start, end, parent id, episode id) tuples kept in
memory and written out at the end; per-name calls, total time and self time
(duration minus the time covered by child spans) are aggregated exactly for
every span, including the ones past the in-memory cap.
"""

from __future__ import annotations

import functools
import time

DEFAULT_KEEP = 100_000


class Tracer:
    def __init__(self, keep: int = DEFAULT_KEEP):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.episode = -1
        self._stack: list[list] = []  # open spans: [id, name, start, child_s]
        self._next_id = 0

    @property
    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span. `name` may be a callable of
        (tracer, args), resolved at call time. `before(tracer, args)` runs
        ahead of the span; `after(tracer, args, result)` records counts from
        the call's arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            label = name(tracer, args) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, label, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _close(self, frame, end):
        span_id, label, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        agg = self.stats.setdefault(label, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if len(self.spans) < self.keep:
            self.spans.append((span_id, label, start, end,
                               parent[0] if parent is not None else -1,
                               self.episode))
        else:
            self.dropped += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,episode\n")
            for span_id, label, start, end, parent, episode in self.spans:
                fh.write(f"{span_id},{label},{start:.9f},{end:.9f},{parent},{episode}\n")


class Patcher:
    """Rebinds attributes and restores every original on `restore()`."""

    def __init__(self):
        self._saved: list[tuple] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
