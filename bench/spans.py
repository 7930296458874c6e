"""In-memory spans taken around the benchmark's calls into fbt.

A span records its name, start, end, parent span and the number of layer
calls it covers (a batch of tiny calls may share one span).  Spans stay in
memory and are summarised when a pass ends.  The untraced passes use
`NULL_TRACER`, whose spans cost one attribute lookup and a no-op context.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, calls]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, calls]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and parent name.

        Self time is the span's duration minus the part covered by its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, calls) in enumerate(self.spans):
            entry = out.setdefault(name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0,
                "parent": self.spans[parent][0] if parent >= 0 else None})
            entry["calls"] += calls
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null


NULL_TRACER = _NullTracer()
