"""In-memory spans for the traced run.

A span is (id, parent id, operation id, name, start, end) in perf_counter
seconds.  Spans stay in a list while the benchmark runs and are written out
once at the end, so recording one costs two clock reads and an append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.labels: dict[int, str] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end))

    @contextmanager
    def operation(self, name: str, label: str):
        """Root span of one operation; its id is the operation's id.  `label` names the input."""
        self.op_id = self._next_id
        self.labels[self.op_id] = label
        with self.span(name) as span_id:
            yield span_id

    def by_operation(self) -> dict[int, dict[str, float]]:
        """Operation id -> span name -> summed duration in seconds."""
        out: dict[int, dict[str, float]] = {}
        for _, _, op, name, start, end in self.spans:
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, span_name, start, end in self.spans if span_name == name]

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["operations"] = self.labels
        doc["spans"] = [
            {"id": i, "parent": parent, "op": op, "name": name, "start": start, "end": end}
            for i, parent, op, name, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
