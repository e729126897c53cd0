"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and an end (``time.perf_counter_ns``), the id
of the span that was open when it started, the id of the benchmark
operation it belongs to, and a few integer or float attributes (counts
such as eigenvalues or node-steps).  Spans are only appended to a list
while the run measures; they are written out once, when the run ends.

The untraced run uses ``NULL_TRACER``, whose spans record nothing, so
both runs execute the same workload code.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "op", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.attrs = {}

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self):
        tr = self.tracer
        self.id = tr.next_id
        tr.next_id += 1
        self.parent = tr.stack[-1].id if tr.stack else None
        self.op = tr.op
        tr.stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append(self)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        return False


class Tracer:
    """Collects spans of one traced pass."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.next_id = 0
        self.op = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def start_op(self, op_id: int) -> None:
        self.op = op_id

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


class _NullSpan:
    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def start_op(self, op_id: int) -> None:
        pass


NULL_TRACER = _NullTracer()


class SpanStats:
    """Per-name aggregates of one pass's spans."""

    def __init__(self, spans: list[_Span]):
        # one thread runs the workload, so child spans never overlap and
        # the time they cover is the sum of their durations
        child_ns = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        self.durations_ns = defaultdict(list)
        self.self_ns = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        self.top_level_ns = 0
        for s in spans:
            dur = s.end - s.start
            self.durations_ns[s.name].append(dur)
            self.self_ns[s.name] += dur - child_ns[s.id]
            if s.parent is None:
                self.top_level_ns += dur
            for key, value in s.attrs.items():
                if isinstance(value, (int, float)):
                    self.attrs[s.name][key] += value

    def calls(self, name: str) -> int:
        return len(self.durations_ns.get(name, ()))

    def busy_ms(self, name: str) -> float:
        return sum(self.durations_ns.get(name, ())) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def p50_ms(self, name: str) -> float:
        durations = self.durations_ns.get(name)
        return statistics.median(durations) / 1e6 if durations else 0.0

    def attr(self, name: str, key: str) -> float:
        return self.attrs[name][key] if name in self.attrs else 0.0


def write_jsonl(path, header: dict, passes: list[list[dict]]) -> None:
    """Write the run's header and every traced pass's spans, one per line."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for index, records in enumerate(passes):
            for rec in records:
                fh.write(json.dumps(dict(rec, traced_pass=index)) + "\n")
