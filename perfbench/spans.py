"""In-memory spans for the traced run, written out when the run ends."""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Recorder:
    """Spans of one workload: name, start, end, parent span and op id.

    Spans are opened by the benchmark around its own calls into relbell;
    nothing inside the package is wrapped.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        index = len(self.spans)
        record = {"name": name, "op": op, "parent": parent, "start": time.perf_counter()}
        self.spans.append(record)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()

    def ids(self, op: int, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["op"] == op and s["name"] == name]

    def durations(self, op: int) -> dict[str, float]:
        """Total seconds per span name within one op."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] == op:
                totals[s["name"]] += s["end"] - s["start"]
        return totals

    def dump(self) -> list[dict]:
        return [dict(s, id=i, workload=self.workload) for i, s in enumerate(self.spans)]


def span(recorder: Recorder | None, name: str, op: int | None, parent: int | None = None):
    """A span on ``recorder``, or nothing when tracing is off."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, op, parent)


def write_spans(path, recorders) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump([s for r in recorders for s in r.dump()], stream)
