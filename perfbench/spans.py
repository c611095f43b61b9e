"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, counters). Spans are opened around
calls into the program's public functions, from the benchmark's own code
or from wrappers installed at run time on a module's namespace, and are
kept in memory until the run writes them out. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullSpans:
    """Stand-in for untraced runs: calls straight through, records nothing."""

    def call(self, name, fn, *args, counters=None, **kwargs):
        return fn(*args, **kwargs)


class Spans:
    """Records nested spans in memory."""

    def __init__(self) -> None:
        # each record: [name, start, end, parent index or -1, counters dict]
        self.records: list[list] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, {}]
        self._stack.append(len(self.records))
        self.records.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, counters=None, **kwargs):
        """Call fn inside a span; `name` may be a function of (args, kwargs).

        `counters(result, args, kwargs)` returns a dict of counts stored on
        the span, such as steps taken or bytes written.
        """
        label = name(args, kwargs) if callable(name) else name
        rec = self._open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if counters is not None:
            rec[4] = counters(result, args, kwargs)
        return result

    @contextmanager
    def span(self, name: str, **counters):
        rec = self._open(name)
        rec[4] = dict(counters)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, namespace, attr: str, name, counters=None) -> None:
        """Replace namespace.attr with a wrapper that records a span per call."""
        original = getattr(namespace, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, counters=counters, **kwargs)

        setattr(namespace, attr, wrapper)
        self._wrapped.append((namespace, attr, original))

    def unwrap_all(self) -> None:
        while self._wrapped:
            namespace, attr, original = self._wrapped.pop()
            setattr(namespace, attr, original)


def aggregate(records: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed counters."""
    child_time = [0.0] * len(records)
    for name, start, end, parent, _ in records:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for k, (name, start, end, parent, counters) in enumerate(records):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "counters": {}})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[k]
        for key, value in counters.items():
            row["counters"][key] = row["counters"].get(key, 0) + value
    return table


def to_json(records: list[list], origin: float) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from `origin`."""
    return [{"id": k, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent, **counters}
            for k, (name, start, end, parent, counters) in enumerate(records)]
