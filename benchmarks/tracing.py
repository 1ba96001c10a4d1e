"""Spans recorded around calls into the gracetree package, from outside it.

A span is one timed call at a layer boundary: its name, start, end, the
span that was open when it began (its parent) and an item count.  Spans
stay in memory for one pass and are folded into per-name totals when the
pass ends.  A span's self time is its duration minus the durations of its
direct children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from time import perf_counter_ns

# Records pulled from a wrapped stream per span.  Timing every record would
# cost about as much as producing it; a few hundred per span make the
# timing cost negligible while the batch stays small enough for the cache.
STREAM_BATCH = 256

_NAME, _START, _END, _PARENT, _ITEMS = range(5)


@dataclass
class SpanTotals:
    """Per-name totals over one pass."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    items: int = 0
    # Items of this span's children, keyed by the child's name.
    child_items: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans for one pass; build a new one for every pass."""

    def __init__(self) -> None:
        self._spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        """Add to a counter kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _begin(self, name: str) -> list:
        record = [name, 0, 0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self._spans))
        self._spans.append(record)
        record[_START] = perf_counter_ns()
        return record

    def _end(self, record: list) -> None:
        record[_END] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields the span record."""
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def timed(self, name: str, fn):
        """Wrap a function so that every call is one span."""

        def wrapper(*args, **kwargs):
            record = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(record)

        return wrapper

    def stream(self, name: str, fn):
        """Wrap a generator function; each batch of records it yields is one span.

        The consumer's work between batches falls outside the spans, so it
        is charged to whatever span encloses the consumer.  Records pass
        through ``chain``, so the wrapper adds no Python frame per record.
        """

        def wrapper(*args, **kwargs):
            records = fn(*args, **kwargs)

            def batches():
                while True:
                    with self.span(name) as record:
                        chunk = list(islice(records, STREAM_BATCH))
                        record[_ITEMS] = len(chunk)
                    if not chunk:
                        return
                    yield chunk

            return chain.from_iterable(batches())

        return wrapper

    def totals(self) -> dict[str, SpanTotals]:
        """Fold the recorded spans into per-name totals."""
        child_ns = [0] * len(self._spans)
        for span in self._spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, SpanTotals] = {}
        for index, span in enumerate(self._spans):
            totals = out.setdefault(span[_NAME], SpanTotals())
            duration = span[_END] - span[_START]
            totals.calls += 1
            totals.total_ns += duration
            totals.self_ns += duration - child_ns[index]
            totals.items += span[_ITEMS]
            if span[_PARENT] >= 0:
                parent = out.setdefault(self._spans[span[_PARENT]][_NAME], SpanTotals())
                parent.child_items[span[_NAME]] = (
                    parent.child_items.get(span[_NAME], 0) + span[_ITEMS]
                )
        return out

