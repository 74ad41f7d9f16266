"""In-memory spans recorded around calls into the program's public functions.

A span is ``(name, start, end, parent, request)``.  Spans are kept in memory
and written out once, at the end of a traced run.  A layer's self time is its
spans' durations minus the time their child spans cover; children of one
span never overlap, because everything traced runs on one thread.

Per-row work (the table generators and the injector) would need a span per
row, so :meth:`Tracer.iterate` fills one *aggregate* span per stream: its
duration is the summed time of every ``next()`` call and ``calls`` counts them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

_now = time.perf_counter


class Tracer:
    """Records spans; ``enabled=False`` makes every hook a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Optional[dict]] = []
        self._stack: List[int] = []

    def _open(self, name: str, request: Optional[int], parent: Optional[int]) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {"span": len(self.spans), "name": name, "parent": parent,
             "request": request}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """Time the ``with`` body as one span nested in the innermost open one."""
        if not self.enabled:
            yield None
            return
        span_id = self._open(name, request, None)
        self._stack.append(span_id)
        start = _now()
        try:
            yield span_id
        finally:
            end = _now()
            self._stack.pop()
            self.spans[span_id].update(start=start, end=end)

    def reserve(self, name: str, parent: Optional[int] = None) -> Optional[int]:
        """Open an aggregate span for :meth:`iterate` (nested in the innermost
        open span unless ``parent`` is given)."""
        return self._open(name, None, parent) if self.enabled else None

    def iterate(self, span_id: Optional[int], rows: Iterable) -> Iterator:
        """Yield ``rows`` unchanged, timing every ``next()`` into ``span_id``."""
        if span_id is None:
            return iter(rows)
        return _TimedIterator(self.spans[span_id], iter(rows))

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] = child.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child.get(span["span"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def last_duration(self) -> float:
        """Duration of the most recently opened span."""
        span = self.spans[-1]
        return span["end"] - span["start"]

    def totals(self, name: str) -> float:
        """Summed duration (children included) of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class _TimedIterator:
    __slots__ = ("_span", "_rows", "_spent", "_calls", "_first")

    def __init__(self, span: dict, rows: Iterator) -> None:
        self._span, self._rows = span, rows
        self._spent, self._calls, self._first = 0.0, 0, None

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        start = _now()
        if self._first is None:
            self._first = start
        try:
            row = next(self._rows)
        except StopIteration:
            self._spent += _now() - start
            self._span.update(
                start=self._first, end=self._first + self._spent,
                calls=self._calls,
            )
            raise
        self._spent += _now() - start
        self._calls += 1
        return row
