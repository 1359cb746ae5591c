"""In-memory span recorder for the benchmark's traced runs.

Spans are placed only in the benchmark's own code, around its calls
into the simulator's public functions; nothing inside ``repro`` is
instrumented.  Each span records its name, layer (the ``repro``
module the call enters), start and end (``perf_counter_ns``), the
span that was open on the same thread when it began (its parent) and
the run id shared by every span of one benchmark run.  Spans stay in
memory until :meth:`SpanRecorder.write` dumps them as JSON lines.

The untraced runs use :data:`NO_SPANS`, whose ``span`` returns one
shared no-op context manager, so the timed phase of an untraced run
pays a method call per public call and nothing else.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Thread-safe collector of nested spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = Span(
                span_id, name, layer, start, end, parent, self.run_id,
                threading.get_ident(),
            )
            with self._lock:
                self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start_ns):
                fh.write(json.dumps(asdict(span)) + "\n")


class _NoSpans:
    """The recorder of untraced runs: every span is a shared no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null


NO_SPANS = _NoSpans()


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of
    ``intervals`` (clipped to it)."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    covered = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def self_times_ns(spans) -> dict[int, int]:
    """Each span's self time: its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    return {
        span.id: span.duration_ns
        - _covered_ns(span.start_ns, span.end_ns, children.get(span.id, ()))
        for span in spans
    }


def layer_self_times_ns(spans) -> dict[str, int]:
    """Self time summed per layer."""
    own = self_times_ns(spans)
    totals: dict[str, int] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0) + own[span.id]
    return totals
