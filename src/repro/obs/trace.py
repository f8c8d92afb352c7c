"""Lightweight request tracing for the serving stack.

Answers the question the flat end-of-batch counters cannot: *where did
this one slow request spend its time?* A :class:`Tracer` opens one
:class:`TraceBuilder` per request; every layer the request crosses —
server admission, session freeze/export/pool spin-up, scheduler
dispatch, per-task queue wait, worker compute/encode — records a
span under the same ``trace_id``. Completed
traces land in a bounded in-process :class:`TraceCollector` ring
buffer, retrievable via ``session.last_trace()`` or the server
``trace`` op, and any request slower than a configured threshold is
emitted as one structured log line with its span breakdown.

Design constraints, in priority order:

- **Disabled cost is one attribute check.** ``Tracer.begin()`` returns
  ``None`` when tracing is off; every call site guards with
  ``if trace is not None``. Worker-side hooks guard on a single module
  flag (:func:`record_event`). Nothing allocates until tracing is on.
- **No new IPC.** Spawned workers never see the trace context. They
  record *ambient events* — ``(task_index, name, seconds, attrs)``
  tuples behind a module flag — which ride back to the parent inside
  the existing result-pipe stat-delta dict (an extra ``"_spans"`` key
  the stat fold ignores). The parent re-parents them under the task's
  span at merge time, so ids are assigned exactly once, in one
  process. Worker span *durations* are exact; their start offsets are
  approximate (stamped at merge), which is fine for attribution.
- **Hash-seed independence.** Trace and span ids come from
  :func:`os.urandom`, never ``hash()``, so ids are well-formed and
  unique regardless of ``PYTHONHASHSEED``.

Span tree shape (what ``last_trace()`` returns)::

    {"trace_id": "9f2c...", "name": "run", "duration_ms": 41.2,
     "span_count": 9,
     "root": {"name": "run", "span_id": "...", "parent_id": None,
              "start_ms": 0.0, "duration_ms": 41.2, "attrs": {...},
              "children": [...]}}
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "Span",
    "TraceBuilder",
    "TraceCollector",
    "Tracer",
    "ambient_enabled",
    "disable_ambient",
    "drain_ambient",
    "enable_ambient",
    "format_trace",
    "new_span_id",
    "new_trace_id",
    "record_event",
    "set_ambient_task",
]


def new_trace_id() -> str:
    """16 hex chars from ``os.urandom`` — PYTHONHASHSEED-independent."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """8 hex chars from ``os.urandom`` — PYTHONHASHSEED-independent."""
    return os.urandom(4).hex()


class Span:
    """One timed operation inside a trace.

    ``start`` is a ``time.perf_counter()`` stamp local to the builder's
    process; exported dicts carry only the offset from the trace origin
    so cross-process clock bases never leak into the output.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        duration: float | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs or {}

    def to_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": (
                None
                if self.duration is None
                else round(self.duration * 1000.0, 3)
            ),
            "attrs": dict(self.attrs),
        }


class TraceCollector:
    """Bounded ring buffer of completed trace trees (newest wins)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("trace collector capacity must be >= 1")
        self.capacity = capacity
        self._traces: list[dict] = []
        self._lock = threading.Lock()

    def add(self, trace: dict) -> None:
        with self._lock:
            self._traces.append(trace)
            if len(self._traces) > self.capacity:
                del self._traces[: len(self._traces) - self.capacity]

    def last(self) -> dict | None:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            for trace in reversed(self._traces):
                if trace.get("trace_id") == trace_id:
                    return trace
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class TraceBuilder:
    """Accumulates the spans of one request and folds them into a tree.

    All spans live in a flat append-only list; parents are always
    appended before their children, so tree assembly is a single pass.
    A small lock guards appends — the idle-shrink ticker thread can
    absorb a stray lease message while the session thread records.
    """

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        collector: TraceCollector | None = None,
        slow_ms: float = 0.0,
        logger=None,
        **attrs,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self._collector = collector
        self._slow_ms = slow_ms
        self._logger = logger
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self.root = Span(
            self.trace_id,
            new_span_id(),
            None,
            name,
            self._origin,
            None,
            attrs,
        )
        self._spans: list[Span] = [self.root]
        self._tasks: dict[int, Span] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, *, parent: Span | None = None, **attrs) -> Span:
        """Open a span now; close it later with :meth:`end`."""
        parent = parent or self.root
        span = Span(
            self.trace_id,
            new_span_id(),
            parent.span_id,
            name,
            time.perf_counter(),
            None,
            attrs,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        if span.duration is None:
            span.duration = time.perf_counter() - span.start
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        name: str,
        seconds: float,
        *,
        parent: Span | None = None,
        **attrs,
    ) -> Span:
        """Record an already-completed span of known duration."""
        parent = parent or self.root
        now = time.perf_counter()
        span = Span(
            self.trace_id,
            new_span_id(),
            parent.span_id,
            name,
            now - seconds,
            seconds,
            attrs,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def task_span(self, index: int) -> Span:
        """The per-task grouping span (memoized, child of the root)."""
        with self._lock:
            span = self._tasks.get(index)
            if span is None:
                span = Span(
                    self.trace_id,
                    new_span_id(),
                    self.root.span_id,
                    "task",
                    time.perf_counter(),
                    None,
                    {"index": index},
                )
                self._tasks[index] = span
                self._spans.append(span)
            return span

    def end_task(self, index: int) -> None:
        with self._lock:
            span = self._tasks.get(index)
        if span is not None:
            self.end(span)

    def merge_worker(self, entries) -> None:
        """Fold worker-side ambient events shipped via the stat delta.

        ``entries`` is a list of ``(index, name, seconds, attrs)``
        tuples (see :func:`record_event`). Ids are assigned here, in
        the parent, so workers never carry trace context.
        """
        if not entries:
            return
        for index, name, seconds, attrs in entries:
            parent = (
                self.task_span(index) if index is not None else self.root
            )
            self.event(name, seconds, parent=parent, **attrs)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def task_payload(self, index: int) -> dict | None:
        """Flat span list for one task — the ``BatchResult.trace`` body."""
        with self._lock:
            task = self._tasks.get(index)
            if task is None:
                return None
            keep = {task.span_id}
            spans = []
            for span in self._spans:
                if span.span_id in keep or span.parent_id in keep:
                    keep.add(span.span_id)
                    spans.append(span.to_dict(self._origin))
        return {"trace_id": self.trace_id, "spans": spans}

    def tree(self) -> dict:
        with self._lock:
            spans = [span.to_dict(self._origin) for span in self._spans]
        by_id: dict[str, dict] = {}
        for span in spans:
            span["children"] = []
            by_id[span["span_id"]] = span
        root = spans[0]
        for span in spans[1:]:
            parent = by_id.get(span["parent_id"])
            (parent["children"] if parent else root["children"]).append(
                span
            )
        return {
            "trace_id": self.trace_id,
            "name": root["name"],
            "duration_ms": root["duration_ms"],
            "span_count": len(spans),
            "root": root,
        }

    def finish(self, **attrs) -> dict:
        """Close every open span, publish the tree, slow-log if due."""
        now = time.perf_counter()
        with self._lock:
            open_spans = [s for s in self._spans if s.duration is None]
        for span in open_spans:
            span.duration = now - span.start
        if attrs:
            self.root.attrs.update(attrs)
        trace = self.tree()
        if self._collector is not None:
            self._collector.add(trace)
        if (
            self._slow_ms > 0
            and self._logger is not None
            and trace["duration_ms"] is not None
            and trace["duration_ms"] >= self._slow_ms
        ):
            breakdown: dict[str, dict] = {}
            with self._lock:
                recorded = list(self._spans[1:])
            for span in recorded:
                slot = breakdown.setdefault(
                    span.name, {"count": 0, "total_ms": 0.0}
                )
                slot["count"] += 1
                slot["total_ms"] = round(
                    slot["total_ms"] + (span.duration or 0.0) * 1000.0, 3
                )
            self._logger.emit(
                "slow_request",
                trace_id=self.trace_id,
                name=trace["name"],
                duration_ms=trace["duration_ms"],
                slow_ms=self._slow_ms,
                spans=breakdown,
            )
        return trace


class Tracer:
    """Per-session trace entry point with a no-op fast path.

    ``begin()`` is the only hook hot paths touch: one attribute check
    when disabled, a :class:`TraceBuilder` when enabled.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        collector: TraceCollector | None = None,
        slow_ms: float = 0.0,
        logger=None,
    ) -> None:
        self.enabled = enabled
        self.collector = collector or TraceCollector()
        self.slow_ms = slow_ms
        self.logger = logger

    def begin(
        self, name: str, *, trace_id: str | None = None, **attrs
    ) -> TraceBuilder | None:
        if not self.enabled:
            return None
        return TraceBuilder(
            name,
            trace_id=trace_id,
            collector=self.collector,
            slow_ms=self.slow_ms,
            logger=self.logger,
            **attrs,
        )


def format_trace(trace: dict | None) -> str:
    """Indented one-span-per-line rendering for the CLI and demos."""
    if not trace:
        return "(no trace recorded)"

    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span["attrs"].items())
        )
        duration = span["duration_ms"]
        shown = "?" if duration is None else f"{duration:.2f}ms"
        lines.append(
            "  " * depth
            + f"{span['name']:<18} {shown:>10}"
            + (f"  [{attrs}]" if attrs else "")
        )
        for child in span["children"]:
            walk(child, depth + 1)

    lines.append(
        f"trace {trace['trace_id']} "
        f"({trace['span_count']} spans, {trace['duration_ms']}ms)"
    )
    walk(trace["root"], 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient worker-side recording
# ----------------------------------------------------------------------
# Spawned workers have no TraceBuilder (and must not — shipping trace
# context would mean new IPC). Instead the pool flips this module flag
# at worker init when the session traces; compute/encode hooks
# then append (task_index, name, seconds, attrs) tuples here, and the
# worker flushes them into the result message's stat-delta dict under
# the "_spans" key. Single-threaded within a worker, so a plain list
# suffices.

_AMBIENT_ON = False
_AMBIENT: list[tuple] = []
_AMBIENT_TASK: int | None = None


def enable_ambient() -> None:
    global _AMBIENT_ON
    _AMBIENT_ON = True


def disable_ambient() -> None:
    global _AMBIENT_ON, _AMBIENT_TASK
    _AMBIENT_ON = False
    _AMBIENT_TASK = None
    _AMBIENT.clear()


def ambient_enabled() -> bool:
    return _AMBIENT_ON


def set_ambient_task(index: int | None) -> None:
    """Attribute subsequent :func:`record_event` calls to one task."""
    global _AMBIENT_TASK
    _AMBIENT_TASK = index


def record_event(name: str, seconds: float, **attrs) -> None:
    """Record one completed worker-side span. No-op when ambient is off."""
    if not _AMBIENT_ON:
        return
    _AMBIENT.append((_AMBIENT_TASK, name, float(seconds), attrs))


def drain_ambient() -> list[tuple]:
    """Return and clear the pending ambient events."""
    if not _AMBIENT:
        return []
    events = list(_AMBIENT)
    _AMBIENT.clear()
    return events
