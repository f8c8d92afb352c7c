"""Observability configuration — the session's sixth typed config.

Defaults encode the overhead discipline: **metrics on** (counters and
histograms are cheap, and a serving deployment without them is blind),
**tracing off** (span allocation per request is only worth paying when
someone is looking), slow-request logging off until a threshold is
chosen. The disabled cost of every hook is a single attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """How much telemetry a session records.

    Parameters
    ----------
    metrics:
        Record counters/gauges/histograms into the process-wide
        registry (rendered by the server ``metrics`` op and the
        ``repro metrics`` CLI probe). Default on.
    trace:
        Record a span tree per request (``session.last_trace()``,
        ``BatchResult.trace``, server ``trace`` op). Default off;
        workers record compute/encode spans only while this is
        on.
    slow_ms:
        When > 0 (and tracing is on), any request slower than this
        many milliseconds is emitted as one structured log line with
        its span breakdown. 0 disables the slow-request log.
    trace_buffer:
        How many completed traces the in-process ring buffer retains.
    log_json:
        Switch the process-wide structured logger to JSON-lines on
        stderr (the ``--log-json`` CLI flag), making chaos-job output
        machine-parseable.
    """

    metrics: bool = True
    trace: bool = False
    slow_ms: float = 0.0
    trace_buffer: int = 64
    log_json: bool = False

    def __post_init__(self) -> None:
        if self.slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        if self.trace_buffer < 1:
            raise ValueError("trace_buffer must be >= 1")
