"""repro.obs — tracing, metrics, and structured telemetry.

Three pillars, one subsystem:

- :mod:`repro.obs.trace` — per-request span trees threaded client →
  server → session → scheduler → worker, with an
  in-process ring-buffer collector and a slow-request log.
- :mod:`repro.obs.registry` — process-wide counters, gauges, and
  exponential-bucket histograms with Prometheus text exposition
  (server ``metrics`` op / ``repro metrics`` CLI probe).
- :mod:`repro.obs.log` — structured event lines (``key=value`` or
  JSON-lines) for the fault-handling paths whose only voice used to
  be a ``RuntimeWarning``.

:class:`~repro.obs.config.ObservabilityConfig` joins the session
configs (``obs=`` / ``--trace`` / ``--slow-ms`` / ``--metrics`` /
``--log-json``); metrics default on, tracing default off, and every
disabled hook costs a single attribute check.
"""

from repro.obs.config import ObservabilityConfig
from repro.obs.log import StructuredLogger, configure_logging, get_logger
from repro.obs.registry import (
    MetricsRegistry,
    exponential_buckets,
    get_registry,
    parse_prometheus,
    render_simple,
)
from repro.obs.trace import (
    Span,
    TraceBuilder,
    TraceCollector,
    Tracer,
    format_trace,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "MetricsRegistry",
    "ObservabilityConfig",
    "Span",
    "StructuredLogger",
    "TraceBuilder",
    "TraceCollector",
    "Tracer",
    "configure_logging",
    "exponential_buckets",
    "format_trace",
    "get_logger",
    "get_registry",
    "new_span_id",
    "new_trace_id",
    "parse_prometheus",
    "render_simple",
]
