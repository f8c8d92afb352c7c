"""Service API: one session facade over the whole summarization stack.

The pieces:

- :class:`ExplanationSession` (:mod:`repro.api.session`) — a long-lived
  service object owning the frozen CSR view, the shared-memory export,
  a warm process pool and the cross-task caches, all keyed by the
  graph's version counter.
- :class:`EngineConfig` / :class:`CacheConfig` / :class:`ParallelConfig`
  (:mod:`repro.api.config`) — the typed configs: per-task engine and
  weighting, cross-task memoization, and the batch backend (serial or
  processes).
- :class:`SummaryRequest` (:mod:`repro.api.requests`) — one task plus
  method routing and per-request overrides.
- :mod:`repro.api.registry` — the method routing table ("st",
  "st-fast", "pcst", "union"), user-extensible via
  :func:`register_method`.
- :mod:`repro.api.protocol` — the versioned over-the-wire schema
  (``protocol_version`` envelopes, strict decode validation, lossless
  task/request/result/report codecs) shared by the network serving
  tier (:mod:`repro.serving.server` / :mod:`repro.serving.client`),
  the CLI ``batch`` subcommand's JSONL files and
  :meth:`BatchReport.to_dict`.
- :class:`ClosureStoreConfig` (re-exported from :mod:`repro.cache`) —
  the cross-worker shared closure store: terminal closures published
  to a shared-memory slab with popularity-aware (TinyLFU) admission,
  so process-pool workers reuse each other's Dijkstra runs.
- :class:`SchedulerConfig` (re-exported from :mod:`repro.serving`) —
  the bounds of the process backend's elastic work-stealing pool.
- :class:`ResilienceConfig` (re-exported from :mod:`repro.serving`) —
  supervised recovery on the process backend: per-task retry budget
  and deadline, worker-respawn circuit breaker, error isolation.
- :class:`TaskFailure` (:mod:`repro.core.batch`) — the typed per-task
  failure (cause ``crash`` / ``timeout`` / ``error``) a
  :class:`BatchResult` carries instead of an explanation when a task
  exhausted its retries.
- :class:`ObservabilityConfig` (re-exported from :mod:`repro.obs`) —
  telemetry: default-on Prometheus-style metrics, default-off
  per-request span tracing (``session.last_trace()``,
  ``BatchResult.trace``, the server ``trace`` op), slow-request
  logging and JSON-lines structured logs.

Minimal use::

    from repro.api import ExplanationSession, SummaryRequest

    with ExplanationSession(graph) as session:
        report = session.run(tasks)               # bare tasks work too
        one = session.explain(
            SummaryRequest(task=task, method="pcst")
        )
        for result in session.stream(tasks):      # as tasks complete
            ...
"""

from repro.api.config import CacheConfig, EngineConfig, ParallelConfig
from repro.api.protocol import PROTOCOL_VERSION, ProtocolError
from repro.api.registry import (
    MethodSpec,
    available_methods,
    method_spec,
    register_method,
    unregister_method,
)
from repro.api.requests import SummaryRequest
from repro.api.session import ExplanationSession, SessionStats
from repro.cache import ClosureStoreConfig
from repro.core.batch import BatchReport, BatchResult, TaskFailure
from repro.obs import ObservabilityConfig
from repro.serving.config import ResilienceConfig, SchedulerConfig

__all__ = [
    "BatchReport",
    "BatchResult",
    "CacheConfig",
    "ClosureStoreConfig",
    "EngineConfig",
    "ExplanationSession",
    "MethodSpec",
    "ObservabilityConfig",
    "PROTOCOL_VERSION",
    "ParallelConfig",
    "ProtocolError",
    "ResilienceConfig",
    "SchedulerConfig",
    "SessionStats",
    "SummaryRequest",
    "TaskFailure",
    "available_methods",
    "method_spec",
    "register_method",
    "unregister_method",
]
