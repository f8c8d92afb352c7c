"""The :class:`ExplanationSession` service facade.

A session is the long-lived, service-shaped entry point: construct it
once over a :class:`~repro.graph.knowledge_graph.KnowledgeGraph` with
three typed configs, then serve explanation traffic through

- :meth:`ExplanationSession.explain` — one request, one summary;
- :meth:`ExplanationSession.run` — a batch, returning the familiar
  :class:`~repro.core.batch.BatchReport`;
- :meth:`ExplanationSession.stream` — an iterator yielding
  :class:`~repro.core.batch.BatchResult`\\ s as tasks complete instead
  of blocking on the full barrier.

What makes it a *session* rather than a convenience wrapper is resource
ownership. Everything derived from the graph is keyed by the graph's
version counter and built exactly once per version:

- the frozen CSR view (``graph.freeze()``);
- the shared-memory export workers attach to (zero-copy, see
  :mod:`repro.graph.shared`);
- the warm worker pool — workers stay up *between* calls, keeping
  their attached graph and per-worker summarizer/closure caches, so
  consecutive batches pay no re-freeze, no re-export and no respawn;
- the terminal-closure cache and per-config summarizers on the local
  path.

Mutating the graph between calls bumps its version; the next call
notices, tears all of that down (pool shut down, blocks unlinked,
caches dropped — the same invalidation contract the per-call engines
inherit from :mod:`repro.graph.csr`) and rebuilds exactly once.
:attr:`ExplanationSession.stats` counts freezes / exports / pool starts
/ invalidations so callers (and CI) can assert the reuse actually
happened.

Method routing goes through :mod:`repro.api.registry`: each request
names a registered method ("st", "st-fast", "pcst", "union", or
anything added via ``register_method``) and may override the session's
:class:`EngineConfig` per request. Results are bit-identical to the
per-task :class:`~repro.core.summarizer.Summarizer` — the session
routes through the same implementations and the same caches.

A batch runs on one of two backends: serially in this process, or on
an elastic :class:`repro.serving.ElasticWorkerPool` (shared task
queue, per-task pulls, grow under queue pressure / shrink on idle,
supervised worker recovery, per-task results over the compact
:mod:`repro.serving.wire` format) sized by a
:class:`repro.serving.SchedulerConfig`. Each backend has one dispatch
that yields ``(BatchResult, counter delta)`` pairs in completion
order: :meth:`~ExplanationSession.stream` hands the results on as they
land, and :meth:`~ExplanationSession.run` folds the same iterator into
a :class:`~repro.core.batch.BatchReport`. Outputs stay bit-identical
to the serial path; ``stats`` additionally counts steals, grows,
shrinks and the peak queue depth.

Sessions own OS resources (shared-memory blocks, worker processes);
call :meth:`close` or use the session as a context manager when done.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

from repro.api.config import CacheConfig, EngineConfig, ParallelConfig
from repro.api.registry import MethodSpec, method_spec
from repro.api.requests import SummaryRequest, as_request
from repro.core.batch import (
    _PROCESS_FALLBACK_ERRORS,
    _STAT_KEYS,
    BatchReport,
    BatchResult,
    TaskFailure,
    TerminalClosureCache,
    _cache_counters,
)
from repro.core.scenarios import SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.obs.config import ObservabilityConfig
from repro.obs.log import configure_logging, get_logger
from repro.obs.registry import exponential_buckets, get_registry
from repro.obs.trace import TraceCollector, Tracer
from repro.serving.config import ResilienceConfig, SchedulerConfig
from repro.serving.faults import FaultPlan
from repro.serving.pool import ElasticWorkerPool
from repro.serving.wire import decode_explanation

#: One resolved request: (request, method spec, merged engine config).
_Resolved = tuple[SummaryRequest, MethodSpec, EngineConfig]


@dataclass
class _Dispatch:
    """One started batch: its results plus the report fields around them.

    ``results`` yields ``(BatchResult, counter delta)`` pairs in
    completion order. The pool dispatch settles ``workers`` and
    ``retried`` when its drain ends, so read them only after that.
    """

    parallel: str
    started: float
    scheduler: str = ""
    workers: int = 0
    retried: int = 0
    freeze_seconds: float = 0.0
    results: Iterator[tuple[BatchResult, dict]] | None = None


def _stat_line(label: str, values: dict) -> str:
    """The one shared stat-line renderer.

    Every human-readable counter line (CLI batch footer, experiment
    runner, the lines below) goes through this formatter, so label
    alignment and ``key=value`` layout can never drift between
    surfaces.
    """
    body = " ".join(f"{key}={value}" for key, value in values.items())
    return f"  {label:<10} {body}"


@dataclass
class SessionStats:
    """Lifetime counters of one session's resource churn.

    ``freezes`` / ``exports`` / ``pool_starts`` count how often the CSR
    view was compiled, shipped to shared memory, and a worker pool
    spawned; on an unchanged graph each stays at 1 no matter how many
    batches run — that is the warm-session contract the CI smoke
    asserts. ``invalidations`` counts graph-version changes noticed.

    The scheduler counters describe work-stealing dispatch: ``steals``
    is how many tasks were finished by a worker other than their
    nominal round-robin owner (the rebalancing a static schedule would
    have missed), ``grows`` / ``shrinks`` count elastic pool resizes,
    and ``peak_queue_depth`` is the deepest backlog (submitted minus
    finished minus one in-flight task per worker) any run observed.

    The resilience counters describe supervised recovery:
    ``worker_deaths`` is how many unexpectedly dead workers were
    replaced in place, ``task_timeouts`` how many per-task deadlines
    the monitor enforced, ``task_retries`` how many task re-queues
    those incidents cost, and ``local_fallbacks`` how many whole
    batches were demoted to a local run (the blast radius supervision
    exists to avoid — 0 on a healthy process backend).

    The ``store_*`` counters are always 0: they described the retired
    cross-worker closure store and stay so that peers and tools that
    read the schema keep decoding it.
    """

    freezes: int = 0
    exports: int = 0
    pool_starts: int = 0
    invalidations: int = 0
    runs: int = 0
    tasks: int = 0
    steals: int = 0
    grows: int = 0
    shrinks: int = 0
    peak_queue_depth: int = 0
    worker_deaths: int = 0
    task_retries: int = 0
    task_timeouts: int = 0
    local_fallbacks: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_evictions: int = 0
    store_bytes: int = 0

    def to_dict(self) -> dict:
        """Every counter as a plain dict, in declaration order.

        The one schema all counter consumers read: the line renderers
        below, the server ``stats`` op, and the metrics exposition's
        per-session view all build from this dict, so a new counter
        added to the dataclass surfaces everywhere at once. The key
        set is pinned by a test — extend deliberately.
        """
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
        }

    def scheduler_line(self) -> str | None:
        """One report line of scheduler activity; None when there was none.

        Shared by the CLI and the experiment runner so both surfaces
        print (and gate on) the same counters the same way.
        """
        if not (self.steals or self.grows or self.shrinks):
            return None
        data = self.to_dict()
        return _stat_line(
            "scheduler",
            {
                key: data[key]
                for key in (
                    "steals",
                    "grows",
                    "shrinks",
                    "peak_queue_depth",
                )
            },
        )

    def resilience_line(self) -> str | None:
        """One report line of recovery activity; None when all quiet."""
        if not (
            self.worker_deaths
            or self.task_retries
            or self.task_timeouts
            or self.local_fallbacks
        ):
            return None
        data = self.to_dict()
        return _stat_line(
            "resilience",
            {
                key: data[key]
                for key in (
                    "worker_deaths",
                    "task_retries",
                    "task_timeouts",
                    "local_fallbacks",
                )
            },
        )



class ExplanationSession:
    """Long-lived explanation service over one knowledge graph.

    Parameters
    ----------
    graph:
        The (mutable) knowledge graph. The session watches its version
        counter and rebuilds derived state exactly once per mutation.
    engine:
        :class:`EngineConfig` defaults applied to every request (each
        request may override individual fields).
    cache:
        :class:`CacheConfig` for the session-owned closure cache (and
        the per-worker caches under the process backend).
    parallel:
        :class:`ParallelConfig` choosing the batch backend (serial or
        processes) and the pool size.
    scheduler:
        :class:`repro.serving.SchedulerConfig` sizing the elastic
        worker pool: floor, ceiling, grow pressure and idle shrink.
    default_method:
        Registered method used for requests that don't name one
        (default "st").
    resilience:
        :class:`repro.serving.ResilienceConfig` governing supervised
        recovery on the work-stealing process backend: per-task retry
        budget, per-task deadline, worker-respawn circuit breaker.
    faults:
        Optional :class:`repro.serving.FaultPlan` threaded into worker
        job envelopes — deterministic fault injection for tests and
        chaos drills. None (the default) injects nothing.
    obs:
        :class:`repro.obs.ObservabilityConfig` governing telemetry:
        registry metrics (default on), per-request span traces
        (default off; exposed via :meth:`last_trace`,
        ``BatchResult.trace`` and the server ``trace`` op), the
        slow-request log threshold, and JSON-lines structured logging.
    """

    #: Auto-backend thresholds: below either, worker startup + IPC
    #: dominates and the serial backend wins.
    AUTO_PROCESS_MIN_NODES = 4096
    AUTO_PROCESS_MIN_TASKS = 8

    def __init__(
        self,
        graph: KnowledgeGraph,
        engine: EngineConfig | None = None,
        cache: CacheConfig | None = None,
        parallel: ParallelConfig | None = None,
        scheduler: SchedulerConfig | None = None,
        default_method: str = "st",
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan | None = None,
        obs: ObservabilityConfig | None = None,
    ) -> None:
        self.graph = graph
        self.engine_config = engine if engine is not None else EngineConfig()
        self.cache_config = cache if cache is not None else CacheConfig()
        self.parallel_config = (
            parallel if parallel is not None else ParallelConfig()
        )
        self.scheduler_config = (
            scheduler if scheduler is not None else SchedulerConfig()
        )
        self.resilience_config = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.obs_config = obs if obs is not None else ObservabilityConfig()
        if self.obs_config.log_json:
            configure_logging(enabled=True, json_lines=True)
        elif self.obs_config.slow_ms > 0 and not get_logger().enabled:
            # A slow-request threshold without an output channel would
            # be silent; arm the plain-text logger.
            configure_logging(enabled=True, json_lines=False)
        self._tracer = Tracer(
            enabled=self.obs_config.trace,
            collector=TraceCollector(self.obs_config.trace_buffer),
            slow_ms=self.obs_config.slow_ms,
            logger=get_logger(),
        )
        #: Single-attribute guard every metrics hook checks first.
        self._metrics_on = self.obs_config.metrics
        registry = get_registry()
        self._m_task_seconds = registry.histogram(
            "repro_task_seconds",
            "Worker-measured per-task compute latency (seconds)",
        )
        self._m_batch_seconds = registry.histogram(
            "repro_batch_seconds",
            "End-to-end run() batch latency (seconds)",
        )
        self._m_batch_size = registry.histogram(
            "repro_batch_size",
            "Tasks per run()/stream() batch",
            buckets=exponential_buckets(start=1.0, factor=2.0, count=12),
        )
        self._m_tasks_total = registry.counter(
            "repro_tasks_total",
            "Tasks served across every session entry point",
        )
        self._faults = faults
        self.default_method = method_spec(default_method).name
        self.stats = SessionStats()
        self._version: int | None = None
        self._frozen = None
        self._export = None
        self._steal_pool: ElasticWorkerPool | None = None
        self._closure_cache: TerminalClosureCache | None = None
        self._summarizers: dict = {}
        self._closed = False
        # Idle-shrink ticker plumbing: the gate serializes the ticker
        # thread against dispatch starts and pool teardown (the elastic
        # pool itself is not thread-safe); the ticker-shrink counter
        # lets dispatch-delta folding subtract shrinks the ticker
        # already credited (see _absorb_steal_stats).
        self._pool_gate = threading.Lock()
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self._ticker_shrinks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every owned resource (idempotent).

        Shuts the worker pool down, unlinks the shared-memory blocks
        and drops the caches. The session cannot be used afterwards.
        """
        if self._closed:
            return
        self._teardown_derived()
        self._closed = True

    def release_pool(self) -> None:
        """Drop only the process-backend resources (pool + export).

        The serial-path state (frozen view, closure cache, summarizers)
        survives; the next process-backed run re-exports and respawns.
        Useful when a burst of batch traffic is over but the session
        should keep serving single requests.
        """
        self._stop_ticker()
        with self._pool_gate:
            if self._steal_pool is not None:
                self._steal_pool.shutdown()
                self._steal_pool = None
            if self._export is not None:
                self._export.close()
                self._export.unlink()
                self._export = None

    # ------------------------------------------------------------------
    # Idle-shrink ticker (bare in-process sessions)
    # ------------------------------------------------------------------
    def _start_ticker(self) -> None:
        """Arm the background idle shrinker for the elastic pool.

        The pool itself deliberately has no timer — its shrinks happen
        at dispatch starts, which a server's reaper complements. A bare
        in-process session has neither between dispatches; this daemon
        ticker honors ``SchedulerConfig.shrink_idle_seconds`` there, so
        a quiet session releases workers back to the OS on its own. It
        only ever runs while no dispatch is open (the pool buffers are
        empty) and under the pool gate, so it never races a dispatch.
        """
        if self._ticker is not None and self._ticker.is_alive():
            return
        interval = max(
            0.05, self.scheduler_config.shrink_idle_seconds / 4
        )
        self._ticker_stop = threading.Event()
        stop = self._ticker_stop

        def tick() -> None:
            while not stop.wait(interval):
                with self._pool_gate:
                    if stop.is_set():
                        return
                    pool = self._steal_pool
                    if (
                        pool is None
                        or pool.broken
                        or pool._buffers  # a dispatch is open
                    ):
                        continue
                    try:
                        retired = pool.maybe_shrink(0)
                    except Exception:
                        return  # pool torn down under us; stand down
                    if retired:
                        self.stats.shrinks += retired
                        self._ticker_shrinks += retired

        self._ticker = threading.Thread(
            target=tick, name="session-idle-shrink", daemon=True
        )
        self._ticker.start()

    def _stop_ticker(self) -> None:
        if self._ticker is not None:
            self._ticker_stop.set()
            self._ticker.join(timeout=5)
            self._ticker = None

    def __enter__(self) -> "ExplanationSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # Versioned derived state
    # ------------------------------------------------------------------
    def _teardown_derived(self) -> None:
        self.release_pool()
        self._frozen = None
        self._closure_cache = None
        self._summarizers.clear()

    def _refresh(self) -> None:
        """Notice graph mutations; rebuild derived state at most once."""
        if self._closed:
            raise RuntimeError("session is closed")
        version = self.graph.version
        if self._version == version:
            return
        if self._version is not None:
            self.stats.invalidations += 1
        self._teardown_derived()
        self._version = version

    def _frozen_view(self):
        if self._frozen is None:
            self._frozen = self.graph.freeze()
            self.stats.freezes += 1
        return self._frozen

    # ------------------------------------------------------------------
    # Request resolution and summarizer construction
    # ------------------------------------------------------------------
    def _resolve(self, item: SummaryRequest | SummaryTask) -> _Resolved:
        request = as_request(item)
        spec = method_spec(request.method or self.default_method)
        config = self.engine_config.merged(request.overrides)
        return request, spec, config

    def _ensure_closure_cache(self) -> TerminalClosureCache:
        """The session-wide closure cache, created on first need.

        One cache serves every closure-using config: entries key on
        ``(source, cost-signature)``, so λ/config mixes never collide.
        """
        if self._closure_cache is None:
            self._closure_cache = TerminalClosureCache(
                self.cache_config.closure_size
            )
        return self._closure_cache

    def _worker_cache_config(self) -> tuple:
        """The per-worker cache recipe the worker pool initializes with.

        ``(closure_size, plugin_modules, trace)`` — the plugin modules
        are imported by each worker before it serves tasks, and a
        truthy ``trace`` flips the worker's ambient span recorder on so
        compute/encode spans ride home through the result-pipe stat
        deltas.
        """
        return (
            self.cache_config.closure_size,
            self.parallel_config.plugin_modules,
            self._tracer.enabled,
        )

    def last_trace(self) -> dict | None:
        """The most recent finished request trace; None when quiet.

        Only populated with ``ObservabilityConfig(trace=True)``; the
        collector is a ring buffer of ``trace_buffer`` finished trees
        (see :meth:`repro.obs.TraceBuilder.tree` for the shape).
        """
        return self._tracer.collector.last()

    def get_trace(self, trace_id: str) -> dict | None:
        """Look one finished trace up by id; None when evicted/unknown."""
        return self._tracer.collector.get(trace_id)

    def _summarizer_for(self, spec: MethodSpec, config: EngineConfig):
        key = (spec.name, config)
        summarizer = self._summarizers.get(key)
        if summarizer is None:
            cache = (
                self._ensure_closure_cache()
                if spec.uses_closure_cache
                else None
            )
            summarizer = spec.build(self.graph, config, cache)
            self._summarizers[key] = summarizer
        return summarizer

    def _report_method(self, resolved: list[_Resolved]) -> str:
        names = {spec.legacy_name for _r, spec, _c in resolved}
        if len(names) == 1:
            return next(iter(names))
        if not names:
            return method_spec(self.default_method).legacy_name
        return "mixed"

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def explain(
        self,
        item: SummaryRequest | SummaryTask,
        *,
        trace_id: str | None = None,
        queue_wait_seconds: float | None = None,
    ):
        """Serve one request, returning its explanation.

        ``trace_id`` / ``queue_wait_seconds`` are the server-side
        observability hooks: a caller-stamped trace id correlates this
        request across process boundaries, and an admission-queue wait
        (measured by the server before the graph lock was available)
        is recorded as a ``server.queue_wait`` span under the request.
        """
        request, spec, config = self._resolve(item)
        self._refresh()
        if spec.uses_traversal and config.engine != "dict":
            self._frozen_view()
        self.stats.tasks += 1
        trace = self._tracer.begin(
            "explain", trace_id=trace_id, method=spec.name
        )
        if trace is not None and queue_wait_seconds is not None:
            trace.event("server.queue_wait", queue_wait_seconds)
        try:
            compute_start = time.perf_counter()
            explanation = self._summarizer_for(spec, config).summarize(
                request.task
            )
            seconds = time.perf_counter() - compute_start
            if trace is not None:
                trace.event("compute", seconds)
            if self._metrics_on:
                self._m_task_seconds.observe(seconds)
                self._m_tasks_total.inc()
            return explanation
        finally:
            if trace is not None:
                trace.finish()

    def run(
        self,
        items: Iterable[SummaryRequest | SummaryTask],
        *,
        trace_id: str | None = None,
        queue_wait_seconds: float | None = None,
    ) -> BatchReport:
        """Serve a batch; per-task timings and cache stats in the report.

        The report is a fold over the same completion-order iterator
        :meth:`stream` yields: results sorted back into input order,
        per-task cache counter deltas summed. A process-backend failure
        (pool setup, or a broken pool mid-drain) demotes the whole
        batch to a serial rerun with a ``RuntimeWarning``.

        With tracing enabled (``ObservabilityConfig(trace=True)``) the
        whole batch becomes one trace tree — freeze/export, pool
        spawn, dispatch, per-task queue-wait/compute/encode spans (the
        worker-recorded ones ride home in the result-pipe stat deltas)
        — retrievable via :meth:`last_trace` and attached per result
        as ``BatchResult.trace``. ``trace_id`` adopts a caller-stamped
        id; ``queue_wait_seconds`` records the server's admission
        wait.
        """
        resolved, backend, trace = self._begin(
            "run", items, trace_id, queue_wait_seconds
        )
        batch_start = time.perf_counter()
        try:
            if backend == "processes":
                try:
                    return self._fold(
                        resolved, self._dispatch_pool(resolved, trace)
                    )
                except _PROCESS_FALLBACK_ERRORS as error:
                    backend = self._abandon_pool(error, len(resolved))
            return self._fold(
                resolved, self._dispatch_serial(resolved, trace)
            )
        finally:
            if self._metrics_on:
                self._m_batch_seconds.observe(
                    time.perf_counter() - batch_start
                )
            if trace is not None:
                trace.finish(backend=backend)

    def stream(
        self,
        items: Iterable[SummaryRequest | SummaryTask],
        *,
        trace_id: str | None = None,
        queue_wait_seconds: float | None = None,
    ) -> Iterator[BatchResult]:
        """Serve a batch incrementally.

        Yields :class:`BatchResult`\\ s as tasks complete instead of
        blocking on the whole batch — on the process backend each
        result leaves its worker the moment it is finished. Arrival
        order follows completion, not submission; each result carries
        its input ``index`` for reordering. Setup (request resolution,
        backend choice, pool warm-up, fallback warnings) happens
        eagerly in this call, and the process backend also submits its
        work eagerly — workers compute while the caller consumes. The
        serial backend computes lazily, driven by iteration.
        """
        resolved, backend, trace = self._begin(
            "stream", items, trace_id, queue_wait_seconds
        )
        dispatch = None
        if backend == "processes":
            try:
                dispatch = self._dispatch_pool(resolved, trace)
            except _PROCESS_FALLBACK_ERRORS as error:
                self._abandon_pool(error, len(resolved))
        if dispatch is None:
            dispatch = self._dispatch_serial(resolved, trace)
        return self._synced_stream(dispatch.results, trace)

    def _begin(self, kind: str, items, trace_id, queue_wait_seconds):
        """Resolve a batch, pick its backend, count it, open its trace."""
        resolved = [self._resolve(item) for item in items]
        self._refresh()
        backend = self._resolve_backend(resolved)
        self.stats.runs += 1
        self.stats.tasks += len(resolved)
        trace = self._tracer.begin(
            kind, trace_id=trace_id, tasks=len(resolved), backend=backend
        )
        if trace is not None and queue_wait_seconds is not None:
            trace.event("server.queue_wait", queue_wait_seconds)
        if self._metrics_on:
            self._m_batch_size.observe(len(resolved))
            self._m_tasks_total.inc(len(resolved))
        return resolved, backend, trace

    def _synced_stream(self, results: Iterator[tuple], trace=None):
        """Strip the counter deltas; finish the trace when drained."""
        try:
            for result, _delta in results:
                yield result
        finally:
            if trace is not None:
                trace.finish()

    def _fold(self, resolved: list[_Resolved], dispatch) -> BatchReport:
        """Drain one dispatch into a report: input order, summed deltas."""
        results = []
        totals = dict.fromkeys(_STAT_KEYS, 0)
        for result, delta in dispatch.results:
            results.append(result)
            for key in _STAT_KEYS:
                totals[key] += delta[key]
        results.sort(key=lambda result: result.index)
        return BatchReport(
            method=self._report_method(resolved),
            results=tuple(results),
            freeze_seconds=dispatch.freeze_seconds,
            total_seconds=time.perf_counter() - dispatch.started,
            cache_hits=totals["hits"],
            cache_misses=totals["misses"],
            workers=dispatch.workers,
            parallel=dispatch.parallel,
            scheduler=dispatch.scheduler,
            retried=dispatch.retried,
        )

    # ------------------------------------------------------------------
    # Backend resolution
    # ------------------------------------------------------------------
    def _abandon_pool(self, error: BaseException, num_tasks: int) -> str:
        """Release the pool after a process-backend failure; demote."""
        self.release_pool()
        return self._demote_to_local(
            f"process backend unavailable ({error!r})",
            num_tasks,
            stacklevel=4,
        )

    def _demote_to_local(
        self, reason: str, num_tasks: int, *, stacklevel: int
    ) -> str:
        """Warn once, count the demotion, and pick the serial backend.

        Every path that abandons the process backend funnels through
        here so the RuntimeWarning wording and the
        ``SessionStats.local_fallbacks`` counter can never drift apart.
        Demotion is the whole-batch blast radius that worker
        supervision exists to make rare; the counter is what chaos
        tests pin to 0.
        """
        self.stats.local_fallbacks += 1
        get_logger().emit(
            "local_fallback", reason=reason, tasks=num_tasks
        )
        warnings.warn(
            f"{reason}; falling back to a local run",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
        return "serial"

    def _spec_process_safe(self, spec: MethodSpec) -> bool:
        """Whether spawn workers can rebuild ``spec`` from the registry.

        Import-time built-ins always are; a runtime registration becomes
        process-safe when its declared ``plugin_module`` is listed in
        ``ParallelConfig.plugin_modules`` — workers import that module
        at init, re-creating the registration in their interpreter.
        """
        if spec.process_safe:
            return True
        return (
            spec.plugin_module is not None
            and spec.plugin_module in self.parallel_config.plugin_modules
        )

    def _resolve_backend(self, resolved: list[_Resolved]) -> str:
        choice = self.parallel_config.backend or "auto"
        num_tasks = len(resolved)
        if choice == "serial" or num_tasks == 0:
            return "serial"
        process_safe = all(
            self._spec_process_safe(spec) for _r, spec, _c in resolved
        )
        if choice == "processes":
            if not process_safe:
                return self._demote_to_local(
                    "batch contains methods registered at runtime "
                    "(not process-safe)",
                    num_tasks,
                    stacklevel=5,
                )
            return choice
        cpus = os.cpu_count() or 1
        if (
            cpus > 1
            and process_safe
            and any(spec.uses_traversal for _r, spec, _c in resolved)
            and self.graph.num_nodes >= self.AUTO_PROCESS_MIN_NODES
            and num_tasks >= self.AUTO_PROCESS_MIN_TASKS
        ):
            return "processes"
        return "serial"

    # ------------------------------------------------------------------
    # Serial dispatch
    # ------------------------------------------------------------------
    def _needs_frozen(self, resolved: list[_Resolved]) -> bool:
        return any(
            spec.uses_traversal and config.engine != "dict"
            for _r, spec, config in resolved
        )

    def _one_result(
        self, index: int, item: _Resolved, trace=None
    ) -> BatchResult:
        request, spec, config = item
        summarizer = self._summarizer_for(spec, config)
        task_start = time.perf_counter()
        explanation = summarizer.summarize(request.task)
        seconds = time.perf_counter() - task_start
        if self._metrics_on:
            self._m_task_seconds.observe(seconds)
        payload_trace = None
        if trace is not None:
            trace.event(
                "compute", seconds, parent=trace.task_span(index)
            )
            trace.end_task(index)
            payload_trace = trace.task_payload(index)
        return BatchResult(
            index=index,
            task=request.task,
            explanation=explanation,
            seconds=seconds,
            trace=payload_trace,
        )

    def _dispatch_serial(
        self, resolved: list[_Resolved], trace=None
    ) -> _Dispatch:
        """Freeze and build summarizers now; compute lazily, in order."""
        dispatch = _Dispatch(
            parallel="serial",
            started=time.perf_counter(),
            workers=self.parallel_config.workers,
        )
        if self._needs_frozen(resolved):
            freeze_start = time.perf_counter()
            self._frozen_view()
            dispatch.freeze_seconds = time.perf_counter() - freeze_start
            if trace is not None:
                trace.event(
                    "session.freeze_export", dispatch.freeze_seconds
                )
        for _request, spec, config in resolved:
            self._summarizer_for(spec, config)

        def results() -> Iterator[tuple[BatchResult, dict]]:
            for index, item in enumerate(resolved):
                before = _cache_counters(self._closure_cache)
                result = self._one_result(index, item, trace)
                after = _cache_counters(self._closure_cache)
                yield result, {
                    key: after[key] - before[key] for key in _STAT_KEYS
                }

        dispatch.results = results()
        return dispatch

    # ------------------------------------------------------------------
    # Warm process-pool dispatch
    # ------------------------------------------------------------------
    def _mp_context(self):
        import multiprocessing

        start_method = self.parallel_config.mp_start_method or (
            os.environ.get("REPRO_MP_START_METHOD") or None
        )
        return (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )

    def _ensure_export(self) -> float:
        """Freeze + export at most once per graph version.

        Returns the seconds spent freezing/exporting *this* call — 0.0
        on a warm hit, which is exactly what a warm ``BatchReport``
        shows in ``freeze_seconds``.
        """
        freeze_seconds = 0.0
        if self._export is None:
            freeze_start = time.perf_counter()
            frozen = self._frozen_view()
            self._export = frozen.to_shared()
            self.stats.exports += 1
            freeze_seconds = time.perf_counter() - freeze_start
        return freeze_seconds

    def _ensure_steal_pool(self) -> ElasticWorkerPool:
        """Spawn the elastic work-stealing pool at most once per version.

        Dispatches multiplex on one pool (results are routed per
        dispatch id), so overlapping ``stream()``/``run()`` calls and
        abandoned iterators all share it; only a pool that went broken
        (dead worker) is scrapped and respawned here.
        """
        if self._steal_pool is not None and self._steal_pool.broken:
            self._steal_pool = None
        if self._steal_pool is None:
            workers = self.parallel_config.workers or os.cpu_count() or 1
            self._steal_pool = ElasticWorkerPool(
                self._mp_context(),
                self._export.handle,
                self._worker_cache_config(),
                self.scheduler_config,
                workers,
                resilience=self.resilience_config,
                faults=self._faults,
            )
            self.stats.pool_starts += 1
        if self.scheduler_config.shrink_idle_seconds > 0:
            self._start_ticker()
        return self._steal_pool

    def _jobs(self, resolved: list[_Resolved]) -> list[tuple]:
        return [
            (index, spec.name, config, request.task)
            for index, (request, spec, config) in enumerate(resolved)
        ]

    def _steal_counters(self, pool: ElasticWorkerPool) -> tuple:
        """Snapshot the pool counters one dispatch folds deltas against."""
        return (
            pool.steals,
            pool.grows,
            pool.shrinks,
            pool.worker_deaths,
            pool.task_retries,
            pool.task_timeouts,
            self._ticker_shrinks,
        )

    def _absorb_steal_stats(
        self, pool: ElasticWorkerPool, before: tuple
    ) -> None:
        """Fold one dispatch's scheduler + resilience counters into stats."""
        steals, grows, shrinks, deaths, retries, timeouts, ticker = before
        self.stats.steals += pool.steals - steals
        self.stats.grows += pool.grows - grows
        # Shrinks the idle ticker performed (and already credited)
        # inside this snapshot window must not be folded again.
        self.stats.shrinks += (pool.shrinks - shrinks) - (
            self._ticker_shrinks - ticker
        )
        self.stats.worker_deaths += pool.worker_deaths - deaths
        self.stats.task_retries += pool.task_retries - retries
        self.stats.task_timeouts += pool.task_timeouts - timeouts
        if pool.peak_queue_depth > self.stats.peak_queue_depth:
            self.stats.peak_queue_depth = pool.peak_queue_depth
        if pool.broken:
            self._steal_pool = None

    def _steal_result(
        self,
        resolved: list[_Resolved],
        frozen,
        index: int,
        payload,
        seconds: float,
        failure: TaskFailure | None,
        trace=None,
    ) -> BatchResult:
        """One drain yield → one BatchResult, demoting bad payloads.

        A payload the wire codec cannot decode (e.g. an injected
        "malformed" frame, or genuine corruption) becomes a typed
        ``TaskFailure(cause="error")`` instead of poisoning the whole
        batch — the same isolation contract worker crashes get.
        """
        task = resolved[index][0].task
        payload_trace = (
            trace.task_payload(index) if trace is not None else None
        )
        if failure is None:
            try:
                explanation = decode_explanation(payload, frozen, task)
            except Exception as error:
                failure = TaskFailure(
                    cause="error",
                    message=(
                        "undecodable result payload "
                        f"({type(error).__name__}: {error})"
                    ),
                )
            else:
                return BatchResult(
                    index=index,
                    task=task,
                    explanation=explanation,
                    seconds=seconds,
                    trace=payload_trace,
                )
        return BatchResult(
            index=index,
            task=task,
            explanation=None,
            seconds=seconds,
            failure=failure,
            trace=payload_trace,
        )

    def _dispatch_pool(
        self, resolved: list[_Resolved], trace=None
    ) -> _Dispatch:
        """Export, warm the pool and submit now; drain as results land."""
        dispatch = _Dispatch(
            parallel="processes",
            started=time.perf_counter(),
            scheduler="work-stealing",
        )
        dispatch.freeze_seconds = self._ensure_export()
        frozen = self._frozen_view()
        # Dispatch start under the pool gate: the idle ticker never
        # interleaves its shrink with submission (and the open dispatch
        # it registers keeps the ticker away until the drain is done).
        with self._pool_gate:
            pool_start = time.perf_counter()
            pool = self._ensure_steal_pool()
            pool_seconds = time.perf_counter() - pool_start
            before = self._steal_counters(pool)
            submit_start = time.perf_counter()
            drain = pool.dispatch(self._jobs(resolved), trace=trace)
            submit_seconds = time.perf_counter() - submit_start
        if trace is not None:
            if dispatch.freeze_seconds > 0:
                trace.event("session.freeze_export", dispatch.freeze_seconds)
            trace.event("session.pool", pool_seconds, workers=pool.size)
            trace.event(
                "session.dispatch", submit_seconds, tasks=len(resolved)
            )

        def results() -> Iterator[tuple[BatchResult, dict]]:
            try:
                for index, payload, latency, delta, failure in drain:
                    if trace is not None:
                        trace.merge_worker(delta.get("_spans"))
                        trace.end_task(index)
                    if self._metrics_on:
                        self._m_task_seconds.observe(latency)
                    result = self._steal_result(
                        resolved, frozen, index, payload, latency, failure, trace
                    )
                    yield result, delta
            finally:
                # close() runs the drain's cleanup deterministically; an
                # abandoned consumer forfeits only this batch's
                # remaining results, the pool stays warm.
                drain.close()
                dispatch.workers = max(pool.size, 1)
                dispatch.retried = pool.task_retries - before[4]
                self._absorb_steal_stats(pool, before)

        dispatch.results = results()
        return dispatch
