"""The :class:`ExplanationSession` service facade.

A session is the long-lived, service-shaped entry point: construct it
once over a :class:`~repro.graph.knowledge_graph.KnowledgeGraph` with
three typed configs, then serve explanation traffic through

- :meth:`ExplanationSession.explain` — one request, one summary;
- :meth:`ExplanationSession.run` — a batch, returning the familiar
  :class:`~repro.core.batch.BatchReport`;
- :meth:`ExplanationSession.stream` — an iterator yielding
  :class:`~repro.core.batch.BatchResult`\\ s as chunks complete instead
  of blocking on the full barrier.

What makes it a *session* rather than a convenience wrapper is resource
ownership. Everything derived from the graph is keyed by the graph's
version counter and built exactly once per version:

- the frozen CSR view (``graph.freeze()``);
- the shared-memory export workers attach to (zero-copy, see
  :mod:`repro.graph.shared`);
- the warm ``ProcessPoolExecutor`` — workers stay up *between* calls,
  keeping their attached graph and per-worker summarizer/closure
  caches, so consecutive batches pay no re-freeze, no re-export and no
  respawn;
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
legacy ``Summarizer`` / ``BatchSummarizer`` entry points — the session
routes through the same implementations and the same caches.

Batch dispatch is governed by a :class:`repro.serving.SchedulerConfig`:
the default work-stealing scheduler feeds a shared task queue to an
elastic :class:`repro.serving.ElasticWorkerPool` (per-task pulls, grow
under queue pressure / shrink on idle, per-task result streaming over
the compact :mod:`repro.serving.wire` format), while
``SchedulerConfig(mode="chunked")`` keeps the legacy static-chunk
dispatch for spawn-constrained platforms. Either way outputs stay
bit-identical to the serial path; ``stats`` additionally counts steals,
grows, shrinks and the peak queue depth.

Sessions own OS resources (shared-memory blocks, worker processes);
call :meth:`close` or use the session as a context manager when done.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections.abc import Iterable, Iterator
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

from repro.api.config import CacheConfig, EngineConfig, ParallelConfig
from repro.api.registry import MethodSpec, method_spec
from repro.api.requests import SummaryRequest, as_request
from repro.cache import (
    ClosureStoreConfig,
    SharedClosureStore,
    StoreBackedClosureCache,
)
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
from repro.obs import trace as obs_trace
from repro.obs.config import ObservabilityConfig
from repro.obs.log import configure_logging, get_logger
from repro.obs.registry import exponential_buckets, get_registry
from repro.obs.trace import TraceCollector, Tracer
from repro.serving import pool as serving_pool
from repro.serving.config import (
    ResilienceConfig,
    SchedulerConfig,
    static_chunks,
)
from repro.serving.faults import FaultPlan
from repro.serving.pool import ElasticWorkerPool
from repro.serving.wire import decode_explanation, encode_explanation

#: One resolved request: (request, method spec, merged engine config).
_Resolved = tuple[SummaryRequest, MethodSpec, EngineConfig]


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

    The store counters describe the cross-worker closure store (0 with
    the store disabled): ``store_hits`` / ``store_misses`` are lookups
    against the shared tier *summed across the parent and every
    worker*, ``store_evictions`` counts entries displaced under
    capacity pressure, and ``store_bytes`` is the slab's live payload
    footprint at the last sync. Counters accumulate across store
    rebuilds (graph mutations), like every other lifetime counter here.
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

    def cache_line(self) -> str | None:
        """One report line of shared-store activity; None when quiet."""
        if not (self.store_hits or self.store_misses):
            return None
        total = self.store_hits + self.store_misses
        return _stat_line(
            "store",
            {
                "hits": (
                    f"{self.store_hits}/{total} "
                    f"({self.store_hits / total:.0%})"
                ),
                "evictions": self.store_evictions,
                "bytes": self.store_bytes,
            },
        )


# ----------------------------------------------------------------------
# Process-pool worker side (chunked scheduler). Module-level so spawn
# can import it; the per-worker state and summarizer memo live in
# repro.serving.pool (whose ``_init_worker_state`` is this executor's
# initializer) so the chunked executor workers and the work-stealing
# workers memoize identically.
# ----------------------------------------------------------------------
def _session_run_chunk(jobs: list) -> tuple[list, dict[str, int]]:
    """Summarize one chunk of ``(index, attempt, fault, method, config,
    task)`` jobs.

    Returns ``(results, counter_delta)`` with results as
    ``(index, payload, seconds)`` triples — payloads in the compact
    :mod:`repro.serving.wire` format (parent-CSR int arrays instead of
    pickled subgraph objects); chunks run sequentially inside a worker,
    so before/after cache snapshots are race-free.

    ``fault`` is the per-task fault directive (or None): "crash" hard-
    exits the worker mid-chunk — breaking the whole executor, which is
    exactly the failure the supervised parent loop recovers from —
    "hang"/"delay" sleep, "malformed" corrupts the task's payload.
    """
    worker = serving_pool._WORKER
    before = _cache_counters(worker.get("cache"))
    frozen = worker["frozen"]
    tracing = obs_trace.ambient_enabled()
    out = []
    for index, attempt, fault, name, config, task in jobs:
        if fault is not None:
            fault.apply_in_worker()
        summarizer = serving_pool._worker_summarizer(name, config)
        if tracing:
            obs_trace.set_ambient_task(index)
        task_start = time.perf_counter()
        explanation = summarizer.summarize(task)
        seconds = time.perf_counter() - task_start
        encode_start = time.perf_counter()
        payload = encode_explanation(explanation, frozen)
        if tracing:
            obs_trace.record_event(
                "worker.encode",
                time.perf_counter() - encode_start,
                worker=os.getpid(),
            )
            obs_trace.record_event(
                "worker.compute",
                seconds,
                worker=os.getpid(),
                attempt=attempt,
            )
        if fault is not None and fault.kind == "malformed":
            payload = fault.corrupt(payload)
        out.append((index, payload, seconds))
    after = _cache_counters(worker.get("cache"))
    delta = {key: after[key] - before[key] for key in _STAT_KEYS}
    if tracing:
        delta["_spans"] = obs_trace.drain_ambient()
    return out, delta


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
        :class:`ParallelConfig` governing batch dispatch.
    scheduler:
        :class:`repro.serving.SchedulerConfig` governing how a chosen
        backend hands tasks to workers: work-stealing (shared queue,
        elastic pool, per-task streaming — the default) or the legacy
        static chunking.
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
    store:
        :class:`repro.cache.ClosureStoreConfig` for the cross-worker
        shared closure store (disabled by default). When enabled, the
        store is created alongside the shared-memory export, attached
        by every pool worker, read through by all closure caches
        (parent and workers), and invalidated with the pool on graph
        mutation.
    obs:
        :class:`repro.obs.ObservabilityConfig` governing telemetry:
        registry metrics (default on), per-request span traces
        (default off; exposed via :meth:`last_trace`,
        ``BatchResult.trace`` and the server ``trace`` op), the
        slow-request log threshold, and JSON-lines structured logging.
    """

    #: Auto-backend thresholds: below either, worker startup + IPC
    #: dominates and the local backends win.
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
        store: ClosureStoreConfig | None = None,
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
        self.store_config = (
            store if store is not None else ClosureStoreConfig()
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
        if (
            self.scheduler_config.mode == "chunked"
            and self.resilience_config.task_timeout_seconds > 0
        ):
            # Config-validation-time warning, not a mid-batch surprise:
            # the chunked executor has no per-task leases, so deadlines
            # cannot be enforced there (see the README failure-mode
            # table). Crash supervision still applies per chunk.
            warnings.warn(
                "ResilienceConfig.task_timeout_seconds is ignored by "
                "the chunked scheduler (per-task deadlines need the "
                "work-stealing pool's task leases); use "
                'SchedulerConfig(mode="work-stealing") for deadline '
                "enforcement",
                RuntimeWarning,
                stacklevel=2,
            )
        self._faults = faults
        self.default_method = method_spec(default_method).name
        self.stats = SessionStats()
        self._version: int | None = None
        self._frozen = None
        self._export = None
        self._store: SharedClosureStore | None = None
        #: Last-synced store counters; deltas fold into ``stats`` so
        #: lifetime counters survive store rebuilds (invalidations).
        self._store_seen: dict = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
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
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                self._pool_workers = 0
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
        self._release_store()
        self._frozen = None
        self._closure_cache = None
        self._summarizers.clear()

    def _release_store(self) -> None:
        """Destroy the shared closure store (counters folded first).

        Runs on invalidation and close — *not* on ``release_pool()``:
        like the serial-path caches, the store outlives a pool release
        so the next process-backed run re-attaches warm entries.
        """
        if self._store is not None:
            self._sync_store_stats()
            self._store.close()
            self._store.unlink()
            self._store = None
            self._store_seen = {}

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
            store = self._ensure_store()
            if store is not None:
                self._closure_cache = StoreBackedClosureCache(
                    self.cache_config.closure_size, store=store
                )
            else:
                self._closure_cache = TerminalClosureCache(
                    self.cache_config.closure_size
                )
        return self._closure_cache

    def _ensure_store(self) -> SharedClosureStore | None:
        """Create the shared closure store at most once per version.

        None when disabled. The store is version-scoped like the frozen
        export: graph mutation invalidates it wholesale (entry keys
        embed the version, so stale reuse is impossible anyway, but
        recreating frees the slab for the new working set).
        """
        if not self.store_config.enabled:
            return None
        if self._store is None:
            self._store = SharedClosureStore.create(
                self.store_config, self._mp_context()
            )
            self._store_seen = {}
        return self._store

    def _worker_cache_config(self) -> tuple:
        """The per-worker cache recipe both process pools initialize with.

        ``(closure_size, store_handle, plugin_modules, trace)`` — the
        store handle carries the shared-memory token plus its locks
        (inheritable through process spawn only, never queues), the
        plugin modules are imported by each worker before it serves
        tasks, and a truthy ``trace`` flips the worker's ambient span
        recorder on so compute/encode/store spans ride home through the
        result-pipe stat deltas.
        """
        store = self._ensure_store()
        return (
            self.cache_config.closure_size,
            store.handle if store is not None else None,
            self.parallel_config.plugin_modules,
            self._tracer.enabled,
        )

    def _sync_store_stats(self) -> None:
        """Fold the live store counters' deltas into ``stats``.

        The store accumulates raw counters across every attached
        process; ``_store_seen`` remembers the last fold so repeated
        syncs (one per run/stream drain) never double-count, and
        lifetime session totals survive store rebuilds.
        """
        if self._store is None:
            return
        try:
            live = self._store.stats()
        except (OSError, ValueError):  # store torn down under us
            return
        seen = self._store_seen
        self.stats.store_hits += live["hits"] - seen.get("hits", 0)
        self.stats.store_misses += live["misses"] - seen.get("misses", 0)
        self.stats.store_evictions += live["evictions"] - seen.get(
            "evictions", 0
        )
        self.stats.store_bytes = live["bytes_used"]
        self._store_seen = live

    def store_stats(self) -> dict | None:
        """Live counters of the shared closure store; None when off."""
        if self._store is None:
            return None
        return self._store.stats()

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
            self._sync_store_stats()

    def run(
        self,
        items: Iterable[SummaryRequest | SummaryTask],
        *,
        trace_id: str | None = None,
        queue_wait_seconds: float | None = None,
    ) -> BatchReport:
        """Serve a batch; per-task timings and cache stats in the report.

        With tracing enabled (``ObservabilityConfig(trace=True)``) the
        whole batch becomes one trace tree — freeze/export, pool
        spawn, dispatch, per-task queue-wait/compute/encode spans (the
        worker-recorded ones ride home in the result-pipe stat deltas)
        — retrievable via :meth:`last_trace` and attached per result
        as ``BatchResult.trace``. ``trace_id`` adopts a caller-stamped
        id; ``queue_wait_seconds`` records the server's admission
        wait.
        """
        resolved = [self._resolve(item) for item in items]
        self._refresh()
        backend = self._resolve_backend(resolved)
        self.stats.runs += 1
        self.stats.tasks += len(resolved)
        trace = self._tracer.begin(
            "run",
            trace_id=trace_id,
            tasks=len(resolved),
            backend=backend,
        )
        if trace is not None and queue_wait_seconds is not None:
            trace.event("server.queue_wait", queue_wait_seconds)
        batch_start = time.perf_counter()
        try:
            if backend == "processes":
                try:
                    return self._run_processes(resolved, trace)
                except _PROCESS_FALLBACK_ERRORS as error:
                    self.release_pool()
                    backend = self._demote_to_local(
                        f"process backend unavailable ({error!r})",
                        len(resolved),
                    )
                finally:
                    self._sync_store_stats()
            try:
                return self._run_local(resolved, backend, trace)
            finally:
                self._sync_store_stats()
        finally:
            if self._metrics_on:
                self._m_batch_seconds.observe(
                    time.perf_counter() - batch_start
                )
                self._m_batch_size.observe(len(resolved))
                self._m_tasks_total.inc(len(resolved))
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

        Yields :class:`BatchResult`\\ s as they complete — task by task
        under the default work-stealing scheduler (each result leaves
        its worker the moment it is finished) and locally, chunk by
        chunk under the legacy chunked process scheduler — instead of
        blocking on the whole batch. Arrival order follows completion,
        not submission; each result carries its input ``index`` for
        reordering. Setup (request resolution, backend choice, pool
        warm-up, fallback warnings) happens eagerly in this call, and
        the process backend also submits its work eagerly — workers
        compute while the caller consumes. The local backends compute
        lazily, driven by iteration.
        """
        resolved = [self._resolve(item) for item in items]
        self._refresh()
        backend = self._resolve_backend(resolved)
        self.stats.runs += 1
        self.stats.tasks += len(resolved)
        trace = self._tracer.begin(
            "stream",
            trace_id=trace_id,
            tasks=len(resolved),
            backend=backend,
        )
        if trace is not None and queue_wait_seconds is not None:
            trace.event("server.queue_wait", queue_wait_seconds)
        if self._metrics_on:
            self._m_batch_size.observe(len(resolved))
            self._m_tasks_total.inc(len(resolved))
        if backend == "processes":
            try:
                return self._synced_stream(
                    self._stream_processes(resolved, trace), trace
                )
            except _PROCESS_FALLBACK_ERRORS as error:
                self.release_pool()
                backend = self._demote_to_local(
                    f"process backend unavailable ({error!r})",
                    len(resolved),
                )
        return self._synced_stream(
            self._stream_local(resolved, backend, trace), trace
        )

    def _synced_stream(
        self, iterator: Iterator[BatchResult], trace=None
    ):
        """Fold store counters when a stream drains (or is abandoned)."""
        try:
            yield from iterator
        finally:
            if trace is not None:
                trace.finish()
            self._sync_store_stats()

    # ------------------------------------------------------------------
    # Backend resolution
    # ------------------------------------------------------------------
    def _local_fallback(self, num_tasks: int) -> str:
        if self.parallel_config.workers > 1 and num_tasks > 1:
            return "threads"
        return "serial"

    def _demote_to_local(
        self, reason: str, num_tasks: int, *, stacklevel: int = 3
    ) -> str:
        """Warn once, count the demotion, and pick the local backend.

        Every path that abandons the process backend mid-request funnels
        through here so the RuntimeWarning wording, the
        ``SessionStats.local_fallbacks`` counter, and the
        threads-vs-serial choice can never drift apart. Demotion is the
        whole-batch blast radius that worker supervision exists to make
        rare; the counter is what chaos tests pin to 0.
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
        return self._local_fallback(num_tasks)

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
        process_safe = all(
            self._spec_process_safe(spec) for _r, spec, _c in resolved
        )
        if choice == "processes":
            if num_tasks == 0:
                return "serial"
            if not process_safe:
                return self._demote_to_local(
                    "batch contains methods registered at runtime "
                    "(not process-safe)",
                    num_tasks,
                    stacklevel=4,
                )
            return choice
        if choice != "auto":
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
        if self.parallel_config.workers > 1 and num_tasks > 1:
            return "threads"
        return "serial"

    # ------------------------------------------------------------------
    # Local (serial / thread-pool) execution
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

    def _local_pool_size(self) -> int:
        if self.parallel_config.workers > 0:
            return self.parallel_config.workers
        return os.cpu_count() or 1

    def _chunk_results(
        self, chunk: list, trace=None
    ) -> list[BatchResult]:
        """One static chunk, computed inline (thread chunked mode)."""
        return [
            self._one_result(index, item, trace)
            for index, item in chunk
        ]

    def _run_local(
        self, resolved: list[_Resolved], backend: str, trace=None
    ) -> BatchReport:
        start = time.perf_counter()
        freeze_seconds = 0.0
        if self._needs_frozen(resolved):
            freeze_start = time.perf_counter()
            self._frozen_view()
            freeze_seconds = time.perf_counter() - freeze_start
        if trace is not None and freeze_seconds > 0:
            trace.event("session.freeze_export", freeze_seconds)
        # Pre-build every distinct summarizer serially so the thread
        # path never races two builds of the same config (results would
        # still be right, but counters could split across caches).
        for _request, spec, config in resolved:
            self._summarizer_for(spec, config)
        before = _cache_counters(self._closure_cache)

        pool_size = self._local_pool_size()
        scheduler = ""
        if backend == "threads" and pool_size > 1 and len(resolved) > 1:
            scheduler = self.scheduler_config.mode
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                if scheduler == "chunked":
                    # Static chunks as indivisible futures; flattening
                    # in submission order restores input order.
                    futures = [
                        pool.submit(self._chunk_results, chunk, trace)
                        for chunk in static_chunks(
                            list(enumerate(resolved)),
                            pool_size,
                            self.parallel_config.chunk_size,
                        )
                    ]
                    results = [
                        result
                        for future in futures
                        for result in future.result()
                    ]
                else:
                    results = list(
                        pool.map(
                            lambda pair: self._one_result(*pair, trace),
                            enumerate(resolved),
                        )
                    )
            workers = pool_size
        else:
            backend = "serial"
            results = [
                self._one_result(index, item, trace)
                for index, item in enumerate(resolved)
            ]
            workers = self.parallel_config.workers
        after = _cache_counters(self._closure_cache)

        return BatchReport(
            method=self._report_method(resolved),
            results=tuple(results),
            freeze_seconds=freeze_seconds,
            total_seconds=time.perf_counter() - start,
            cache_hits=after["hits"] - before["hits"],
            cache_misses=after["misses"] - before["misses"],
            store_hits=after["store_hits"] - before["store_hits"],
            store_misses=after["store_misses"] - before["store_misses"],
            workers=workers,
            parallel=backend,
            scheduler=scheduler,
        )

    def _stream_local(
        self, resolved: list[_Resolved], backend: str, trace=None
    ) -> Iterator[BatchResult]:
        if self._needs_frozen(resolved):
            self._frozen_view()
        for _request, spec, config in resolved:
            self._summarizer_for(spec, config)
        pool_size = self._local_pool_size()
        if backend == "threads" and pool_size > 1 and len(resolved) > 1:
            if self.scheduler_config.mode == "chunked":

                def chunked() -> Iterator[BatchResult]:
                    with ThreadPoolExecutor(max_workers=pool_size) as pool:
                        futures = [
                            pool.submit(
                                self._chunk_results, chunk, trace
                            )
                            for chunk in static_chunks(
                                list(enumerate(resolved)),
                                pool_size,
                                self.parallel_config.chunk_size,
                            )
                        ]
                        for future in as_completed(futures):
                            yield from future.result()

                return chunked()

            def threaded() -> Iterator[BatchResult]:
                with ThreadPoolExecutor(max_workers=pool_size) as pool:
                    futures = [
                        pool.submit(
                            self._one_result, index, item, trace
                        )
                        for index, item in enumerate(resolved)
                    ]
                    for future in as_completed(futures):
                        yield future.result()

            return threaded()

        def serial() -> Iterator[BatchResult]:
            for index, item in enumerate(resolved):
                yield self._one_result(index, item, trace)

        return serial()

    # ------------------------------------------------------------------
    # Warm process-pool execution
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

    def _ensure_chunked_pool(self) -> None:
        """Spawn the legacy chunk executor at most once per version."""
        if self._pool is None:
            workers = max(1, self._local_pool_size())
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=self._mp_context(),
                initializer=serving_pool._init_worker_state,
                initargs=(
                    self._export.handle,
                    self._worker_cache_config(),
                ),
            )
            self._pool_workers = workers
            self.stats.pool_starts += 1

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
            self._steal_pool = ElasticWorkerPool(
                self._mp_context(),
                self._export.handle,
                self._worker_cache_config(),
                self.scheduler_config,
                max(1, self._local_pool_size()),
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

    def _run_processes(
        self, resolved: list[_Resolved], trace=None
    ) -> BatchReport:
        if self.scheduler_config.mode == "work-stealing":
            return self._run_stealing(resolved, trace)
        return self._run_chunked(resolved, trace)

    def _run_stealing(
        self, resolved: list[_Resolved], trace=None
    ) -> BatchReport:
        start = time.perf_counter()
        freeze_seconds = self._ensure_export()
        # Dispatch start under the pool gate: the idle ticker never
        # interleaves its shrink with submission (and the open dispatch
        # it registers keeps the ticker away until the drain is done).
        with self._pool_gate:
            pool_start = time.perf_counter()
            pool = self._ensure_steal_pool()
            pool_seconds = time.perf_counter() - pool_start
            before = self._steal_counters(pool)
            dispatch_start = time.perf_counter()
            drain = pool.dispatch(self._jobs(resolved), trace=trace)
            dispatch_seconds = time.perf_counter() - dispatch_start
        if trace is not None:
            if freeze_seconds > 0:
                trace.event("session.freeze_export", freeze_seconds)
            trace.event("session.pool", pool_seconds, workers=pool.size)
            trace.event(
                "session.dispatch", dispatch_seconds, tasks=len(resolved)
            )
        stats = dict.fromkeys(_STAT_KEYS, 0)
        merged: list[tuple] = []
        try:
            for index, payload, latency, delta, failure in drain:
                merged.append((index, payload, latency, failure))
                for key in _STAT_KEYS:
                    stats[key] += delta[key]
                if trace is not None:
                    trace.merge_worker(delta.get("_spans"))
                    trace.end_task(index)
                if self._metrics_on:
                    self._m_task_seconds.observe(latency)
        finally:
            workers = max(pool.size, 1)
            retried = pool.task_retries - before[4]
            self._absorb_steal_stats(pool, before)
        merged.sort(key=lambda entry: entry[0])
        frozen = self._frozen_view()
        results = tuple(
            self._steal_result(
                resolved, frozen, index, payload, seconds, failure, trace
            )
            for index, payload, seconds, failure in merged
        )
        return BatchReport(
            method=self._report_method(resolved),
            results=results,
            freeze_seconds=freeze_seconds,
            total_seconds=time.perf_counter() - start,
            cache_hits=stats["hits"],
            cache_misses=stats["misses"],
            store_hits=stats["store_hits"],
            store_misses=stats["store_misses"],
            workers=workers,
            parallel="processes",
            scheduler="work-stealing",
            retried=retried,
        )

    def _chunk_envelope(self, chunk: list, attempt: int) -> list:
        """Arm one chunk's jobs with their fault directives + attempt."""
        return [
            (
                index,
                attempt,
                (
                    self._faults.for_task(index, attempt)
                    if self._faults
                    else None
                ),
                name,
                config,
                task,
            )
            for index, name, config, task in chunk
        ]

    def _supervised_chunk_results(self, chunks: list) -> Iterator[tuple]:
        """Drive chunks through the executor, surviving worker deaths.

        Yields ``(entries, counter_delta)`` per concluded chunk, with
        entries as ``(index, payload, seconds, failure)``. A worker
        death breaks the whole ``ProcessPoolExecutor`` — every chunk
        still in flight raises ``BrokenProcessPool`` (attribution to
        the chunk that killed the worker is impossible from the
        parent), so each interrupted chunk is charged one retry and
        re-run on a respawned executor; a chunk that exhausts
        ``ResilienceConfig.max_task_retries`` concludes as typed
        ``TaskFailure(cause="crash")`` results while the rest of the
        batch completes. ``max_worker_respawns`` is the same circuit
        breaker the work-stealing pool honors: past it (or at 0, the
        supervision-off legacy contract) ``BrokenProcessPool``
        propagates and the session demotes the batch to its local
        fallback.
        """
        retries = self.resilience_config.max_task_retries
        budget = self.resilience_config.max_worker_respawns
        zero = dict.fromkeys(_STAT_KEYS, 0)
        respawns = 0
        queue = [(chunk, 0) for chunk in chunks]
        while queue:
            self._ensure_chunked_pool()
            futures = {
                self._pool.submit(
                    _session_run_chunk,
                    self._chunk_envelope(chunk, attempt),
                ): (chunk, attempt)
                for chunk, attempt in queue
            }
            queue = []
            broken = False
            for future in as_completed(futures):
                chunk, attempt = futures[future]
                try:
                    results, delta = future.result()
                except BrokenProcessPool:
                    if budget == 0:
                        raise  # supervision off: whole-batch demotion
                    broken = True
                    if attempt < retries:
                        queue.append((chunk, attempt + 1))
                        self.stats.task_retries += len(chunk)
                    else:
                        yield (
                            [
                                (
                                    index,
                                    None,
                                    0.0,
                                    TaskFailure(
                                        cause="crash",
                                        message=(
                                            "worker died while this "
                                            "chunk was in flight; "
                                            "retry budget exhausted"
                                        ),
                                        retries=attempt,
                                    ),
                                )
                                for index, _n, _c, _t in chunk
                            ],
                            zero,
                        )
                else:
                    yield (
                        [(i, p, s, None) for i, p, s in results],
                        delta,
                    )
            if broken:
                self.stats.worker_deaths += 1
                respawns += 1
                if respawns > budget:
                    raise BrokenProcessPool(
                        f"chunked executor died {respawns} time(s); "
                        f"respawn budget ({budget}) exhausted"
                    )
                # Scrap the broken executor; the shared-memory export
                # survives, so the respawn re-attaches, not re-exports.
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None

    def _run_chunked(
        self, resolved: list[_Resolved], trace=None
    ) -> BatchReport:
        start = time.perf_counter()
        freeze_seconds = self._ensure_export()
        pool_start = time.perf_counter()
        self._ensure_chunked_pool()
        if trace is not None:
            if freeze_seconds > 0:
                trace.event("session.freeze_export", freeze_seconds)
            trace.event(
                "session.pool",
                time.perf_counter() - pool_start,
                workers=self._pool_workers,
            )
        chunks = static_chunks(
            self._jobs(resolved),
            self._pool_workers,
            self.parallel_config.chunk_size,
        )
        workers = min(self._pool_workers, len(chunks))
        retried_before = self.stats.task_retries
        stats = dict.fromkeys(_STAT_KEYS, 0)
        merged: list[tuple] = []
        for entries, delta in self._supervised_chunk_results(chunks):
            merged.extend(entries)
            for key in _STAT_KEYS:
                stats[key] += delta[key]
            if trace is not None:
                trace.merge_worker(delta.get("_spans"))
                for index, _payload, _seconds, _failure in entries:
                    trace.end_task(index)
            if self._metrics_on:
                for _index, _payload, seconds, failure in entries:
                    if failure is None:
                        self._m_task_seconds.observe(seconds)
        merged.sort(key=lambda entry: entry[0])
        frozen = self._frozen_view()
        results = tuple(
            self._steal_result(
                resolved, frozen, index, payload, seconds, failure, trace
            )
            for index, payload, seconds, failure in merged
        )
        return BatchReport(
            method=self._report_method(resolved),
            results=results,
            freeze_seconds=freeze_seconds,
            total_seconds=time.perf_counter() - start,
            cache_hits=stats["hits"],
            cache_misses=stats["misses"],
            store_hits=stats["store_hits"],
            store_misses=stats["store_misses"],
            workers=workers,
            parallel="processes",
            scheduler="chunked",
            retried=self.stats.task_retries - retried_before,
        )

    def _stream_processes(
        self, resolved: list[_Resolved], trace=None
    ) -> Iterator[BatchResult]:
        """Eagerly set up + submit; return the completion-order iterator."""
        if self.scheduler_config.mode == "work-stealing":
            return self._stream_stealing(resolved, trace)
        self._ensure_export()
        self._ensure_chunked_pool()
        frozen = self._frozen_view()
        chunks = static_chunks(
            self._jobs(resolved),
            self._pool_workers,
            self.parallel_config.chunk_size,
        )
        supervised = self._supervised_chunk_results(chunks)

        def results() -> Iterator[BatchResult]:
            for entries, delta in supervised:
                if trace is not None:
                    trace.merge_worker(delta.get("_spans"))
                for index, payload, seconds, failure in entries:
                    if trace is not None:
                        trace.end_task(index)
                    if self._metrics_on and failure is None:
                        self._m_task_seconds.observe(seconds)
                    yield self._steal_result(
                        resolved,
                        frozen,
                        index,
                        payload,
                        seconds,
                        failure,
                        trace,
                    )

        return results()

    def _stream_stealing(
        self, resolved: list[_Resolved], trace=None
    ) -> Iterator[BatchResult]:
        self._ensure_export()
        frozen = self._frozen_view()
        with self._pool_gate:
            pool = self._ensure_steal_pool()
            before = self._steal_counters(pool)
            drain = pool.dispatch(self._jobs(resolved), trace=trace)

        def results() -> Iterator[BatchResult]:
            try:
                for index, payload, latency, delta, failure in drain:
                    if trace is not None:
                        trace.merge_worker(delta.get("_spans"))
                        trace.end_task(index)
                    if self._metrics_on:
                        self._m_task_seconds.observe(latency)
                    yield self._steal_result(
                        resolved,
                        frozen,
                        index,
                        payload,
                        latency,
                        failure,
                        trace,
                    )
            finally:
                # close() runs the drain's cleanup deterministically; an
                # abandoned consumer forfeits only this batch's
                # remaining results, the pool stays warm.
                drain.close()
                self._absorb_steal_stats(pool, before)

        return results()
