"""Elastic work-stealing worker pool over the shared-memory graph plane.

This is the session's one parallel backend. A static schedule would
pre-split a batch into chunks, so one slow group task would stall
every task behind it in its chunk, results would surface a whole chunk
at a time, and the pool's size would be frozen at first spawn. The
pool avoids all three:

- **Shared task queue, per-task pulls.** The parent puts every job on
  one ``multiprocessing.Queue``; each worker takes the next job the
  moment it finishes its current one. Scheduling is emergent — a heavy
  task simply occupies one worker while the others drain the queue.
- **Steal accounting.** Jobs are nominally assigned round-robin at
  submission (job *i* → worker slot ``i % pool``); a job finished by any other worker counts as a *steal*, so
  ``ElasticWorkerPool.steals`` measures exactly the rebalancing a
  static schedule would have missed.
- **Elastic sizing.** While draining, the parent grows the pool one
  worker at a time whenever the estimated backlog exceeds
  ``grow_pressure x size`` (bounded by ``max_workers``); once the pool
  has sat idle past ``shrink_idle_seconds``, the next dispatch retires
  workers down to the larger of ``min_workers`` and what its own batch
  needs — a warm worker is never retired just to be regrown for the
  jobs arriving in the same call.
- **Per-task result pipe.** Every finished job is posted to a result
  queue as a compact :mod:`repro.serving.wire` payload with its
  worker-measured latency and closure-cache counter delta — the parent
  streams results in completion order.

Dispatches are multiplexed: every job and result is tagged with a
dispatch id, and results that belong to another (still-open) dispatch
are routed to that dispatch's buffer instead of being consumed — so a
partially-drained ``stream()`` can overlap a later ``run()`` on the
same pool, and an abandoned iterator merely orphans its own buffer
(its in-flight jobs finish and are dropped) while the pool stays warm.

Failure semantics (see :class:`repro.serving.config.ResilienceConfig`):

- **Task errors** re-raise in the parent and fail *their* batch only —
  the pool keeps serving — unless ``isolate_errors`` demotes them to
  typed :class:`~repro.core.batch.TaskFailure` results.
- **Worker crashes are supervised.** Every worker posts a *lease*
  message the moment it pulls a job, so the parent always knows which
  task an unexpectedly dead worker held. The dead worker is replaced
  in place and its leased task re-queued (each job envelope carries an
  attempt counter); past ``max_task_retries`` the task fails
  *individually* as a ``TaskFailure(cause="crash")`` while the rest of
  the batch completes untouched.
- **Per-task deadlines.** With ``task_timeout_seconds`` armed, a
  worker holding one lease past the deadline is terminated, replaced,
  and its task retried or failed with cause ``"timeout"``. (A worker
  past its deadline is inside task compute — or an injected hang —
  not holding a queue lock, so termination is pipe-safe; the rare
  worker that finishes in the same instant may leave a stale duplicate
  result, which the drain's per-dispatch done-set drops.)
- **Circuit breaker.** Only when the lifetime respawn budget
  (``max_worker_respawns``) is spent, or spawning a replacement itself
  fails, does the pool abort and raise
  :class:`~concurrent.futures.process.BrokenProcessPool` — which the
  session's fallback machinery demotes to a local run exactly as
  before supervision existed. ``max_worker_respawns=0`` restores the
  legacy first-death-breaks-the-pool behavior.

There is one unavoidable race: a worker that dies *between* pulling a
job and its lease message flushing to the parent loses that task
untraceably (the drain would wait forever on a task nobody holds).
The window is microseconds of queue-feeder time; injected crash
faults sleep past it deliberately (:data:`repro.serving.faults.CRASH_FLUSH_SECONDS`).
"""

from __future__ import annotations

import os
import queue
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures.process import BrokenProcessPool

from repro.core.batch import _STAT_KEYS, TaskFailure
from repro.obs.log import get_logger
from repro.serving.config import ResilienceConfig, SchedulerConfig
from repro.serving.faults import FaultPlan

#: One job: (task index, method name, EngineConfig, SummaryTask).
Job = tuple
#: One drained result: ``(index, payload, latency_seconds, counters,
#: failure)`` — exactly one of payload/failure is non-None.
TaskResult = tuple

#: Worker-side state (graph, frozen view, cache, summarizer memo), one
#: per worker process.
_WORKER: dict = {}


def _init_worker_state(handle, cache_config: tuple) -> None:
    """Attach the shared graph (or reuse the one a fork inherited);
    import plugins.

    ``cache_config`` is the worker-config tuple ``(closure_size,
    plugin_modules, trace)`` built by the session. Plugin modules are
    imported *before* any task runs, so runtime-registered methods
    exist in the registry by the time the first summarizer is built;
    an import failure propagates, failing worker init loudly (the
    session then demotes to a local run) instead of silently
    mis-routing. A truthy ``trace`` flips the worker's ambient span
    recorder on (see :mod:`repro.obs.trace`), so compute/encode spans
    ride back through the result pipe's stat-delta dict.
    """
    import gc
    import importlib

    from repro.graph.shared import (
        attach_knowledge_graph,
        inherited_knowledge_graph,
    )

    # A forked worker inherits its parent's whole heap. Freezing it
    # keeps the worker's collections from walking (and so copying, page
    # by page) objects it never frees.
    gc.freeze()
    size, plugin_modules, trace_on = cache_config
    for module in plugin_modules:
        importlib.import_module(module)
    if trace_on:
        from repro.obs import trace as obs_trace

        obs_trace.enable_ambient()
    graph = inherited_knowledge_graph(handle)
    if graph is None:
        graph = attach_knowledge_graph(handle)
    _WORKER["graph"] = graph
    _WORKER["frozen"] = graph.freeze()
    _WORKER["closure_size"] = size
    _WORKER["cache"] = None
    _WORKER["summarizers"] = {}


def _worker_summarizer(name: str, config):
    """Per-worker summarizer memo, keyed like the parent session's."""
    from repro.api.registry import method_spec
    from repro.core.batch import TerminalClosureCache

    key = (name, config)
    summarizer = _WORKER["summarizers"].get(key)
    if summarizer is None:
        spec = method_spec(name)
        cache = None
        if spec.uses_closure_cache:
            cache = _WORKER["cache"]
            if cache is None:
                cache = TerminalClosureCache(_WORKER["closure_size"])
                _WORKER["cache"] = cache
        summarizer = spec.build(_WORKER["graph"], config, cache)
        _WORKER["summarizers"][key] = summarizer
    return summarizer


def _steal_worker_main(
    handle, cache_config, task_queue, result_queue, worker_id: int
) -> None:
    """Worker loop: attach once, then pull jobs until poisoned.

    Posts ``("lease", worker_id, dispatch_id, index)`` the moment a
    job is pulled — the supervision breadcrumb that lets the parent
    re-queue this exact task if the worker dies holding it — then
    ``("result", worker_id, dispatch_id, index, payload, latency,
    delta)`` per finished job, ``("error", worker_id, dispatch_id,
    index, exception)`` for task-level failures (the worker itself
    keeps serving), and ``("exit", worker_id)`` after consuming a
    ``None`` poison pill. An injected fault directive riding the job
    envelope is applied *after* the lease post, so chaos tests always
    crash/hang traceably.
    """
    from repro.core.batch import _cache_counters
    from repro.obs import trace as obs_trace
    from repro.serving.wire import encode_explanation

    _init_worker_state(handle, cache_config)
    tracing = obs_trace.ambient_enabled()
    while True:
        try:
            job = task_queue.get()
        except (EOFError, OSError):  # queues torn down under us
            return
        if job is None:
            result_queue.put(("exit", worker_id))
            return
        dispatch_id, index, attempt, fault, name, config, task = job
        result_queue.put(("lease", worker_id, dispatch_id, index))
        if fault is not None:
            fault.apply_in_worker()  # crash never returns; hang sleeps
        if tracing:
            obs_trace.set_ambient_task(index)
        before = _cache_counters(_WORKER["cache"])
        start = time.perf_counter()
        try:
            explanation = _worker_summarizer(name, config).summarize(task)
        except Exception as error:
            if tracing:
                obs_trace.drain_ambient()  # discard the failed task's spans
            result_queue.put(
                ("error", worker_id, dispatch_id, index, error)
            )
            continue
        latency = time.perf_counter() - start
        after = _cache_counters(_WORKER["cache"])
        delta = {key: after[key] - before[key] for key in _STAT_KEYS}
        encode_start = time.perf_counter()
        payload = encode_explanation(explanation, _WORKER["frozen"])
        if tracing:
            obs_trace.record_event(
                "worker.encode",
                time.perf_counter() - encode_start,
                worker=worker_id,
            )
            obs_trace.record_event(
                "worker.compute",
                latency,
                worker=worker_id,
                attempt=attempt,
            )
            delta["_spans"] = obs_trace.drain_ambient()
        if fault is not None and fault.kind == "malformed":
            payload = fault.corrupt(payload)
        result_queue.put(
            ("result", worker_id, dispatch_id, index, payload, latency, delta)
        )


class ElasticWorkerPool:
    """Parent-side owner of the work-stealing worker fleet.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context (start method) to spawn under.
    handle:
        Picklable :class:`~repro.graph.shared.SharedGraphHandle` the
        workers attach.
    cache_config:
        Worker-config tuple ``(closure_size, plugin_modules, trace)``
        for each worker's own cache, method plugins and span recorder
        (see :func:`_init_worker_state`).
    config:
        The :class:`SchedulerConfig` sizing/pressure knobs.
    initial_workers:
        Nominal pool size (the session's resolved worker count); the
        pool starts here, clamped into ``[min_workers, max_workers]``.
    resilience:
        :class:`~repro.serving.config.ResilienceConfig` retry budget /
        deadline / circuit-breaker knobs (defaults applied when None).
    faults:
        Optional deterministic :class:`~repro.serving.faults.FaultPlan`
        threaded into job envelopes — chaos-test injection only.
    """

    #: Drain-loop tick: how often liveness/growth are re-checked while
    #: waiting on the result queue.
    POLL_SECONDS = 0.05
    #: Patience for graceful retirements before workers are terminated.
    JOIN_SECONDS = 5.0

    def __init__(
        self,
        context,
        handle,
        cache_config: tuple,
        config: SchedulerConfig,
        initial_workers: int,
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._context = context
        self._handle = handle
        self._cache_config = cache_config
        self.config = config
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self._faults = faults
        self.min_workers = max(1, config.min_workers)
        initial = max(self.min_workers, initial_workers)
        self.max_workers = config.max_workers or max(
            initial, os.cpu_count() or 1
        )
        self.max_workers = max(self.max_workers, self.min_workers)
        initial = min(initial, self.max_workers)
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._workers: dict = {}
        self._next_worker_id = 0
        self.steals = 0
        self.grows = 0
        self.shrinks = 0
        self.peak_queue_depth = 0
        self.worker_deaths = 0
        self.task_retries = 0
        self.task_timeouts = 0
        self.respawns = 0
        self.broken = False
        #: worker id -> ((dispatch_id, index), lease monotonic time):
        #: which task each worker currently holds, per its last lease
        #: message — the supervision state crash recovery reads.
        self._leases: dict[int, tuple] = {}
        #: (dispatch_id, index) -> submitted job envelope, kept from
        #: submission until the result lands (or the dispatch's drain
        #: closes) so a crashed/timed-out task can be re-queued
        #: without shipping the envelope back through the lease pipe.
        self._inflight: dict[tuple[int, int], tuple] = {}
        #: dispatch id -> buffered messages awaiting that dispatch's
        #: drain. An entry exists from submission until the drain's
        #: finally block (or forever, bounded by the batch size, for an
        #: iterator the caller obtained but never consumed); messages
        #: for unknown ids — dispatches already abandoned mid-drain —
        #: are dropped on arrival.
        self._buffers: dict[int, object] = {}
        self._next_dispatch_id = 0
        #: dispatch id -> TraceBuilder while that dispatch traces, and
        #: (dispatch_id, index) -> submission monotonic time for its
        #: queue-wait spans. Both empty whenever tracing is off, so the
        #: per-message cost is one truthiness check.
        self._traces: dict[int, object] = {}
        self._submit_ts: dict[tuple[int, int], float] = {}
        self._idle_since = time.monotonic()
        try:
            for _ in range(initial):
                self._spawn()
        except BaseException:
            # Partial spawn (fork/exec failure): terminate what started
            # so the caller's fallback path inherits no stray children.
            self._abort()
            raise

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current number of (believed-alive) workers."""
        return len(self._workers)

    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._context.Process(
            target=_steal_worker_main,
            args=(
                self._handle,
                self._cache_config,
                self._task_queue,
                self._result_queue,
                worker_id,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process

    def _retire(self, worker_id: int) -> None:
        process = self._workers.pop(worker_id, None)
        if process is not None:
            process.join(timeout=self.JOIN_SECONDS)

    def _handle_exit(self, worker_id: int) -> None:
        """One worker consumed a poison pill: retire and account it.

        If open dispatches still need a pool and the last worker just
        left (a stray pill from a timed-out shrink), respawn the floor.
        """
        self._retire(worker_id)
        self.shrinks += 1
        if self._buffers and not self._workers:
            self._spawn()
            self.grows += 1

    def _route(self, message) -> None:
        """Buffer a result/error/failure for the dispatch it belongs to.

        Messages for unknown dispatch ids — batches abandoned mid-drain
        — are dropped; their workers' effort is already sunk.
        """
        buffer = self._buffers.get(message[2])
        if buffer is not None:
            buffer.append(message)

    def _absorb(self, message):
        """Fold one raw queue message into the supervision state.

        Lease messages are recorded and consumed (returns None);
        result/error messages clear their worker's lease and the
        task's in-flight envelope, then pass through. "exit" passes
        through untouched — each consumer has its own retirement
        accounting.
        """
        kind = message[0]
        if kind == "lease":
            _kind, worker_id, dispatch_id, index = message
            now = time.monotonic()
            self._leases[worker_id] = ((dispatch_id, index), now)
            if self._traces:
                trace = self._traces.get(dispatch_id)
                submitted = self._submit_ts.get((dispatch_id, index))
                if trace is not None and submitted is not None:
                    envelope = self._inflight.get((dispatch_id, index))
                    trace.event(
                        "queue_wait",
                        now - submitted,
                        parent=trace.task_span(index),
                        worker=worker_id,
                        attempt=envelope[2] if envelope else 0,
                    )
            return None
        if kind in ("result", "error"):
            self._leases.pop(message[1], None)
            self._inflight.pop((message[2], message[3]), None)
        return message

    def _envelope(self, dispatch_id: int, attempt: int, job: Job) -> tuple:
        """Wrap one job for the task queue, arming any injected fault."""
        index = job[0]
        fault = None
        if self._faults is not None:
            fault = self._faults.for_task(index, attempt)
            if fault is not None and fault.kind == "overload":
                fault = None  # server-loop directive, not a worker one
        return (dispatch_id, index, attempt, fault, *job[1:])

    def _replace_worker(self) -> None:
        """Spawn a supervision replacement or trip the circuit breaker.

        The respawn budget is a pool-lifetime total: an environment
        where workers keep dying (OOM churn, broken libc, a fault plan
        with ``attempts`` past the retry budget) eventually stops
        burning processes and falls back to the session's local run.
        """
        self.respawns += 1
        if self.respawns > self.resilience.max_worker_respawns:
            self._abort()
            raise BrokenProcessPool(
                f"circuit breaker open: {self.respawns - 1} worker "
                "respawn(s) already spent "
                f"(max_worker_respawns={self.resilience.max_worker_respawns})"
            )
        try:
            self._spawn()
        except OSError as error:
            self._abort()
            raise BrokenProcessPool(
                "cannot spawn a replacement worker"
            ) from error
        get_logger().emit(
            "worker_respawn",
            respawns=self.respawns,
            budget=self.resilience.max_worker_respawns,
            pool_size=self.size,
        )

    def _redo_or_fail(self, key: tuple[int, int], cause: str, detail: str) -> None:
        """Re-queue a crashed/timed-out task, or fail it individually.

        ``key`` is the task's ``(dispatch_id, index)``. The envelope's
        attempt counter carries how many times it already failed; past
        ``max_task_retries`` a typed :class:`TaskFailure` is routed to
        the dispatch's buffer in place of a result, so the batch still
        completes with one outcome per task.
        """
        envelope = self._inflight.get(key)
        if envelope is None:
            return  # dispatch abandoned; nothing left to redo
        dispatch_id, index, attempt = envelope[0], envelope[1], envelope[2]
        if attempt < self.resilience.max_task_retries:
            self.task_retries += 1
            requeued = self._envelope(
                dispatch_id, attempt + 1, (index, *envelope[4:])
            )
            self._inflight[key] = requeued
            if self._traces and key in self._submit_ts:
                self._submit_ts[key] = time.monotonic()
            self._task_queue.put(requeued)
        else:
            self._inflight.pop(key, None)
            self._route(
                (
                    "failure",
                    None,
                    dispatch_id,
                    index,
                    TaskFailure(
                        cause=cause, message=detail, retries=attempt
                    ),
                )
            )

    def _check_deadlines(self) -> None:
        """Terminate and replace workers stuck past the task deadline.

        Armed by ``ResilienceConfig.task_timeout_seconds``; checked on
        the drain's empty-queue polls (a hung worker means the queue
        eventually looks idle, so the monitor always gets its turn).
        """
        timeout = self.resilience.task_timeout_seconds
        if not timeout or not self._leases:
            return
        now = time.monotonic()
        for worker_id, (key, since) in list(self._leases.items()):
            if now - since < timeout:
                continue
            self._leases.pop(worker_id, None)
            self.task_timeouts += 1
            process = self._workers.pop(worker_id, None)
            if process is not None:
                process.terminate()
                process.join(timeout=self.JOIN_SECONDS)
            self._record_attempt_failure(key, "timeout", since, worker_id)
            get_logger().emit(
                "task_timeout",
                task=key[1],
                worker=worker_id,
                timeout_seconds=timeout,
            )
            self._replace_worker()
            self._redo_or_fail(
                key,
                "timeout",
                f"task {key[1]} exceeded its {timeout:.3g}s deadline "
                f"on worker {worker_id}",
            )

    def _record_attempt_failure(
        self, key: tuple[int, int], outcome: str, since: float, worker_id: int
    ) -> None:
        """Trace the failed attempt (and the respawn that follows it).

        ``since`` is the failed attempt's lease time, so the span's
        duration is how long the worker held the task before the crash
        was detected / the deadline fired. No-op unless this dispatch
        traces.
        """
        if not self._traces:
            return
        trace = self._traces.get(key[0])
        if trace is None:
            return
        envelope = self._inflight.get(key)
        parent = trace.task_span(key[1])
        trace.event(
            "task.attempt",
            time.monotonic() - since,
            parent=parent,
            outcome=outcome,
            worker=worker_id,
            attempt=envelope[2] if envelope else 0,
        )
        trace.event("worker.respawn", 0.0, parent=parent, worker=worker_id)

    def maybe_shrink(self, incoming: int = 0) -> int:
        """Retire idle workers the next batch will not need.

        The floor is the larger of ``min_workers`` and the incoming
        batch size (capped at ``max_workers``) — a warm worker is never
        retired just to be regrown for the jobs arriving in the same
        call. Returns how many workers were retired. Called at dispatch
        start (with the batch size) — the pool deliberately has no
        timer thread, so shrinking is observable (and testable) at
        well-defined points.
        """
        floor = max(self.min_workers, min(incoming, self.max_workers))
        extra = self.size - floor
        if self.broken or extra <= 0:
            return 0
        idle = time.monotonic() - self._idle_since
        if idle < self.config.shrink_idle_seconds:
            return 0
        for _ in range(extra):
            self._task_queue.put(None)
        retired = 0
        deadline = time.monotonic() + self.JOIN_SECONDS + extra
        while retired < extra and time.monotonic() < deadline:
            try:
                raw = self._result_queue.get(timeout=self.POLL_SECONDS)
            except queue.Empty:
                continue
            message = self._absorb(raw)
            if message is None:
                continue
            if message[0] == "exit":
                self._retire(message[1])
                retired += 1
                self.shrinks += 1
            else:
                # A straggler from a still-open dispatch: buffer it for
                # that dispatch's drain, never drop it.
                self._route(message)
        return retired

    def _maybe_grow(self, outstanding: int) -> None:
        backlog = max(0, outstanding - self.size)
        if backlog > self.peak_queue_depth:
            self.peak_queue_depth = backlog
        if (
            self.size < self.max_workers
            and backlog > self.config.grow_pressure * self.size
        ):
            self._spawn()
            self.grows += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, jobs: list[Job], trace=None) -> Iterator[TaskResult]:
        """Submit every job now; return the completion-order drain.

        Submission is eager (workers start computing immediately); the
        returned iterator yields ``(index, payload, latency, counters,
        failure)`` per task as results land — ``failure`` is a typed
        :class:`TaskFailure` (and ``payload`` None) for tasks the
        resilience layer gave up on. Dispatches multiplex: a later
        dispatch may start (and fully drain) while an earlier one is
        only partially consumed — each drain routes messages that
        belong to other open dispatches into their buffers. Abandoning
        an iterator — including via a task error propagating out —
        forfeits only that batch's remaining results (its in-flight
        jobs finish and are dropped); the pool stays warm.

        ``trace`` is an optional :class:`repro.obs.trace.TraceBuilder`;
        when given, the pool records per-task queue-wait spans (lease
        time minus submission time), failed-attempt spans, and
        worker-respawn events into it for this dispatch's lifetime.
        """
        if self.broken:
            raise BrokenProcessPool("work-stealing pool is broken")
        self.maybe_shrink(incoming=len(jobs))
        if not self._workers:  # floor after pathological retirements
            self._spawn()
        dispatch_id = self._next_dispatch_id
        self._next_dispatch_id += 1
        slots = sorted(self._workers)
        nominal = {
            job[0]: slots[position % len(slots)]
            for position, job in enumerate(jobs)
        }
        self._buffers[dispatch_id] = deque()
        if trace is not None:
            self._traces[dispatch_id] = trace
        for job in jobs:
            envelope = self._envelope(dispatch_id, 0, job)
            self._inflight[(dispatch_id, job[0])] = envelope
            if trace is not None:
                self._submit_ts[(dispatch_id, job[0])] = time.monotonic()
            self._task_queue.put(envelope)
        return self._drain(dispatch_id, len(jobs), nominal)

    def _drain(
        self, dispatch_id: int, total: int, nominal: dict
    ) -> Iterator[TaskResult]:
        outstanding = total
        buffer = self._buffers[dispatch_id]
        #: Indices already concluded for this dispatch. A deadline-kill
        #: can race the victim's final result onto the queue after its
        #: task was re-queued; whichever outcome lands second is a
        #: stale duplicate and must not double-decrement outstanding.
        done: set[int] = set()
        try:
            while outstanding:
                if buffer:
                    message = buffer.popleft()
                else:
                    self._maybe_grow(outstanding)
                    try:
                        raw = self._result_queue.get(
                            timeout=self.POLL_SECONDS
                        )
                    except queue.Empty:
                        self._check_deadlines()
                        self._ensure_alive()
                        continue
                    except (OSError, ValueError) as error:
                        # Queues closed under us: the pool was aborted
                        # (worker death seen by a sibling drain) or
                        # shut down while this iterator was alive.
                        raise BrokenProcessPool(
                            "work-stealing pool torn down mid-drain"
                        ) from error
                    message = self._absorb(raw)
                    if message is None:  # lease breadcrumb, consumed
                        continue
                    if message[0] == "exit":  # stray timed-out pill
                        self._handle_exit(message[1])
                        continue
                    if message[2] != dispatch_id:
                        self._route(message)
                        continue
                kind = message[0]
                index = message[3]
                if index in done:  # stale duplicate (deadline race)
                    continue
                if kind == "result":
                    (
                        _kind,
                        worker_id,
                        _dispatch,
                        index,
                        payload,
                        latency,
                        delta,
                    ) = message
                    done.add(index)
                    outstanding -= 1
                    if nominal.get(index, worker_id) != worker_id:
                        self.steals += 1
                    self._idle_since = time.monotonic()
                    yield index, payload, latency, delta, None
                elif kind == "failure":
                    done.add(index)
                    outstanding -= 1
                    self._idle_since = time.monotonic()
                    yield (
                        index,
                        None,
                        0.0,
                        dict.fromkeys(_STAT_KEYS, 0),
                        message[4],
                    )
                elif self.resilience.isolate_errors:
                    error = message[4]
                    done.add(index)
                    outstanding -= 1
                    self._idle_since = time.monotonic()
                    yield (
                        index,
                        None,
                        0.0,
                        dict.fromkeys(_STAT_KEYS, 0),
                        TaskFailure(
                            cause="error",
                            message=f"{type(error).__name__}: {error}",
                        ),
                    )
                else:  # "error": fail this batch; the pool keeps serving
                    raise message[4]
        finally:
            self._idle_since = time.monotonic()
            self._buffers.pop(dispatch_id, None)
            self._traces.pop(dispatch_id, None)
            for key in [k for k in self._submit_ts if k[0] == dispatch_id]:
                del self._submit_ts[key]
            for key in [k for k in self._inflight if k[0] == dispatch_id]:
                del self._inflight[key]

    def _ensure_alive(self) -> None:
        """Supervise the fleet: replace dead workers, redo their tasks.

        Called only when the result queue looks idle. Pending messages
        are consumed first — a gracefully-poisoned worker's "exit" ack
        is never mistaken for a crash, and leases/results that raced in
        update the supervision state before liveness is judged. Every
        dead worker is then replaced in place and its leased task
        re-queued (or failed individually past the retry budget); only
        the circuit breaker aborts the pool with ``BrokenProcessPool``.
        """
        while True:
            try:
                raw = self._result_queue.get_nowait()
            except queue.Empty:
                break
            message = self._absorb(raw)
            if message is None:
                continue
            if message[0] == "exit":
                self._handle_exit(message[1])
            else:
                self._route(message)
        for worker_id, process in list(self._workers.items()):
            if process.is_alive():
                continue
            self._workers.pop(worker_id)
            process.join(timeout=self.JOIN_SECONDS)
            self.worker_deaths += 1
            lease = self._leases.pop(worker_id, None)
            get_logger().emit(
                "worker_death",
                worker=worker_id,
                exitcode=process.exitcode,
                leased_task=lease[0][1] if lease else None,
            )
            self._replace_worker()
            if lease is not None:
                key, since = lease
                self._record_attempt_failure(key, "crash", since, worker_id)
                self._redo_or_fail(
                    key,
                    "crash",
                    f"worker {worker_id} died holding task {key[1]} "
                    f"(exit code {process.exitcode})",
                )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _close_queues(self) -> None:
        for q in (self._task_queue, self._result_queue):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass

    def _abort(self) -> None:
        """Terminate everything now; the pool is unusable afterwards."""
        self.broken = True
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._workers.values():
            process.join(timeout=self.JOIN_SECONDS)
        self._workers.clear()
        self._close_queues()

    def shutdown(self) -> None:
        """Graceful teardown: poison every worker, join, close queues."""
        if self.broken:
            self._close_queues()
            return
        self.broken = True
        for _ in range(len(self._workers)):
            self._task_queue.put(None)
        deadline = time.monotonic() + self.JOIN_SECONDS
        remaining = dict(self._workers)
        while remaining and time.monotonic() < deadline:
            try:
                message = self._result_queue.get(timeout=self.POLL_SECONDS)
            except queue.Empty:
                for worker_id, process in list(remaining.items()):
                    if not process.is_alive():
                        remaining.pop(worker_id)
                continue
            if message[0] == "exit":
                remaining.pop(message[1], None)
        for process in self._workers.values():
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.JOIN_SECONDS)
        self._workers.clear()
        self._close_queues()
