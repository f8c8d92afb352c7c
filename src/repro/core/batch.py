"""Batch summarization engine: freeze once, memoize closures, time everything.

Serving summary explanations to many users means answering many
:class:`SummaryTask`s over the *same* knowledge graph. Running the
facade :class:`~repro.core.summarizer.Summarizer` in a loop repeats work
that is identical across tasks:

- the CSR compilation of the graph (``graph.freeze()`` — shared here,
  computed once up front and version-checked);
- the terminal-to-terminal Dijkstra runs of the ST metric closure —
  popular items appear as terminals in many users' tasks, and every
  λ=0 task shares one uniform cost surface, so
  :class:`TerminalClosureCache` memoizes ``(source, cost-signature) ->
  (dist, prev)`` in an LRU and reuses a run whenever its settled set
  covers the targets a new task needs.

Cache reuse is exact, not approximate: a Dijkstra's settle sequence does
not depend on its early-exit target set (targets only decide when the
loop *stops*), so a longer run's ``(dist, prev)`` agrees with a fresh
shorter run on every entry the Steiner construction reads. Predecessor
chains are safe because Eq. (1) costs are bounded below by ``1 - ρ > 0``
— every node on a shortest path settles strictly before its target.

Batch *execution* moved to the service layer: a long-lived
:class:`repro.api.ExplanationSession` owns the frozen view, the
shared-memory export, the warm process pool and this module's
:class:`TerminalClosureCache`, and dispatches serial / thread-pool /
process-pool runs. :class:`BatchSummarizer` remains as a thin deprecated
shim over a private session so existing call sites keep working
(bit-identical results, same report format) while emitting a
``DeprecationWarning``.

JSONL (de)serialization for task files lives here too — the CLI
``batch`` subcommand reads one task per line.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import warnings
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path as FilePath

from repro.core.explanation import SubgraphExplanation
from repro.core.scenarios import SummaryTask
from repro.core.summarizer import METHODS
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.shortest_paths import dijkstra_frozen


class TerminalClosureCache:
    """LRU memo of single-source Dijkstra runs over a frozen view.

    Keyed by ``(source id, cost signature)``. An entry is reusable for a
    request whenever every requested target is in its settled set; on a
    miss the fresh run replaces the entry if it settled more nodes.
    Thread-safe (the batch engine shares one cache across workers); the
    Dijkstra itself runs outside the lock, so concurrent misses on the
    same key merely duplicate work, never corrupt results.
    """

    # Always 0; kept because perfbench's traced closure counters read them.
    patched = 0
    base_hits = 0
    base_misses = 0

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        # Second-tier (shared store) lookups; stay 0 on this class —
        # :class:`repro.cache.StoreBackedClosureCache` counts into them.
        self.store_hits = 0
        self.store_misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._frozen = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters kept)."""
        with self._lock:
            self._entries.clear()
            self._frozen = None

    def pair_fn(self, frozen, costs):
        """``(source, rest) -> (dist, prev)`` hook bound to one frozen view.

        Entries from an older frozen view (a re-freeze after graph
        mutation) are discarded wholesale — version-keyed staleness is
        handled here so callers never see distances from a dead graph.
        """
        with self._lock:
            if frozen is not self._frozen:
                self._entries.clear()
                self._frozen = frozen
        signature = costs.signature

        def pairs(source: str, rest: set[str]):
            key = (source, signature)
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and rest <= entry[0].keys():
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
            # Local miss: consult the shared tier (a no-op here; the
            # store-backed subclass fetches a sibling worker's run),
            # then compute fresh and publish the run back to the tier.
            result = self._tier_fetch(frozen, source, signature, rest)
            if result is not None:
                with self._lock:
                    self.hits += 1
            else:
                result = dijkstra_frozen(
                    frozen, source, costs=costs, targets=rest
                )
                with self._lock:
                    self.misses += 1
                self._tier_publish(
                    frozen, source, signature, result[0], result[1]
                )
            dist, prev = result
            with self._lock:
                # The cache may have been rebound to a newer frozen view
                # while this Dijkstra ran; our result is still valid for
                # our caller, but must not repopulate the new view's
                # cache with pre-mutation distances.
                if frozen is self._frozen:
                    current = self._entries.get(key)
                    if current is None or len(current[0]) < len(dist):
                        self._entries[key] = (dist, prev)
                        self._entries.move_to_end(key)
                        while len(self._entries) > self.maxsize:
                            self._entries.popitem(last=False)
            return dist, prev

        return pairs

    # ------------------------------------------------------------------
    # Shared-tier hooks (no-ops here; see repro.cache.readthrough)
    # ------------------------------------------------------------------
    def _tier_fetch(self, frozen, source, signature, rest):
        """Second-tier closure lookup: ``(dist, prev)`` or None."""
        return None

    def _tier_publish(self, frozen, source, signature, dist, prev) -> None:
        """Offer one fresh closure run to the second tier."""


#: Valid ``TaskFailure.cause`` values: the worker process died while
#: holding the task ("crash"), the task blew its per-task deadline and
#: its worker was terminated ("timeout"), or the task itself raised /
#: produced an undecodable result ("error").
FAILURE_CAUSES = ("crash", "timeout", "error")


@dataclass(frozen=True)
class TaskFailure:
    """Why one task inside a batch did not produce an explanation.

    Carried on :attr:`BatchResult.failure` when the resilience layer
    (see :class:`repro.serving.config.ResilienceConfig`) exhausts a
    task's retry budget — the batch's other tasks complete normally.
    ``retries`` is how many times this task was re-queued before the
    pool gave up on it.
    """

    cause: str
    message: str = ""
    retries: int = 0

    def __post_init__(self) -> None:
        if self.cause not in FAILURE_CAUSES:
            raise ValueError(
                f"unknown failure cause {self.cause!r}; expected one of "
                f"{FAILURE_CAUSES}"
            )
        if self.retries < 0:
            raise ValueError("failure retries must be >= 0")

    def __str__(self) -> str:
        note = f" after {self.retries} retry(ies)" if self.retries else ""
        return f"[{self.cause}]{note} {self.message}".rstrip()


@dataclass(frozen=True)
class BatchResult:
    """One task's outcome inside a batch.

    ``seconds`` is worker-measured compute time — the clock starts when
    a worker picks the task up and stops when its summary is done, so
    queue wait and result-pipe transit are excluded on every backend.

    Exactly one of ``explanation`` / ``failure`` is set: a task the
    resilience layer gave up on (crash/timeout past the retry budget,
    undecodable result) carries a typed :class:`TaskFailure` instead
    of an explanation, so streamed batches still yield one result per
    task and end-count verification holds over the wire.

    ``trace`` is only populated when the session runs with
    ``ObservabilityConfig(trace=True)``: a plain-JSON dict holding the
    request's ``trace_id`` and this task's span list (queue wait,
    worker compute/encode, store fetches — see :mod:`repro.obs.trace`).
    It travels as an optional protocol field, still
    ``protocol_version: 1``.
    """

    index: int
    task: SummaryTask
    explanation: SubgraphExplanation | None
    seconds: float
    failure: TaskFailure | None = None
    trace: dict | None = None

    def __post_init__(self) -> None:
        if (self.explanation is None) == (self.failure is None):
            raise ValueError(
                "exactly one of explanation/failure must be set"
            )

    @property
    def ok(self) -> bool:
        """True when the task produced an explanation."""
        return self.failure is None

    @property
    def latency_ms(self) -> float:
        """Worker-measured per-task latency in milliseconds."""
        return self.seconds * 1000.0


@dataclass(frozen=True)
class BatchReport:
    """Everything a batch run measured."""

    method: str
    results: tuple[BatchResult, ...]
    freeze_seconds: float
    total_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    # Always 0; kept because v1 report decoders and perfbench read them.
    cache_patched: int = 0
    cache_base_hits: int = 0
    cache_base_misses: int = 0
    #: Shared closure-store lookups this batch made (0 with the store
    #: off — see :class:`repro.cache.ClosureStoreConfig`). A store hit
    #: also counts as a ``cache_hits`` closure hit: the request was
    #: served without a fresh Dijkstra, just from the cross-worker tier.
    store_hits: int = 0
    store_misses: int = 0
    workers: int = 0
    parallel: str = "serial"
    #: Dispatch discipline that produced this report: "work-stealing"
    #: or "chunked" for pooled backends, "" for serial runs.
    scheduler: str = ""
    #: How many task re-queues (after worker crashes / deadline kills)
    #: this batch absorbed; 0 on an incident-free run. The companion
    #: ``failed`` count is derived from the results.
    retried: int = 0

    def to_dict(self) -> dict:
        """Lossless plain-JSON form of the whole report.

        Delegates to :func:`repro.api.protocol.report_to_json` so server
        responses, bench artifacts and :meth:`from_dict` all share one
        versioned schema. Includes every constructor field (scheduler,
        all five cache counters) plus the derived ``latency_p50_ms`` /
        ``latency_p95_ms`` / ``throughput`` for artifact consumers.
        """
        from repro.api import protocol

        return protocol.report_to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        """Rebuild a report from :meth:`to_dict` output (lossless)."""
        from repro.api import protocol

        return protocol.report_from_json(data)

    @property
    def explanations(self) -> list[SubgraphExplanation]:
        """Per-task explanations, in input order (None for failures)."""
        return [r.explanation for r in self.results]

    @property
    def failed(self) -> int:
        """Tasks that ended as typed :class:`TaskFailure` results."""
        return sum(1 for r in self.results if r.failure is not None)

    @property
    def task_seconds(self) -> list[float]:
        """Per-task wall-clock seconds, in input order."""
        return [r.seconds for r in self.results]

    @property
    def latency_p50_ms(self) -> float:
        """Median worker-measured task latency (ms); 0.0 when empty."""
        return self._latency_percentile(0.50)

    @property
    def latency_p95_ms(self) -> float:
        """95th-percentile worker-measured task latency (ms)."""
        return self._latency_percentile(0.95)

    def _latency_percentile(self, q: float) -> float:
        if not self.results:
            return 0.0
        ordered = sorted(r.latency_ms for r in self.results)
        return ordered[min(len(ordered) - 1, int(len(ordered) * q))]

    @property
    def throughput(self) -> float:
        """Tasks per second over the whole run (freeze included).

        A trivially small batch can finish inside one timer tick, so a
        zero or near-zero elapsed denominator reports 0.0 instead of
        dividing through to ``inf``/absurdly large rates.
        """
        if not self.results or self.total_seconds < 1e-9:
            return 0.0
        return len(self.results) / self.total_seconds

    def summary(self) -> str:
        """Human-readable one-screen report."""
        seconds = self.task_seconds
        headline = (
            f"batch method={self.method} tasks={len(self.results)} "
            f"parallel={self.parallel} workers={self.workers}"
        )
        if self.scheduler:
            headline += f" scheduler={self.scheduler}"
        lines = [
            headline,
            f"  total      {self.total_seconds * 1000.0:10.1f} ms",
            f"  freeze     {self.freeze_seconds * 1000.0:10.1f} ms",
            f"  throughput {self.throughput:10.1f} tasks/s",
        ]
        if seconds:
            lines.append(
                f"  per-task   mean {sum(seconds) / len(seconds) * 1000.0:.2f} ms"
                f" | p50 {self.latency_p50_ms:.2f} ms"
                f" | p95 {self.latency_p95_ms:.2f} ms"
                f" | max {max(seconds) * 1000.0:.2f} ms"
            )
        if self.cache_hits or self.cache_misses:
            total = self.cache_hits + self.cache_misses
            lines.append(
                f"  closures   {self.cache_hits}/{total} cache hits "
                f"({self.cache_hits / total:.0%})"
            )
        if self.store_hits or self.store_misses:
            store_total = self.store_hits + self.store_misses
            lines.append(
                f"  store      {self.store_hits}/{store_total} "
                f"shared-store hits "
                f"({self.store_hits / store_total:.0%})"
            )
        if self.failed or self.retried:
            lines.append(
                f"  resilience {self.failed} task(s) failed, "
                f"{self.retried} retry(ies) absorbed"
            )
        return "\n".join(lines)


#: Backend choices for :class:`BatchSummarizer`; None means "auto".
PARALLEL_BACKENDS = ("serial", "threads", "processes")

#: Counter attributes mirrored between caches and reports.
_STAT_KEYS = ("hits", "misses", "store_hits", "store_misses")

#: Infrastructure failures that demote the process backend to a local
#: run instead of failing the batch: shared-memory/pool setup errors,
#: a broken pool (worker died in init), unpicklable inputs. Task-level
#: exceptions (e.g. disconnected terminals) are *not* in this set — they
#: propagate exactly like a serial run's.
_PROCESS_FALLBACK_ERRORS = (
    OSError,
    BrokenProcessPool,
    pickle.PicklingError,
    ImportError,
)


def _cache_counters(cache) -> dict[str, int]:
    """Snapshot a closure cache's counters (zeros for no cache)."""
    if cache is None:
        return dict.fromkeys(_STAT_KEYS, 0)
    return {key: getattr(cache, key) for key in _STAT_KEYS}


class BatchSummarizer:
    """Deprecated batch facade: many-task summarization over one graph.

    .. deprecated::
        Construct a :class:`repro.api.ExplanationSession` instead — it
        replaces this class's kwarg sprawl with typed configs
        (:class:`~repro.api.EngineConfig` /
        :class:`~repro.api.CacheConfig` /
        :class:`~repro.api.ParallelConfig`), keeps the frozen view,
        shared-memory export and process pool warm *across* batches,
        and adds per-request method routing plus a streaming iterator.

    The shim delegates to a private session configured identically, so
    results, the report format, backend auto-selection and the
    local-fallback ``RuntimeWarning`` are unchanged. To preserve the
    legacy resource contract, the pool and shared-memory export are
    released after every :meth:`run` (nothing persists between calls
    except the closure cache, exactly as before).

    Parameters match the historical constructor: ``method`` ("ST",
    "ST-fast", "PCST", "Union"), ``workers``, ``closure_cache_size``,
    ``parallel`` ("serial" / "threads" /
    "processes" / None for auto), ``chunk_size``, ``mp_start_method``,
    and ``**params`` forwarded to the summarizer (lam,
    weight_influence, prize_policy, use_edge_weights, strong_pruning,
    engine, canonical). The shim rides the session's scheduler: batch
    dispatch defaults to work-stealing (bit-identical results), with
    ``scheduler="chunked"`` restoring static chunk dispatch.
    """

    #: Auto-backend thresholds (mirrors ExplanationSession, which owns
    #: the resolution logic now): below either, worker startup + IPC
    #: dominates and the local backends win.
    AUTO_PROCESS_MIN_NODES = 4096
    AUTO_PROCESS_MIN_TASKS = 8

    #: Keyword params that map onto EngineConfig fields; anything else
    #: is a typo and fails construction like the legacy facade did.
    _ENGINE_PARAMS = frozenset(
        (
            "engine",
            "canonical",
            "lam",
            "weight_influence",
            "prize_policy",
            "use_edge_weights",
            "strong_pruning",
        )
    )

    def __init__(
        self,
        graph: KnowledgeGraph,
        method: str = "ST",
        workers: int = 0,
        closure_cache_size: int = 4096,
        parallel: str | None = None,
        chunk_size: int | None = None,
        mp_start_method: str | None = None,
        scheduler: str | None = None,
        **params,
    ) -> None:
        warnings.warn(
            "BatchSummarizer is deprecated; use repro.api."
            "ExplanationSession (typed configs, warm pooled execution, "
            "streaming results) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        unknown = set(params) - self._ENGINE_PARAMS
        if unknown:
            raise TypeError(
                f"unexpected summarizer parameter(s) {sorted(unknown)}"
            )
        from repro.api import (
            CacheConfig,
            EngineConfig,
            ExplanationSession,
            ParallelConfig,
            SchedulerConfig,
        )

        self.graph = graph
        self.method = method
        self.workers = workers
        self.parallel = parallel
        self.chunk_size = chunk_size
        self.mp_start_method = mp_start_method or os.environ.get(
            "REPRO_MP_START_METHOD"
        ) or None
        self.closure_cache_size = closure_cache_size
        self.scheduler = scheduler
        self._params = dict(params)
        self._session = ExplanationSession(
            graph,
            engine=EngineConfig(**params),
            cache=CacheConfig(closure_size=closure_cache_size),
            parallel=ParallelConfig(
                backend=parallel,
                workers=workers,
                chunk_size=chunk_size,
                mp_start_method=self.mp_start_method,
            ),
            scheduler=(
                SchedulerConfig(mode=scheduler)
                if scheduler is not None
                else None
            ),
            default_method=method,
        )

    @property
    def closure_cache(self):
        """The session-owned closure cache (ST only; None otherwise).

        The legacy class built this eagerly in ``__init__``; the shim
        materializes the session's cache on access so counter reads
        (``cache.hits`` etc.) keep working without an AttributeError.
        """
        if self.method != "ST":
            return None
        return self._session._ensure_closure_cache()

    def run(self, tasks: Iterable[SummaryTask]) -> BatchReport:
        """Summarize every task; per-task timings in the report."""
        try:
            return self._session.run(list(tasks))
        finally:
            # Legacy runs never kept worker processes or shared-memory
            # blocks alive between calls; the shim keeps that contract
            # (warm reuse is the session's feature, not this facade's).
            self._session.release_pool()


# ----------------------------------------------------------------------
# JSONL task files (one task per line) for the CLI `batch` subcommand.
# The task codec itself moved to repro.api.protocol (the versioned
# over-the-wire schema shared with the network tier); the old names
# remain as thin deprecated wrappers, and the JSONL helpers route
# through the protocol module without warning — file I/O stays a
# batch-layer concern, only the schema ownership moved.
# ----------------------------------------------------------------------
def task_to_json(task: SummaryTask) -> dict:
    """Plain-JSON form of a task (inverse of :func:`task_from_json`).

    .. deprecated::
        Moved to :func:`repro.api.protocol.task_to_json`.
    """
    from repro.api import protocol

    protocol._warn_legacy("task_to_json")
    return protocol.task_to_json(task)


def task_from_json(data: dict) -> SummaryTask:
    """Build a task from its JSON form; raises on malformed input.

    .. deprecated::
        Moved to :func:`repro.api.protocol.task_from_json`.
    """
    from repro.api import protocol

    protocol._warn_legacy("task_from_json")
    return protocol.task_from_json(data)


def load_tasks_jsonl(path: str | FilePath) -> list[SummaryTask]:
    """Read tasks from a JSONL file, skipping blank lines."""
    from repro.api import protocol

    tasks = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                tasks.append(protocol.task_from_json(json.loads(line)))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: bad task line ({error})"
                ) from error
    return tasks


def dump_tasks_jsonl(
    tasks: Sequence[SummaryTask], path: str | FilePath
) -> None:
    """Write tasks to a JSONL file (one task per line)."""
    from repro.api import protocol

    with open(path, "w", encoding="utf-8") as handle:
        for task in tasks:
            handle.write(json.dumps(protocol.task_to_json(task)) + "\n")
