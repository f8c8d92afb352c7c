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
  covers the targets a new task needs. A miss runs the numpy kernel
  :func:`~repro.graph.shortest_paths.closure_distances`.

Cache reuse is exact, not approximate: settled distances do not depend
on the early-exit target set (targets only decide when the search
*stops*), so a longer run agrees with a fresh shorter run on every
distance the canonical Steiner reconstruction reads. That walk needs
only final distances because Eq. (1) costs are bounded below by
``1 - ρ > 0`` — every node on a shortest path settles strictly before
its target.

Batch *execution* lives in the service layer: a long-lived
:class:`repro.api.ExplanationSession` owns the frozen view, the
shared-memory export, the warm process pool and this module's
:class:`TerminalClosureCache`, and dispatches serial or process-pool
runs that report through this module's :class:`BatchReport`.

JSONL task files live here too — the CLI ``batch`` subcommand reads
one task per line, in the :mod:`repro.api.protocol` task schema.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from repro.core.explanation import SubgraphExplanation
from repro.core.scenarios import SummaryTask
from repro.graph.shortest_paths import closure_distances


class TerminalClosureCache:
    """LRU memo of single-source closure runs over a frozen view.

    Keyed by ``(source id, cost signature)``. An entry is reusable for a
    request whenever every requested target is in its settled set; on a
    miss one :func:`~repro.graph.shortest_paths.closure_distances` run
    fills it, replacing the entry if it settled more nodes.
    Thread-safe (callers may share one cache across threads); the
    kernel itself runs outside the lock, so concurrent misses on the
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
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._frozen = None
        self._ids = None  # the bound view's ids, as an object array

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters kept)."""
        with self._lock:
            self._entries.clear()
            self._frozen = None
            self._ids = None

    def pair_fn(self, frozen, costs):
        """``(source, rest) -> (dist, prev)`` hook bound to one frozen view.

        Entries from an older frozen view (a re-freeze after graph
        mutation) are discarded wholesale — version-keyed staleness is
        handled here so callers never see distances from a dead graph.
        ``prev`` is *a* valid shortest-path tree, not the heap Dijkstra's
        tie-breaking, so only canonical reconstruction may read these
        runs.
        """
        with self._lock:
            if frozen is not self._frozen:
                self._entries.clear()
                self._frozen = frozen
                self._ids = np.array(frozen.ids, dtype=object)
            ids = self._ids
        signature = costs.signature

        def pairs(source: str, rest: set[str]):
            key = (source, signature)
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and rest <= entry[0].keys():
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
            dist, prev = _closure_maps(frozen, ids, source, costs, rest)
            with self._lock:
                self.misses += 1
                # The cache may have been rebound to a newer frozen view
                # while the kernel ran; our result is still valid for
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


def _closure_maps(frozen, ids, source: str, costs, rest: set[str]):
    """One kernel run: id-keyed settled distances and predecessors."""
    # Unknown target ids map to an unsettleable -1: exhaustive search.
    targets = [frozen.index_of(t) if t in frozen else -1 for t in rest]
    settled, dist, parent = closure_distances(
        frozen, frozen.index_of(source), costs, targets
    )
    settled_dist = dict(zip(ids[settled].tolist(), dist[settled].tolist()))
    return settled_dist, _Predecessors(frozen, ids, settled, parent)


class _Predecessors(Mapping):
    """Id-keyed predecessors of one kernel run, as two sorted arrays.

    Canonical reconstruction reads predecessors only in its ulp
    fallback, so a cached run keeps them at 16 bytes per settled node
    instead of a second id-keyed dict as large as the distances.
    """

    def __init__(self, frozen, ids, settled, parent) -> None:
        self._frozen = frozen
        self._ids = ids
        self._nodes = np.sort(settled)
        self._parents = parent[self._nodes]

    def __getitem__(self, node: str) -> str:
        if node in self._frozen:
            index = self._frozen.index_of(node)
            position = int(np.searchsorted(self._nodes, index))
            if position < self._nodes.size and self._nodes[position] == index:
                above = self._parents[position]
                if above >= 0:
                    return self._ids[above]
        raise KeyError(node)

    def __iter__(self):
        return iter(self._ids[self._nodes[self._parents >= 0]].tolist())

    def __len__(self) -> int:
        return int((self._parents >= 0).sum())


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
    worker compute/encode — see :mod:`repro.obs.trace`).
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
    # Always 0; kept because v1 report decoders and perfbench read them
    # (the retired partial-reuse tier and cross-worker closure store).
    cache_patched: int = 0
    cache_base_hits: int = 0
    cache_base_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    workers: int = 0
    #: Backend that ran the batch ("serial" or "processes") and, for the
    #: pool, its dispatch discipline ("work-stealing"; "" when serial).
    #: Both are free strings, so protocol-v1 reports naming a retired
    #: backend ("threads") or scheduler ("chunked") still decode.
    parallel: str = "serial"
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
        if self.failed or self.retried:
            lines.append(
                f"  resilience {self.failed} task(s) failed, "
                f"{self.retried} retry(ies) absorbed"
            )
        return "\n".join(lines)


#: Counter attributes mirrored between caches and reports.
_STAT_KEYS = ("hits", "misses")

#: Infrastructure failures that demote the process backend to a serial
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


# ----------------------------------------------------------------------
# JSONL task files (one task per line) for the CLI `batch` subcommand.
# The task schema is repro.api.protocol's (the versioned over-the-wire
# schema shared with the network tier); file I/O stays a batch-layer
# concern.
# ----------------------------------------------------------------------
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
