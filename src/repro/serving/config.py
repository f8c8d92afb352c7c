"""Scheduler and resilience configuration for the serving layer.

One frozen dataclass sizes the *work-stealing worker pool* behind the
process backend — orthogonal to :class:`repro.api.ParallelConfig`,
which picks the backend (serial / processes) and the nominal pool
size. Every task goes into one shared queue and each worker pulls the
next task the moment it is free, so a slow group task occupies exactly
one worker; :class:`SchedulerConfig` bounds how that pool grows under
queue pressure and shrinks back on idle.

A second frozen dataclass, :class:`ResilienceConfig`, governs *what
happens when workers misbehave* on the process backend: how many
times a crashed or timed-out task is re-queued before it fails
individually (as a typed :class:`~repro.core.batch.TaskFailure`), how
long a single task may run before its worker is terminated and
replaced, and how many worker respawns the pool tolerates before
tripping the circuit breaker back to the session's whole-batch local
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SchedulerConfig:
    """Bounds of the elastic work-stealing worker pool.

    Parameters
    ----------
    min_workers:
        Elastic-pool floor: idle shrink never retires below this many
        workers.
    max_workers:
        Elastic-pool ceiling. 0 (default) means "the larger of the
        initial pool size and the CPU count" — so a pool pinned below
        the core count may grow toward the hardware under pressure,
        while a pool already at (or above) core count never grows.
    grow_pressure:
        Grow one worker whenever the estimated queue backlog (submitted
        minus finished minus one in-flight task per worker) exceeds
        ``grow_pressure * current_workers`` and the pool is below
        ``max_workers``.
    shrink_idle_seconds:
        Idle workers are retired once the pool has been idle (no task
        finished, none outstanding) at least this long. Shrinking
        happens at the next dispatch — down to the larger of
        ``min_workers`` and that dispatch's own batch size, so a warm
        worker is never retired just to be regrown for the jobs
        arriving in the same call; the pool has no background timer
        thread.
    """

    min_workers: int = 1
    max_workers: int = 0
    grow_pressure: float = 2.0
    shrink_idle_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0 (0 = auto)")
        if self.max_workers and self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.grow_pressure <= 0:
            raise ValueError("grow_pressure must be positive")
        if self.shrink_idle_seconds < 0:
            raise ValueError("shrink_idle_seconds must be >= 0")


@dataclass(frozen=True)
class ResilienceConfig:
    """Per-task blast radius under the process backend.

    Parameters
    ----------
    max_task_retries:
        How many times a task whose worker crashed (or blew its
        deadline) is re-queued onto a replacement worker before it
        fails *individually* — surfacing as a
        :class:`~repro.core.batch.TaskFailure` on its
        :class:`~repro.core.batch.BatchResult` while every other task
        completes normally. 0 fails the task on its first crash.
    task_timeout_seconds:
        Per-task deadline: a worker holding one task's lease longer
        than this is terminated and replaced, and the task is retried
        or failed with cause ``"timeout"``. 0 (default) disables the
        deadline monitor.
    max_worker_respawns:
        Circuit breaker: total replacement workers the pool will spawn
        over its lifetime before deciding the environment itself is
        broken and raising ``BrokenProcessPool`` (which the session
        demotes to its local fallback, exactly as before supervision
        existed). 0 disables supervision entirely — the first dead
        worker breaks the pool, the legacy behavior.
    isolate_errors:
        When True, a task-level exception inside a worker becomes a
        ``TaskFailure(cause="error")`` on that task's result instead
        of raising in the parent and failing the whole batch. Default
        False preserves the historical raise-through contract.
    """

    max_task_retries: int = 2
    task_timeout_seconds: float = 0.0
    max_worker_respawns: int = 8
    isolate_errors: bool = False

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.task_timeout_seconds < 0:
            raise ValueError("task_timeout_seconds must be >= 0 (0 = off)")
        if self.max_worker_respawns < 0:
            raise ValueError("max_worker_respawns must be >= 0 (0 = off)")


#: Valid journal fsync disciplines.
FSYNC_POLICIES = ("always", "interval", "never")


@dataclass(frozen=True)
class JournalConfig:
    """Durability knobs for the server's mutation journal.

    Parameters
    ----------
    fsync:
        When appended records are forced to stable storage. ``"always"``
        (default) fsyncs before every mutation is acknowledged — the
        ack then survives ``kill -9`` and power loss, at one disk flush
        per mutation. ``"interval"`` flushes to the OS per record but
        fsyncs at most every ``fsync_interval_seconds`` (and on
        close/compaction) — bounded data loss, much cheaper under
        mutation bursts. ``"never"`` leaves syncing entirely to the OS
        page cache — survives process crashes (the write() already
        reached the kernel) but not power loss.
    fsync_interval_seconds:
        The ``"interval"`` policy's flush period.
    compact_every_records:
        Fold the journal into a fresh snapshot automatically once it
        holds this many records, bounding both replay time and file
        growth. 0 disables auto-compaction (explicit ``compact`` RPCs
        and shutdown still compact).
    """

    fsync: str = "always"
    fsync_interval_seconds: float = 1.0
    compact_every_records: int = 1024

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if self.fsync_interval_seconds <= 0:
            raise ValueError("fsync_interval_seconds must be > 0")
        if self.compact_every_records < 0:
            raise ValueError("compact_every_records must be >= 0 (0 = off)")

