"""Serving layer: scheduler, wire formats, and the network front door.

The in-process pieces, consumed by
:class:`repro.api.ExplanationSession`:

- :class:`SchedulerConfig` (:mod:`repro.serving.config`) — the
  elastic-pool bounds (``min_workers`` / ``max_workers``, grow
  pressure, idle shrink).
- :class:`ResilienceConfig` (:mod:`repro.serving.config`) — per-task
  retry budget, per-task deadline, and the worker-respawn circuit
  breaker governing supervised recovery.
- :class:`ElasticWorkerPool` (:mod:`repro.serving.pool`) — the shared
  task queue, per-task result pipe, steal accounting, grow/shrink
  machinery, and worker supervision (lease tracking, in-place
  respawn, per-task retry) over the shared-memory graph plane.
- :class:`Fault` / :class:`FaultPlan` (:mod:`repro.serving.faults`) —
  seeded, picklable fault directives (crash / hang / delay /
  malformed / overload) for deterministic chaos testing.
- :mod:`repro.serving.wire` — the compact edge-list result format
  (parent-CSR int arrays + weights) workers ship back instead of
  pickled subgraph objects.

The network tier, layered on top of the session:

- :mod:`repro.serving.frames` — length-prefixed frame transport with
  bounds checking (json default, msgpack optional).
- :class:`ExplanationServer` / :class:`ServerConfig` / helper
  :class:`ServerThread` (:mod:`repro.serving.server`) — the asyncio
  TCP front door: multi-tenant named sessions, admission control,
  per-task result streaming, mutation RPCs and an idle-pool reaper.
- :class:`ExplanationClient` (:mod:`repro.serving.client`) — the
  blocking client mirroring the session surface, with reconnect and
  typed :class:`ServerError` / :class:`OverloadedError` /
  :class:`ShuttingDownError` failures.
- :class:`GraphJournal` / :class:`MutationJournal`
  (:mod:`repro.serving.journal`) — the durability layer under
  ``ExplanationServer(state_dir=...)``: CRC-checksummed write-ahead
  log of mutation RPCs plus atomic snapshots, with
  :class:`JournalConfig` fsync policies, torn-tail recovery, typed
  :class:`JournalCorruption`, and journal-into-snapshot compaction.

The network-tier names are exported lazily (PEP 562): the session
imports this package's scheduler plumbing while the server imports the
session, so eager re-export would be circular.
"""

from repro.serving.config import (
    FSYNC_POLICIES,
    JournalConfig,
    ResilienceConfig,
    SchedulerConfig,
)
from repro.serving.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    SimulatedCrash,
)
from repro.serving.pool import ElasticWorkerPool
from repro.serving.wire import (
    WireExplanation,
    decode_explanation,
    encode_explanation,
)

#: Lazily exported network-tier names -> defining submodule.
_NETWORK_EXPORTS = {
    "ExplanationServer": "repro.serving.server",
    "ServerConfig": "repro.serving.server",
    "ServerThread": "repro.serving.server",
    "MUTATION_OPS": "repro.serving.server",
    "ExplanationClient": "repro.serving.client",
    "ServerError": "repro.serving.client",
    "RetryAdvisedError": "repro.serving.client",
    "OverloadedError": "repro.serving.client",
    "ShuttingDownError": "repro.serving.client",
    "GraphJournal": "repro.serving.journal",
    "MutationJournal": "repro.serving.journal",
    "JournalError": "repro.serving.journal",
    "JournalCorruption": "repro.serving.journal",
}

__all__ = [
    "FAULT_KINDS",
    "FSYNC_POLICIES",
    "JournalConfig",
    "ElasticWorkerPool",
    "Fault",
    "FaultPlan",
    "ResilienceConfig",
    "SchedulerConfig",
    "SimulatedCrash",
    "WireExplanation",
    "decode_explanation",
    "encode_explanation",
    *sorted(_NETWORK_EXPORTS),
]


def __getattr__(name: str):
    if name in _NETWORK_EXPORTS:
        import importlib

        module = importlib.import_module(_NETWORK_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__():
    return sorted(set(globals()) | set(_NETWORK_EXPORTS))
