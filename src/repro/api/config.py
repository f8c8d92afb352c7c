"""Typed configuration objects for the service API.

The session facade groups its knobs into three small frozen
dataclasses, by what they govern:

- :class:`EngineConfig` — *how one task is summarized*: traversal
  engine, canonical-SPT tie-breaking, and the Eq. (1) weighting and
  PCST knobs. Any field can be overridden per request through
  :class:`repro.api.requests.SummaryRequest`.
- :class:`CacheConfig` — *what the session memoizes across tasks*: the
  terminal-closure LRU capacity.
- :class:`ParallelConfig` — *which backend runs a batch*: serial or
  processes, worker count, and the multiprocessing start method.

The elastic worker pool's bounds are the scheduler's business — see
:class:`repro.serving.SchedulerConfig`, passed to the session as its
fourth config.

All of these validate eagerly in ``__post_init__`` so a typo fails at
session construction, not mid-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.pcst_summary import PrizePolicy
from repro.core.summarizer import ENGINES

#: Dispatch backends; ``None``/"auto" picks per run (see ParallelConfig).
PARALLEL_BACKENDS = ("serial", "processes")


@dataclass(frozen=True)
class EngineConfig:
    """Per-task summarization defaults: engine, determinism, weighting.

    Parameters
    ----------
    engine:
        Traversal backend for the graph-algorithm methods: "frozen"
        (CSR fast path, default) or "dict" (the original adjacency
        walk, the parity oracle).
    canonical:
        Canonical-SPT tie-breaking for ST closure paths (default on:
        paths then follow from final distances alone, not from heap
        tie-breaking or adjacency insertion order).
    lam, weight_influence:
        Eq. (1) λ and the cost-transform ρ for the ST methods.
    prize_policy, use_edge_weights, strong_pruning:
        PCST knobs (ignored by the other methods).
    """

    engine: str = "frozen"
    canonical: bool = True
    lam: float = 1.0
    weight_influence: float = 0.7
    prize_policy: PrizePolicy = PrizePolicy.BINARY
    use_edge_weights: bool = False
    strong_pruning: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected {ENGINES}"
            )

    def merged(self, overrides) -> "EngineConfig":
        """This config with per-request overrides applied.

        Unknown keys raise ``ValueError`` naming the valid fields, so a
        misspelled override fails loudly instead of being ignored.
        """
        if not overrides:
            return self
        mapping = dict(overrides)
        valid = {f.name for f in fields(self)}
        unknown = set(mapping) - valid
        if unknown:
            raise ValueError(
                f"unknown engine override(s) {sorted(unknown)}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **mapping)


@dataclass(frozen=True)
class CacheConfig:
    """Cross-task memoization owned by the session.

    Parameters
    ----------
    closure_size:
        LRU capacity of the shared terminal-closure cache (and of each
        worker's own cache under the process backend).
    """

    closure_size: int = 4096

    def __post_init__(self) -> None:
        if self.closure_size < 1:
            raise ValueError("closure_size must be positive")


@dataclass(frozen=True)
class ParallelConfig:
    """Batch dispatch: backend and pool size.

    Parameters
    ----------
    backend:
        "serial", "processes", or None/"auto" (default). "processes"
        runs over the session's shared-memory export with a warm
        spawn-safe work-stealing pool. Auto picks processes on
        multi-core machines once the graph and batch are big enough to
        amortize worker startup, and serial otherwise.
    workers:
        Initial pool size for the processes backend; 0 means
        ``os.cpu_count()``.
    mp_start_method:
        Process start method ("fork", "spawn", "forkserver"); default
        the ``REPRO_MP_START_METHOD`` env var, else the platform
        default. Workers are spawn-safe regardless.
    plugin_modules:
        Importable module paths each pool worker imports at init — the
        plugin handshake for runtime-registered methods. A module that
        calls :func:`repro.api.registry.register_method` at import time
        and declares ``MethodSpec(plugin_module=...)`` naming itself
        becomes process-safe when listed here: spawn workers import the
        module, re-registering the method inside the fresh interpreter,
        so the session no longer demotes batches containing it to the
        serial backend.
    """

    backend: str | None = None
    workers: int = 0
    mp_start_method: str | None = None
    plugin_modules: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.backend not in (None, "auto", *PARALLEL_BACKENDS):
            raise ValueError(
                f"unknown parallel backend {self.backend!r}; expected "
                f"one of {('auto', *PARALLEL_BACKENDS)}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        # Accept any iterable of module paths; store a hashable tuple
        # (EngineConfig-keyed memos hash their configs).
        object.__setattr__(
            self, "plugin_modules", tuple(self.plugin_modules)
        )
        for module in self.plugin_modules:
            if not isinstance(module, str) or not module:
                raise ValueError(
                    "plugin_modules must be non-empty module-path "
                    f"strings, got {module!r}"
                )
