"""Method registry: one routing table from request names to summarizers.

Every way of turning a :class:`~repro.core.scenarios.SummaryTask` into a
summary is a registered :class:`MethodSpec`. The session resolves a
request's method name here and asks the spec to build (or reuse) the
right summarizer; user code can extend the table with
:func:`register_method` without touching the session.

Built-in methods (service names, with the legacy facade names accepted
as aliases):

=========  ===========  ==================================================
name       legacy name  implementation
=========  ===========  ==================================================
st         ST           Algorithm 1 (KMB Steiner tree), closure-cached
st-fast    ST-fast      Mehlhorn single-sweep 2-approximation
pcst       PCST         Algorithm 2 (prize-collecting growth)
union      Union        union-of-paths baseline (no traversal)
=========  ===========  ==================================================

Spawn-safety: the built-ins register at import time, so process-pool
workers (which import this module in a fresh interpreter) see the same
table. Methods registered at runtime exist only in the registering
process — they are marked ``process_safe=False`` by default and the
session routes batches containing them to the serial backend.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.api.config import EngineConfig
from repro.core.summarizer import Summarizer


def _facade_builder(spec: "MethodSpec"):
    """Default builder: the legacy facade with the spec's method name.

    Routes through :class:`Summarizer` so session results inherit its
    behavior verbatim — including the connected-terminal narrowing
    fallback — which is what keeps the service bit-identical to the
    legacy entry points.
    """

    def build(graph, config: EngineConfig, closure_cache):
        return Summarizer(
            graph,
            method=spec.legacy_name,
            lam=config.lam,
            weight_influence=config.weight_influence,
            prize_policy=config.prize_policy,
            use_edge_weights=config.use_edge_weights,
            strong_pruning=config.strong_pruning,
            engine=config.engine,
            closure_cache=closure_cache,
            canonical=config.canonical,
        )

    return build


@dataclass(frozen=True)
class MethodSpec:
    """One routable summarization method.

    Parameters
    ----------
    name:
        Canonical service name ("st", "pcst", ...). Lookup is
        case-insensitive and also accepts ``aliases``.
    legacy_name:
        The facade-era method label ("ST", "PCST", ...); reports keep
        using it so ``BatchReport.summary()`` output is unchanged.
    builder:
        ``(graph, EngineConfig, closure_cache) -> summarizer`` where the
        result exposes ``summarize(task) -> SubgraphExplanation``. None
        uses the legacy :class:`Summarizer` facade.
    uses_traversal:
        False for methods that never walk the graph (union): the
        session skips freezing for batches made only of these.
    uses_closure_cache:
        True for methods that read the session's terminal-closure cache
        (the KMB ST path).
    process_safe:
        Whether workers can rebuild this method from the registry in a
        fresh interpreter. True only for the import-time built-ins;
        runtime registrations run on the serial backend unless they
        declare a ``plugin_module``.
    aliases:
        Extra lookup names (matched case-insensitively).
    plugin_module:
        Importable module path whose import (re-)registers this method
        — the spawn-worker plugin handshake. A session whose
        :class:`~repro.api.config.ParallelConfig.plugin_modules` lists
        this module treats the method as process-safe: pool workers
        import it at init, so the registration exists inside every
        fresh interpreter. The module must register the method at
        import time (idempotently — use ``replace=True``) and its
        builder must be defined at module top level (picklable by
        reference).
    """

    name: str
    legacy_name: str
    builder: Callable | None = None
    uses_traversal: bool = True
    uses_closure_cache: bool = False
    process_safe: bool = False
    aliases: tuple[str, ...] = ()
    plugin_module: str | None = None

    def build(self, graph, config: EngineConfig, closure_cache=None):
        """Construct a summarizer for this method."""
        builder = self.builder or _facade_builder(self)
        return builder(graph, config, closure_cache)


_REGISTRY: dict[str, MethodSpec] = {}
_ALIASES: dict[str, str] = {}


def register_method(spec: MethodSpec, *, replace: bool = False) -> None:
    """Add a method to the routing table.

    Names and aliases are claimed case-insensitively; reusing one
    raises ``ValueError`` unless ``replace=True`` (which also drops the
    previous spec's aliases).
    """
    claims = [spec.name.lower()]
    claims += [alias.lower() for alias in spec.aliases]
    if len(set(claims)) != len(claims):
        raise ValueError(f"method {spec.name!r} repeats an alias")
    conflicts = sorted({claim for claim in claims if claim in _ALIASES})
    if conflicts and not replace:
        raise ValueError(
            f"method name(s) {conflicts} already registered; pass "
            "replace=True to override"
        )
    if spec.name in _REGISTRY:
        # Same-name replacement drops the previous spec's aliases too.
        old = _REGISTRY.pop(spec.name)
        for claim in (old.name.lower(), *(a.lower() for a in old.aliases)):
            if _ALIASES.get(claim) == spec.name:
                del _ALIASES[claim]
    for claim in conflicts:
        # A claim owned by a *different* spec: detach just the claim.
        _ALIASES.pop(claim, None)
    _REGISTRY[spec.name] = spec
    for claim in claims:
        _ALIASES[claim] = spec.name


def unregister_method(name: str) -> None:
    """Remove a runtime-registered method (tests / plugin teardown)."""
    spec = _REGISTRY.pop(_ALIASES.get(name.lower(), name), None)
    if spec is None:
        raise KeyError(f"unknown method {name!r}")
    for claim in (spec.name.lower(), *(a.lower() for a in spec.aliases)):
        if _ALIASES.get(claim) == spec.name:
            del _ALIASES[claim]


def method_spec(name: str) -> MethodSpec:
    """Resolve a request's method name (or alias) to its spec."""
    canonical = _ALIASES.get(name.lower())
    if canonical is None:
        raise ValueError(
            f"unknown method {name!r}; expected one of "
            f"{available_methods()}"
        )
    return _REGISTRY[canonical]


def available_methods() -> tuple[str, ...]:
    """Canonical names of every registered method, registration order."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# Built-ins: registered at import time, hence visible in spawned workers.
# ----------------------------------------------------------------------
register_method(
    MethodSpec(
        name="st",
        legacy_name="ST",
        uses_closure_cache=True,
        process_safe=True,
        aliases=("steiner",),
    )
)
register_method(
    MethodSpec(
        name="st-fast",
        legacy_name="ST-fast",
        process_safe=True,
        aliases=("mehlhorn",),
    )
)
register_method(
    MethodSpec(
        name="pcst",
        legacy_name="PCST",
        process_safe=True,
    )
)
register_method(
    MethodSpec(
        name="union",
        legacy_name="Union",
        uses_traversal=False,
        process_safe=True,
    )
)
