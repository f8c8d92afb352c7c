"""Benchmark-side layer timers: wrappers around the program's public calls.

The program itself is not changed. A :class:`LayerTimers` replaces a
public function or method with a wrapper that times each call, keeps
a per-thread stack of open calls so nested calls are subtracted from
their caller (a layer's *self* time), and folds everything into
in-memory per-row totals that are written out when the run ends.

Functions are patched where they are looked up: ``repro.core.batch``
and ``repro.graph.steiner`` import the kernels by name, so
:meth:`LayerTimers.patch_function` rebinds every ``repro.*`` module
attribute that holds the original object, not just the defining one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Rows of the compute breakdown, innermost kernels first.
COMPUTE_ROWS = (
    "graph.dijkstra",
    "graph.steiner",
    "graph.mehlhorn",
    "graph.pcst",
    "graph.freeze",
    "core.closure",
    "core.summarize",
)


#: Additive rows of a workload's traced breakdown; whatever the rows do
#: not cover is reported as ``share.unattributed``.
SHARE_ROWS = (
    *COMPUTE_ROWS,
    "protocol.encode",
    "protocol.decode",
    "server.queue_wait",
    "journal",
    "pool.encode",
    "pool.idle",
)

#: Helper rows whose self time is credited to a breakdown row.
_FOLDED = {
    "graph.dijkstra.ids": "graph.dijkstra",
    "graph.freeze.build": "graph.freeze",
}


class LayerTimers:
    """Per-row call counts, total time and self time of wrapped calls."""

    def __init__(self) -> None:
        self.rows: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        # Re-entrant: the traced server snapshots from a signal handler
        # that can interrupt a recording call on the same thread.
        self._lock = threading.RLock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, row: str, total: float, own: float) -> None:
        with self._lock:
            slot = self.rows.setdefault(row, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += total
            slot[2] += own

    def timed(self, row, func, on_result=None):
        """``func`` wrapped to time each call under ``row``.

        ``row`` is a string or a callable of the call's positional
        arguments (e.g. to name a summarize row after its method).
        ``on_result`` sees each return value (e.g. to count settled
        nodes); it runs outside the timed interval.
        """
        timers = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = timers._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                name = row(*args) if callable(row) else row
                timers.record(name, elapsed, elapsed - children[0])
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(self, func, row, on_result=None) -> int:
        """Rebind every ``repro.*`` module name bound to ``func``."""
        wrapper = self.timed(row, func, on_result)
        bound = 0
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{func.__qualname__} is bound nowhere")
        return bound

    def patch_method(self, cls, attr: str, row, on_result=None) -> None:
        """Wrap one method (plain or classmethod) on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self.timed(row, original.__func__, on_result)
            )
        else:
            wrapped = self.timed(row, original, on_result)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, original))

    def replace_method(self, cls, attr: str, make) -> None:
        """Install ``make(original)`` as ``cls.attr`` (restored later)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-JSON totals: ``{"rows": {row: {calls, total_s, self_s}}}``."""
        with self._lock:
            return {
                "rows": {
                    row: {"calls": calls, "total_s": total, "self_s": own}
                    for row, (calls, total, own) in sorted(self.rows.items())
                },
                "counters": dict(sorted(self.counters.items())),
            }


def install_compute_timers(timers: LayerTimers) -> list:
    """Time the graph kernels, the closure tier and the summarizers.

    Returns the list that collects every :class:`TerminalClosureCache`
    whose lookup ran, so callers can read its counters afterwards.
    """
    from repro.core import batch as core_batch
    from repro.core import summarizer
    from repro.graph import csr, knowledge_graph, mehlhorn, pcst
    from repro.graph import shortest_paths, steiner

    def settled(result) -> None:
        timers.count("graph.dijkstra.settled", len(result[0]))

    timers.patch_function(
        shortest_paths.dijkstra_indexed, "graph.dijkstra", settled
    )
    # The id-keyed drop-in maps results back to node ids around the
    # indexed run; its own time still belongs to the kernel row.
    timers.patch_function(shortest_paths.dijkstra_frozen, "graph.dijkstra.ids")
    timers.patch_function(steiner.steiner_tree, "graph.steiner")
    timers.patch_function(mehlhorn.mehlhorn_steiner_tree, "graph.mehlhorn")
    timers.patch_function(pcst.grow_prune_pcst, "graph.pcst")
    timers.patch_function(pcst.paper_pcst, "graph.pcst")
    timers.patch_method(knowledge_graph.KnowledgeGraph, "freeze", "graph.freeze")
    timers.patch_method(
        csr.FrozenGraph, "from_knowledge_graph", "graph.freeze.build"
    )
    timers.patch_method(
        summarizer.Summarizer,
        "summarize",
        lambda self, *_: f"core.summarize.{self.method.lower()}",
    )

    caches: list = []

    def wrap_pair_fn(original):
        def pair_fn(cache, frozen, costs):
            if not any(seen is cache for seen in caches):
                caches.append(cache)
            return timers.timed("core.closure", original(cache, frozen, costs))

        return pair_fn

    timers.replace_method(
        core_batch.TerminalClosureCache, "pair_fn", wrap_pair_fn
    )
    return caches


def walk_spans(span: dict):
    """Every span of a finished trace tree, parents first."""
    yield span
    for child in span["children"]:
        yield from walk_spans(child)


def closure_counters(caches) -> dict:
    """Summed hit/miss/patch/base counters of the given closure caches."""
    keys = ("hits", "misses", "patched", "base_hits", "base_misses")
    return {key: sum(getattr(cache, key) for cache in caches) for key in keys}


def compute_self_ms(rows: dict) -> dict:
    """Self milliseconds per breakdown row (summarize rows folded)."""
    out = dict.fromkeys(COMPUTE_ROWS, 0.0)
    for row, data in rows.items():
        if row.startswith("core.summarize."):
            out["core.summarize"] += data["self_s"] * 1000.0
        elif row in _FOLDED:
            out[_FOLDED[row]] += data["self_s"] * 1000.0
        elif row in out:
            out[row] += data["self_s"] * 1000.0
    return out


def kernel_metrics(snapshot: dict, compute_ms: dict) -> dict:
    """Per-layer kernel, freeze, closure and summarize metrics."""
    rows = snapshot["rows"]

    def calls(row: str) -> int:
        return rows.get(row, {}).get("calls", 0)

    def total_ms(row: str) -> float:
        return rows.get(row, {}).get("total_s", 0.0) * 1000.0

    closure = snapshot["closure"]
    lookups = closure["hits"] + closure["misses"] + closure["patched"]
    useful = closure["hits"] + closure["patched"]
    return {
        "graph.dijkstra.calls": calls("graph.dijkstra"),
        "graph.dijkstra.settled": snapshot["counters"].get(
            "graph.dijkstra.settled", 0
        ),
        "graph.dijkstra.ms": compute_ms["graph.dijkstra"],
        "graph.steiner.self_ms": compute_ms["graph.steiner"],
        "graph.mehlhorn.calls": calls("graph.mehlhorn"),
        "graph.pcst.calls": calls("graph.pcst"),
        "graph.pcst.ms": compute_ms["graph.pcst"],
        "graph.freeze.calls": calls("graph.freeze.build"),
        "graph.freeze.ms": total_ms("graph.freeze"),
        "core.closure.hits": closure["hits"],
        "core.closure.misses": closure["misses"],
        "core.closure.patched": closure["patched"],
        "core.closure.base_hits": closure["base_hits"],
        "core.closure.base_misses": closure["base_misses"],
        "core.closure.useful_frac": useful / lookups if lookups else 0.0,
        "core.closure.self_ms": compute_ms["core.closure"],
        "core.summarize.st.ms": total_ms("core.summarize.st"),
        "core.summarize.pcst.ms": total_ms("core.summarize.pcst"),
        "core.summarize.union.ms": total_ms("core.summarize.union"),
    }


def shares(parts: dict, base: float) -> dict:
    """``share.<row>`` of ``base`` per additive row, plus the remainder."""
    out = {f"share.{row}": parts.get(row, 0.0) / base for row in SHARE_ROWS}
    out["share.unattributed"] = 1.0 - sum(out.values())
    return out
