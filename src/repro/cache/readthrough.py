"""Read-through integration: local LRU → shared store → compute.

:class:`StoreBackedClosureCache` is a
:class:`~repro.core.batch.TerminalClosureCache` whose tier hooks are
live: a local miss consults the shared store before computing (miss →
compute locally → publish). The local LRU stays in front — a store hit
is decoded once and then served from process memory like any other
entry.

Bit-identity is preserved end to end: every published entry is a fresh
``dijkstra_frozen`` result, the codec preserves settle order, and a
fetched entry passes the *same* covering check a local entry must — so
the summarizer sees exactly the ``(dist, prev)`` a cold run would have
produced.

Failure posture: the store is an accelerator. Undecodable payloads,
opaque signatures, stranded locks, or a store torn down mid-flight all
degrade to a local compute, never to an error.
"""

from __future__ import annotations

import time

from repro.cache.codec import decode_closure, encode_closure
from repro.cache.store import (
    SharedClosureStore,
    closure_store_key,
    store_digest,
)
from repro.core.batch import TerminalClosureCache
from repro.obs import trace as obs_trace


class StoreBackedClosureCache(TerminalClosureCache):
    """Terminal-closure cache with a shared second tier.

    ``store`` is an attached (or owning) :class:`SharedClosureStore`;
    everything else behaves exactly like the superclass. The
    ``store_hits`` / ``store_misses`` counters ride the same
    ``_STAT_KEYS`` delta plumbing as the local counters, so worker
    deltas surface in :class:`~repro.core.batch.BatchReport`.
    """

    def __init__(
        self, maxsize: int = 4096, *, store: SharedClosureStore
    ) -> None:
        super().__init__(maxsize)
        self._store = store

    def _store_get(self, digest):
        """One store lookup; a store closed under us is a miss."""
        if not obs_trace.ambient_enabled():
            try:
                return self._store.get(digest)
            except (ValueError, OSError):
                return None
        start = time.perf_counter()
        try:
            payload = self._store.get(digest)
        except (ValueError, OSError):
            payload = None
        obs_trace.record_event(
            "store.fetch",
            time.perf_counter() - start,
            outcome="hit" if payload is not None else "miss",
        )
        return payload

    def _store_put(self, digest, payload, ndist) -> None:
        if not obs_trace.ambient_enabled():
            try:
                self._store.put(digest, payload, ndist)
            except (ValueError, OSError):
                pass
            return
        start = time.perf_counter()
        try:
            stored = self._store.put(digest, payload, ndist)
        except (ValueError, OSError):
            stored = False
        obs_trace.record_event(
            "store.publish",
            time.perf_counter() - start,
            stored=bool(stored),
            bytes=len(payload),
        )

    def _tier_fetch(self, frozen, source, signature, rest):
        key = closure_store_key(frozen.version, source, signature)
        if key is None:
            return None
        payload = self._store_get(store_digest(key))
        if payload is None:
            with self._lock:
                self.store_misses += 1
            return None
        try:
            dist, prev = decode_closure(frozen, payload)
        except Exception:
            with self._lock:
                self.store_misses += 1
            return None
        if not rest <= dist.keys():
            # A sibling's shallower run: not reusable for these targets.
            with self._lock:
                self.store_misses += 1
            return None
        with self._lock:
            self.store_hits += 1
        return dist, prev

    def _tier_publish(self, frozen, source, signature, dist, prev) -> None:
        key = closure_store_key(frozen.version, source, signature)
        if key is None:
            return
        payload = encode_closure(frozen, dist, prev)
        if payload is None:
            return
        self._store_put(store_digest(key), payload, len(dist))
