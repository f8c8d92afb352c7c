"""Cross-worker shared closure store (:mod:`repro.cache`).

Per-worker closure caches never share: on power-law traffic — a few
popular terminals appearing in many tasks — every process-pool worker
re-runs the same terminal Dijkstras, so adding workers multiplies
redundant shortest-path work instead of amortizing it. This package
promotes the closure cache to a cross-worker tier:

- :mod:`repro.cache.slab` — a first-fit, coalescing slab allocator
  whose free list lives *inside* the shared-memory buffer it manages,
  so every attached process sees the same heap.
- :mod:`repro.cache.sketch` — a count-min frequency sketch with
  periodic halving, the TinyLFU popularity estimate behind admission.
- :mod:`repro.cache.store` — :class:`SharedClosureStore`: named
  shared-memory blocks (directory + slab + sketch) guarded by a
  ``multiprocessing.Lock``-striped directory, with canonical
  (hash-seed-independent) store keys and the payload codecs for
  distance/predecessor arrays.
- :mod:`repro.cache.readthrough` — :class:`StoreBackedClosureCache`,
  the :class:`~repro.core.batch.TerminalClosureCache` subclass that
  reads through to the store on local misses and publishes fresh
  Dijkstra runs back, preserving bit-identical outputs.

Sessions opt in through :class:`ClosureStoreConfig` (the sixth session
config); the store is created at export time by the parent and attached
zero-copy by workers, exactly like the shared CSR graph plane.
"""

from repro.cache.config import ClosureStoreConfig
from repro.cache.readthrough import StoreBackedClosureCache
from repro.cache.store import (
    SharedClosureStore,
    StoreHandle,
    closure_store_key,
    store_digest,
)

__all__ = [
    "ClosureStoreConfig",
    "SharedClosureStore",
    "StoreBackedClosureCache",
    "StoreHandle",
    "closure_store_key",
    "store_digest",
]
