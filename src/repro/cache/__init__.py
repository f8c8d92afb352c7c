"""Shared-memory closure store primitives (:mod:`repro.cache`).

Sessions no longer use this package: ST closure misses run the numpy
kernel :func:`repro.graph.shortest_paths.closure_distances`, which
outruns a cross-worker fetch. What is left is the standalone store:

- :mod:`repro.cache.slab` — a first-fit, coalescing slab allocator
  whose free list lives *inside* the shared-memory buffer it manages,
  so every attached process sees the same heap.
- :mod:`repro.cache.sketch` — a count-min frequency sketch with
  periodic halving, the TinyLFU popularity estimate behind admission.
- :mod:`repro.cache.store` — :class:`SharedClosureStore`: named
  shared-memory blocks (directory + slab + sketch) guarded by a
  ``multiprocessing.Lock``-striped directory, with canonical
  (hash-seed-independent) store keys.
"""

from repro.cache.config import ClosureStoreConfig
from repro.cache.store import (
    SharedClosureStore,
    StoreHandle,
    closure_store_key,
    store_digest,
)

__all__ = [
    "ClosureStoreConfig",
    "SharedClosureStore",
    "StoreHandle",
    "closure_store_key",
    "store_digest",
]
