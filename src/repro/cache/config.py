"""Typed configuration for the cross-worker closure store.

:class:`ClosureStoreConfig` sizes one :class:`~repro.cache.store
.SharedClosureStore`. It is a frozen dataclass that validates eagerly,
so a typo fails when the config is built rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Admission policies: "tinylfu" gates slab evictions on the count-min
#: popularity estimate (a newcomer must out-poll the victim it would
#: displace); "admit-all" always evicts, approximating plain segmented
#: LRU.
ADMISSION_POLICIES = ("tinylfu", "admit-all")


@dataclass(frozen=True)
class ClosureStoreConfig:
    """Cross-worker closure-store knobs.

    Parameters
    ----------
    enabled:
        Off by default — the store only pays for itself when several
        process workers share popular terminals; serial/thread runs and
        uniform traffic should leave it off.
    capacity_bytes:
        Payload slab capacity. Entries are whole distance/predecessor
        arrays (~40 bytes per settled node), so the default 64 MiB
        holds on the order of a thousand 10k-node closures.
    admission:
        "tinylfu" (default) or "admit-all"; see
        :data:`ADMISSION_POLICIES`.
    directory_slots:
        Index-table capacity (entries), partitioned evenly across the
        lock stripes; bounds how many closures the store can hold
        regardless of slab space.
    stripes:
        Number of directory lock stripes — each guards its own slot
        partition, so readers/writers on different stripes never
        contend.
    probe_limit:
        Bounded linear-probe window inside one stripe's partition; a
        full window evicts in place rather than scanning further.
    sketch_width:
        Counters per count-min row (4 rows); the popularity estimate
        behind TinyLFU admission.
    """

    enabled: bool = False
    capacity_bytes: int = 64 * 1024 * 1024
    admission: str = "tinylfu"
    directory_slots: int = 2048
    stripes: int = 16
    probe_limit: int = 32
    sketch_width: int = 2048

    def __post_init__(self) -> None:
        if self.capacity_bytes < 4096:
            raise ValueError("capacity_bytes must be at least 4096")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if self.stripes < 1:
            raise ValueError("stripes must be positive")
        if self.directory_slots < self.stripes:
            raise ValueError("directory_slots must be >= stripes")
        if self.probe_limit < 1:
            raise ValueError("probe_limit must be positive")
        if self.sketch_width < 16:
            raise ValueError("sketch_width must be at least 16")

    @property
    def slots_per_stripe(self) -> int:
        """Directory slots in each stripe's partition (floor division —
        a remainder is simply unused capacity)."""
        return self.directory_slots // self.stripes
