"""The cross-worker shared closure store.

One :class:`SharedClosureStore` is three named shared-memory blocks —
directory, payload slab, frequency sketch — plus a handful of
``multiprocessing`` locks, created once by the session parent and
attached (zero-copy, the way :func:`repro.graph.shared.attach_frozen`
maps the CSR plane) by every pool worker:

- **Directory**: an open-addressed table of 64-byte entry records,
  partitioned into ``stripes`` contiguous regions, each guarded by its
  own lock — operations on different stripes never contend, and a key's
  stripe is derived from its digest so every probe for it stays inside
  one region. Records carry the key digest, the payload's slab
  location, a recency tick (``time.monotonic_ns`` — system-wide on
  Linux, so cross-process recency needs no shared counter) and an LRU
  segment bit (probation → protected on re-access).
- **Slab**: payload bytes managed by :class:`repro.cache.slab
  .SlabAllocator` under a single allocator lock.
- **Sketch**: the :class:`repro.cache.sketch.FrequencySketch` behind
  TinyLFU admission, under its own lock.

Keys are *canonical*: an explicit byte encoding of ``(kind,
graph_version, terminal, cost-signature)`` hashed with BLAKE2b —
independent of ``PYTHONHASHSEED``, so every spawn worker derives the
same digest for the same closure. Signatures containing opaque
sentinels (anonymous cost surfaces) are unencodable and bypass the
store entirely.

Concurrency rules (the invariants that keep this deadlock-free):

- lock order is strictly *stripe → allocator*; no path ever holds two
  stripe locks, and the sketch lock is only ever held alone;
- readers copy payload bytes out **under the stripe lock** — eviction
  needs that same lock to retire the entry, so a reader can never
  observe a freed (or recycled) chunk: attach-after-eviction is safe by
  construction;
- every acquire uses a timeout: if a lock is stranded (a worker killed
  mid-operation by the resilience layer's deadline enforcement), store
  operations degrade to misses/no-ops instead of deadlocking — the
  cache tier is an accelerator, never a liveness dependency;
- eviction happens *before* the insert takes its stripe lock, one
  victim stripe at a time, so capacity pressure cannot order-invert.

Crash safety: the creating process registers the blocks with the
``multiprocessing`` resource tracker (a plain tracked create), so even
a ``kill -9`` of the owner leaves no ``/dev/shm`` residue — the tracker
unlinks on its behalf, the same guarantee the shared graph plane
relies on. Workers attach without ownership and release at exit.
"""

from __future__ import annotations

import atexit
import hashlib
import struct
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from repro.cache.config import ClosureStoreConfig
from repro.cache.sketch import FrequencySketch, region_size
from repro.cache.slab import ALIGN, SlabAllocator
from repro.obs.trace import record_event

#: Entry record: (state: u8, segment: u8, digest: 16s, offset: i64,
#: length: i64, tick: i64, ndist: i64), padded to 64 bytes.
_ENTRY = struct.Struct("<BB6x16sqqqq8x")
ENTRY_SIZE = _ENTRY.size  # 64

_EMPTY, _READY, _TOMBSTONE = 0, 1, 2
_PROBATION, _PROTECTED = 0, 1

#: Per-stripe counters appended after the entry records:
#: (hits, misses, publishes, evictions, rejections) int64 each.
_COUNTER_FIELDS = ("hits", "misses", "publishes", "evictions", "rejections")
_COUNTERS = struct.Struct("<" + "q" * len(_COUNTER_FIELDS))

#: Block-name suffixes: directory, slab, frequency sketch.
_SUFFIXES = ("d", "s", "f")


# ----------------------------------------------------------------------
# Canonical store keys (hash-seed independent)
# ----------------------------------------------------------------------
def _encode_token(value, out: list) -> bool:
    """Append one signature token's canonical bytes; False = opaque.

    Covers the types real cost signatures are built from (ints, floats,
    strings, nested tuples). Anything else — notably the ``object()``
    sentinels anonymous surfaces embed — is unencodable, and the caller
    bypasses the store for that surface.
    """
    if type(value) is bool or value is None:
        out.append(b"b" + repr(value).encode("ascii"))
        return True
    if type(value) is int:
        out.append(b"i%d" % value)
        return True
    if type(value) is float:
        out.append(b"f" + struct.pack("<d", value))
        return True
    if type(value) is str:
        raw = value.encode("utf-8")
        out.append(b"s%d:" % len(raw) + raw)
        return True
    if type(value) is tuple:
        out.append(b"(")
        for item in value:
            if not _encode_token(item, out):
                return False
        out.append(b")")
        return True
    return False


def closure_store_key(version: int, source: str, signature) -> bytes | None:
    """Canonical key of one ``(graph_version, terminal, weighting)``
    closure entry; None when the signature is opaque."""
    out: list = [b"C", b"v%d" % version]
    if not _encode_token(source, out):
        return None
    if not _encode_token(signature, out):
        return None
    return b"".join(out)


def store_digest(key: bytes) -> bytes:
    """16-byte BLAKE2b digest — the directory's fixed-width key."""
    return hashlib.blake2b(key, digest_size=16).digest()


# ----------------------------------------------------------------------
# Worker-side attachment registry (mirrors repro.graph.shared)
# ----------------------------------------------------------------------
_ATTACHED: list = []


def _release_attachments() -> None:
    while _ATTACHED:
        store = _ATTACHED.pop()
        try:
            store.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


atexit.register(_release_attachments)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach without adopting tracker ownership (see graph.shared)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


@dataclass
class StoreHandle:
    """Picklable-by-inheritance address of one shared closure store.

    Carries the block token, the geometry needed to map the blocks, and
    the actual ``multiprocessing`` lock objects. Locks only pickle
    through process *inheritance* (``Process`` args / pool initargs at
    spawn time) — never send a handle through a queue.
    """

    token: str
    capacity_bytes: int
    directory_slots: int
    stripes: int
    probe_limit: int
    sketch_width: int
    admission: str
    alloc_lock: object = field(repr=False)
    sketch_lock: object = field(repr=False)
    stripe_locks: tuple = field(repr=False)

    @property
    def slots_per_stripe(self) -> int:
        return self.directory_slots // self.stripes

    def block_name(self, suffix: str) -> str:
        return f"{self.token}{suffix}"

    def block_names(self) -> list[str]:
        return [self.block_name(suffix) for suffix in _SUFFIXES]


class SharedClosureStore:
    """Parent- or worker-side view of one shared closure store.

    Construct via :meth:`create` (the owning parent — creates, zeroes
    and formats the blocks) or :meth:`attach` (workers — maps existing
    blocks). All public operations are safe to call from any attached
    process concurrently.
    """

    #: Stranded-lock patience: a lock held longer than this (a worker
    #: killed mid-operation) turns the operation into a miss/no-op.
    LOCK_TIMEOUT = 2.0

    def __init__(
        self, handle: StoreHandle, blocks: dict, *, owner: bool
    ) -> None:
        self.handle = handle
        self._blocks = blocks
        self._owner = owner
        self._closed = False
        dir_buf = blocks["d"].buf
        self._entries = dir_buf
        self._counter_base = handle.directory_slots * ENTRY_SIZE
        slab_buf = blocks["s"].buf
        self._slab_buf = slab_buf
        self._slab = SlabAllocator(
            slab_buf, handle.capacity_bytes, fresh=owner
        )
        self._sketch = FrequencySketch(
            blocks["f"].buf, handle.sketch_width
        )
        #: Rotating victim-stripe cursor (process-local; fairness only).
        self._evict_cursor = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, config: ClosureStoreConfig, context
    ) -> "SharedClosureStore":
        """Create the blocks and locks; the caller owns the result."""
        capacity = (
            (config.capacity_bytes + ALIGN - 1) // ALIGN * ALIGN
        )
        handle = StoreHandle(
            token=f"rxc{uuid.uuid4().hex[:12]}",
            capacity_bytes=capacity,
            directory_slots=config.directory_slots,
            stripes=config.stripes,
            probe_limit=config.probe_limit,
            sketch_width=config.sketch_width,
            admission=config.admission,
            alloc_lock=context.Lock(),
            sketch_lock=context.Lock(),
            stripe_locks=tuple(
                context.Lock() for _ in range(config.stripes)
            ),
        )
        sizes = {
            "d": handle.directory_slots * ENTRY_SIZE
            + handle.stripes * _COUNTERS.size,
            "s": ALIGN + capacity,
            "f": region_size(handle.sketch_width),
        }
        blocks: dict = {}
        try:
            for suffix in _SUFFIXES:
                block = shared_memory.SharedMemory(
                    name=handle.block_name(suffix),
                    create=True,
                    size=sizes[suffix],
                )
                blocks[suffix] = block
                block.buf[:] = bytes(sizes[suffix])
        except BaseException:
            for block in blocks.values():
                block.close()
                block.unlink()
            raise
        return cls(handle, blocks, owner=True)

    @classmethod
    def attach(cls, handle: StoreHandle) -> "SharedClosureStore":
        """Map an existing store; released automatically at exit."""
        blocks: dict = {}
        try:
            for suffix in _SUFFIXES:
                blocks[suffix] = _attach_block(handle.block_name(suffix))
        except BaseException:
            for block in blocks.values():
                block.close()
            raise
        store = cls(handle, blocks, owner=False)
        _ATTACHED.append(store)
        return store

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._sketch.release()
        for block in self._blocks.values():
            try:
                block.close()
            except BufferError:  # pragma: no cover - live export view
                pass

    def unlink(self) -> None:
        """Remove the blocks from the system (owner; idempotent)."""
        for block in self._blocks.values():
            try:
                block.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedClosureStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        if self._owner:
            self.unlink()

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def _slot_offset(self, slot: int) -> int:
        return slot * ENTRY_SIZE

    def _read(self, slot: int):
        return _ENTRY.unpack_from(self._entries, self._slot_offset(slot))

    def _write(
        self, slot, state, segment, digest, offset, length, tick, ndist
    ) -> None:
        _ENTRY.pack_into(
            self._entries,
            self._slot_offset(slot),
            state,
            segment,
            digest,
            offset,
            length,
            tick,
            ndist,
        )

    def _stripe_of(self, digest: bytes) -> int:
        return digest[0] % self.handle.stripes

    def _probe_slots(self, digest: bytes):
        """Probe sequence for a digest: bounded, inside its stripe."""
        per = self.handle.slots_per_stripe
        stripe = self._stripe_of(digest)
        start = int.from_bytes(digest[1:9], "big") % per
        base = stripe * per
        for step in range(min(per, self.handle.probe_limit)):
            yield base + (start + step) % per

    def _bump_counter(self, stripe: int, name: str, delta: int = 1) -> None:
        base = self._counter_base + stripe * _COUNTERS.size
        values = list(_COUNTERS.unpack_from(self._entries, base))
        values[_COUNTER_FIELDS.index(name)] += delta
        _COUNTERS.pack_into(self._entries, base, *values)

    def _acquire(self, lock) -> bool:
        return lock.acquire(timeout=self.LOCK_TIMEOUT)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, digest: bytes) -> bytes | None:
        """Look one digest up; returns a payload *copy* or None.

        The copy happens under the stripe lock — eviction takes the
        same lock, so the bytes handed back are always the entry's,
        never a recycled chunk's.
        """
        if self._closed:
            return None
        stripe = self._stripe_of(digest)
        lock = self.handle.stripe_locks[stripe]
        if not self._acquire(lock):
            return None
        try:
            payload = None
            for slot in self._probe_slots(digest):
                state, segment, sdigest, offset, length, _t, nd = (
                    self._read(slot)
                )
                if state == _EMPTY:
                    break
                if state == _READY and sdigest == digest:
                    payload = bytes(
                        self._slab_buf[offset : offset + length]
                    )
                    # Re-access promotes probation → protected and
                    # refreshes recency.
                    self._write(
                        slot,
                        _READY,
                        _PROTECTED if segment == _PROBATION else segment,
                        sdigest,
                        offset,
                        length,
                        time.monotonic_ns(),
                        nd,
                    )
                    break
            self._bump_counter(
                stripe, "hits" if payload is not None else "misses"
            )
        finally:
            lock.release()
        if self._acquire(self.handle.sketch_lock):
            try:
                self._sketch.bump(digest)
            finally:
                self.handle.sketch_lock.release()
        return payload

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _pick_victim(self, stripe: int, exclude: bytes):
        """Cheapest READY entry of one stripe (caller holds its lock).

        Probation entries are always cheaper than protected ones;
        within a segment the stalest tick loses — the classic segmented
        LRU order.
        """
        per = self.handle.slots_per_stripe
        best = None
        best_rank = None
        for slot in range(stripe * per, (stripe + 1) * per):
            state, segment, digest, offset, length, tick, _nd = (
                self._read(slot)
            )
            if state != _READY or digest == exclude:
                continue
            rank = (segment, tick)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = (slot, digest, offset, length, segment)
        return best

    def _admit_over(self, candidate: bytes, victim: bytes) -> bool:
        """TinyLFU gate: does the candidate out-poll the victim?

        Ties go to the incumbent — a newcomer must be strictly more
        popular to displace resident data ("one-off terminals don't
        evict hot ones"). ``admit-all`` always admits.
        """
        if self.handle.admission != "tinylfu":
            return True
        if not self._acquire(self.handle.sketch_lock):
            return False
        try:
            return self._sketch.estimate(candidate) > self._sketch.estimate(
                victim
            )
        finally:
            self.handle.sketch_lock.release()

    def _evict_one(self, candidate: bytes) -> bool:
        """Retire one victim to make room for ``candidate``.

        Walks the stripes round-robin; the first stripe that yields a
        victim decides: if the TinyLFU gate sides with the victim the
        candidate is rejected (returns False — the caller gives up), if
        it sides with the candidate the victim is tombstoned and its
        chunk freed. Returns True when space was reclaimed.
        """
        stripes = self.handle.stripes
        for turn in range(stripes):
            stripe = (self._evict_cursor + turn) % stripes
            lock = self.handle.stripe_locks[stripe]
            if not self._acquire(lock):
                continue
            try:
                victim = self._pick_victim(stripe, candidate)
                if victim is None:
                    continue
                slot, digest, offset, length, _segment = victim
                if not self._admit_over(candidate, digest):
                    self._bump_counter(stripe, "rejections")
                    self._evict_cursor = stripe
                    return False
                self._write(
                    slot, _TOMBSTONE, 0, b"\x00" * 16, 0, 0, 0, 0
                )
                self._bump_counter(stripe, "evictions")
                record_event("store.evict", 0.0, bytes=length)
                if self._acquire(self.handle.alloc_lock):
                    try:
                        self._slab.free(offset, length)
                    finally:
                        self.handle.alloc_lock.release()
                self._evict_cursor = (stripe + 1) % stripes
                return True
            finally:
                lock.release()
        return False

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _alloc(self, nbytes: int) -> int | None:
        if not self._acquire(self.handle.alloc_lock):
            return None
        try:
            return self._slab.alloc(nbytes)
        finally:
            self.handle.alloc_lock.release()

    def _free(self, offset: int, nbytes: int) -> None:
        if not self._acquire(self.handle.alloc_lock):
            return
        try:
            self._slab.free(offset, nbytes)
        finally:
            self.handle.alloc_lock.release()

    def put(self, digest: bytes, payload: bytes, ndist: int) -> bool:
        """Publish one payload under ``digest``; True when stored.

        Read-through semantics make publishes racy by design (two
        workers may compute the same closure concurrently); the winner
        is whichever lands last *with the larger settled set* — an
        existing entry is only replaced by a strictly more-settled run,
        mirroring the local cache's replace-if-larger rule.
        """
        size = len(payload)
        if self._closed or size == 0 or size > self.handle.capacity_bytes // 2:
            return False
        stripe = self._stripe_of(digest)
        lock = self.handle.stripe_locks[stripe]
        # Cheap duplicate probe before paying for allocation.
        if not self._acquire(lock):
            return False
        try:
            for slot in self._probe_slots(digest):
                state, _seg, sdigest, _o, _l, _t, nd = self._read(slot)
                if state == _EMPTY:
                    break
                if state == _READY and sdigest == digest and nd >= ndist:
                    return False
        finally:
            lock.release()

        offset = self._alloc(size)
        while offset is None:
            if not self._evict_one(digest):
                return False
            offset = self._alloc(size)
        # The chunk is private until the directory insert below, so the
        # payload copy needs no lock.
        self._slab_buf[offset : offset + size] = payload

        if not self._acquire(lock):
            self._free(offset, size)
            return False
        try:
            target = None
            for slot in self._probe_slots(digest):
                state, segment, sdigest, soff, slen, tick, nd = (
                    self._read(slot)
                )
                if state == _READY and sdigest == digest:
                    if nd >= ndist:  # raced: a better run landed first
                        self._free(offset, size)
                        return False
                    # Replace in place; free the superseded chunk.
                    self._write(
                        slot,
                        _READY,
                        segment,
                        digest,
                        offset,
                        size,
                        time.monotonic_ns(),
                        ndist,
                    )
                    self._free(soff, slen)
                    self._bump_counter(stripe, "publishes")
                    return True
                if state != _READY and target is None:
                    target = slot
                if state == _EMPTY:
                    break
            if target is None:
                # Probe window full of live entries: displace its
                # segmented-LRU victim (TinyLFU-gated) in place.
                best = None
                best_rank = None
                for slot in self._probe_slots(digest):
                    state, segment, sdigest, soff, slen, tick, nd = (
                        self._read(slot)
                    )
                    rank = (segment, tick)
                    if best_rank is None or rank < best_rank:
                        best_rank = rank
                        best = (slot, sdigest, soff, slen)
                if best is None or not self._admit_over(digest, best[1]):
                    self._bump_counter(stripe, "rejections")
                    self._free(offset, size)
                    return False
                target = best[0]
                self._free(best[2], best[3])
                self._bump_counter(stripe, "evictions")
                record_event("store.evict", 0.0, bytes=best[3])
            self._write(
                target,
                _READY,
                _PROBATION,
                digest,
                offset,
                size,
                time.monotonic_ns(),
                ndist,
            )
            self._bump_counter(stripe, "publishes")
            return True
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Global counters (summed over stripes) + occupancy."""
        totals = dict.fromkeys(_COUNTER_FIELDS, 0)
        for stripe in range(self.handle.stripes):
            base = self._counter_base + stripe * _COUNTERS.size
            for name, value in zip(
                _COUNTER_FIELDS,
                _COUNTERS.unpack_from(self._entries, base),
            ):
                totals[name] += value
        entries = 0
        for slot in range(self.handle.directory_slots):
            if self._entries[self._slot_offset(slot)] == _READY:
                entries += 1
        totals["entries"] = entries
        totals["bytes_used"] = self._slab.bytes_used
        totals["capacity_bytes"] = self.handle.capacity_bytes
        return totals
