"""Shared-memory serialization plane for :class:`FrozenGraph`.

The process-pool batch backend (:mod:`repro.core.batch`) needs every
worker to traverse the *same* frozen CSR view without paying a per-task
(or even per-worker) pickle of the graph. This module moves a frozen
view through :mod:`multiprocessing.shared_memory`:

- :func:`export_frozen` copies the CSR arrays (offsets / targets /
  weights), the string-rank table and a JSON side-table (node ids,
  display names, relations) into named shared-memory blocks — one copy,
  done once by the parent. The returned :class:`SharedGraphExport` owns
  the blocks (close + unlink on teardown) and carries the picklable
  :class:`SharedGraphHandle` workers attach by.
- :func:`attach_frozen` maps those blocks back into a
  :class:`FrozenGraph` whose arrays are **zero-copy** ``memoryview``
  casts over the shared buffers — workers never duplicate the big
  arrays; the OS shares the physical pages.
- :func:`attach_knowledge_graph` additionally rebuilds the dict-of-dicts
  :class:`KnowledgeGraph` around the attached view (adjacency rows in
  CSR order replay the original insertion order, so traversal
  tie-breaking is bit-identical) and pre-binds ``graph.freeze()`` to the
  attached view.
- :func:`inherited_knowledge_graph` skips that rebuild in a worker
  *forked* from the exporter: the child already holds a copy-on-write
  snapshot of the exporter's graph, so it uses that one.

Lifecycle rules (spawn-safe on every platform):

- The parent owns the blocks: it must call ``close()`` and ``unlink()``
  (or use the export as a context manager) when the batch run ends.
- Workers only ever *attach*. Attached blocks are deregistered from the
  ``multiprocessing.resource_tracker`` (Python < 3.13 registers them on
  attach, which would otherwise unlink blocks still in use when the
  first worker exits) and released by an ``atexit`` hook so interpreter
  shutdown never trips over exported buffers.
"""

from __future__ import annotations

import atexit
import json
import os
import uuid
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.graph.csr import FrozenGraph

#: Block name suffixes: offsets, targets, weights, ranks, meta (JSON).
_SUFFIXES = ("o", "t", "w", "r", "m")


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable address of an exported frozen view.

    Small enough to travel through ``ProcessPoolExecutor`` initargs; the
    arrays themselves stay in the named shared-memory blocks.
    """

    token: str
    num_nodes: int
    num_slots: int
    meta_size: int
    version: int

    def block_name(self, suffix: str) -> str:
        """Shared-memory block name for one array."""
        return f"{self.token}{suffix}"

    def block_names(self) -> list[str]:
        """All block names this handle addresses."""
        return [self.block_name(suffix) for suffix in _SUFFIXES]


class SharedGraphExport:
    """Parent-side owner of the exported blocks.

    Usable as a context manager; ``__exit__`` closes *and* unlinks, so
    the blocks disappear from ``/dev/shm`` even on error paths.
    """

    def __init__(
        self,
        handle: SharedGraphHandle,
        blocks: list[shared_memory.SharedMemory],
    ) -> None:
        self.handle = handle
        self._blocks = blocks

    def close(self) -> None:
        """Release the parent's mapping (workers keep theirs)."""
        for block in self._blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass

    def unlink(self) -> None:
        """Remove the blocks from the system (idempotent)."""
        _EXPORTED.pop(self.handle.token, None)
        for block in self._blocks:
            try:
                block.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedGraphExport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        self.unlink()


def export_frozen(frozen: FrozenGraph) -> SharedGraphExport:
    """Copy a frozen view into named shared-memory blocks.

    The side table (ids, display names, relations) is read from the
    source :class:`KnowledgeGraph` when it is still alive, so workers
    can rebuild a fully equivalent graph object; a detached view exports
    with empty side tables.
    """
    source = frozen._source() if frozen._source is not None else None
    names = dict(source._names) if source is not None else {}
    # Flat ``[u, v, rel, ...]``: one list of strings, not one list per
    # relation, so an export adds no garbage-collected containers (tens
    # of thousands of them would trigger collections in the parent).
    relations = (
        [
            part
            for (u, v), rel in source._relations.items()
            for part in (u, v, rel)
        ]
        if source is not None
        else []
    )
    meta = json.dumps(
        {"ids": frozen.ids, "names": names, "relations": relations},
        separators=(",", ":"),
    ).encode("utf-8")
    ranks = array("q", frozen.string_ranks())

    token = f"rxg{uuid.uuid4().hex[:12]}"
    handle = SharedGraphHandle(
        token=token,
        num_nodes=frozen.num_nodes,
        num_slots=len(frozen.targets),
        meta_size=len(meta),
        version=frozen.version,
    )
    payloads = {
        "o": bytes(memoryview(frozen.offsets)),
        "t": bytes(memoryview(frozen.targets)),
        "w": bytes(memoryview(frozen.weights)),
        "r": ranks.tobytes(),
        "m": meta,
    }
    blocks: list[shared_memory.SharedMemory] = []
    try:
        for suffix in _SUFFIXES:
            payload = payloads[suffix]
            block = shared_memory.SharedMemory(
                name=handle.block_name(suffix),
                create=True,
                size=max(1, len(payload)),
            )
            blocks.append(block)
            block.buf[: len(payload)] = payload
    except BaseException:
        for block in blocks:
            block.close()
            block.unlink()
        raise
    if frozen._source is not None:
        _EXPORTED[token] = (os.getpid(), frozen._source)
    return SharedGraphExport(handle, blocks)


# ----------------------------------------------------------------------
# Worker-side attach
# ----------------------------------------------------------------------
#: Live exports of this process, by block token: ``(exporter pid,
#: weakref to the source KnowledgeGraph)``. A forked child inherits the
#: table; a spawned or forkserver child starts with it empty.
_EXPORTED: dict[str, tuple] = {}


def inherited_knowledge_graph(handle: SharedGraphHandle):
    """The exporter's own graph, seen from a child forked off it.

    A forked worker already holds a copy-on-write snapshot of the
    parent's heap, graph and frozen view included, so rebuilding the
    dict-of-dicts from the blocks (:func:`attach_knowledge_graph`) only
    duplicates it. Returns None in the exporter itself, in a spawned or
    forkserver child, and when the graph has changed since the export;
    the caller then attaches.
    """
    entry = _EXPORTED.get(handle.token)
    if entry is None or entry[0] == os.getpid():
        return None
    graph = entry[1]()
    if graph is None or graph.version != handle.version:
        return None
    return graph


#: (block, views) pairs attached by this process, released at exit in
#: reverse order (views before their backing blocks).
_ATTACHED: list[tuple[shared_memory.SharedMemory, list[memoryview]]] = []


def _release_attachments() -> None:
    """Release every attachment this process holds (atexit + tests)."""
    while _ATTACHED:
        block, views = _ATTACHED.pop()
        for view in views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - sub-view alive
                pass
        try:
            block.close()
        except BufferError:  # pragma: no cover - unreleased view
            pass


atexit.register(_release_attachments)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without adopting ownership.

    Python 3.13+ takes ``track=False`` so the resource tracker never
    considers this process an owner; on 3.10-3.12 a plain attach
    already leaves tracker registration to the creating process (the
    exporter), which is the behaviour we want — owners unlink, workers
    only map.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


def attach_frozen(
    handle: SharedGraphHandle,
) -> tuple[FrozenGraph, dict]:
    """Map an exported view back into a zero-copy :class:`FrozenGraph`.

    Returns ``(frozen, meta)`` where ``meta`` is the JSON side table
    (``ids`` / ``names`` / ``relations``, the last a flat ``[u, v, rel,
    ...]`` list). The frozen view's arrays are
    ``memoryview`` casts over the shared buffers — no array copy; the
    string-rank table is pre-populated from the exported block so e.g.
    the Mehlhorn closure never re-sorts ids per worker.
    """
    blocks: dict[str, shared_memory.SharedMemory] = {}
    views: list[memoryview] = []
    try:
        for suffix in _SUFFIXES:
            blocks[suffix] = _attach_block(handle.block_name(suffix))
        n, m = handle.num_nodes, handle.num_slots
        offsets = blocks["o"].buf[: (n + 1) * 8].cast("q")
        targets = blocks["t"].buf[: m * 8].cast("q")
        weights = blocks["w"].buf[: m * 8].cast("d")
        views += [offsets, targets, weights]
        ranks = list(blocks["r"].buf[: n * 8].cast("q")) if n else []
        meta = json.loads(
            bytes(blocks["m"].buf[: handle.meta_size]).decode("utf-8")
        )
    except BaseException:
        for view in views:
            view.release()
        for block in blocks.values():
            block.close()
        raise
    ids = list(meta["ids"])
    frozen = FrozenGraph(
        ids,
        {node: i for i, node in enumerate(ids)},
        offsets,
        targets,
        weights,
        handle.version,
    )
    frozen._ranks = ranks
    _ATTACHED.append((blocks["o"], [offsets]))
    _ATTACHED.append((blocks["t"], [targets]))
    _ATTACHED.append((blocks["w"], [weights]))
    _ATTACHED.append((blocks["r"], []))
    _ATTACHED.append((blocks["m"], []))
    return frozen, meta


def attach_knowledge_graph(handle: SharedGraphHandle):
    """Rebuild a read-only :class:`KnowledgeGraph` around a shared view.

    The adjacency is reconstructed from the CSR rows (node order = the
    exported ``ids`` order = the original insertion order; neighbor
    order inside each row = the original adjacency insertion order), so
    every traversal over the rebuilt graph replays the parent's
    tie-breaking exactly. ``graph.freeze()`` is pre-bound to the
    attached zero-copy view — workers never recompile the CSR.
    """
    from repro.graph.knowledge_graph import KnowledgeGraph

    frozen, meta = attach_frozen(handle)
    ids = frozen.ids
    offsets, targets, weights = (
        frozen.offsets,
        frozen.targets,
        frozen.weights,
    )
    graph = KnowledgeGraph()
    adjacency: dict[str, dict[str, float]] = {}
    for u, node in enumerate(ids):
        row = {}
        for slot in range(offsets[u], offsets[u + 1]):
            row[ids[targets[slot]]] = weights[slot]
        adjacency[node] = row
    graph._adjacency = adjacency
    graph._names = dict(meta.get("names", {}))
    flat = meta.get("relations", [])
    graph._relations = {
        (flat[i], flat[i + 1]): flat[i + 2] for i in range(0, len(flat), 3)
    }
    graph._num_edges = handle.num_slots // 2
    graph._version = handle.version
    graph._frozen = frozen
    return graph


def detach_all() -> None:
    """Release this process's attachments now (mainly for tests)."""
    _release_attachments()
