"""Frozen CSR (compressed sparse row) view of a :class:`KnowledgeGraph`.

The dict-of-dicts adjacency is ideal for incremental construction but
slow to traverse: every Dijkstra relaxation hashes a string, walks a
dict, and calls a Python cost function. :class:`FrozenGraph` compiles
the graph once into flat int-indexed arrays —

- ``offsets[i] .. offsets[i + 1]`` delimits node ``i``'s slot range,
- ``targets[s]`` is the neighbor index stored in slot ``s``,
- ``weights[s]`` the stored edge weight of that (directed) slot —

plus an id <-> index interning table, so the hot loops in
:mod:`repro.graph.shortest_paths` run on integers and array lookups.

Neighbor order within a row replicates the adjacency dict's insertion
order exactly. Combined with the shared heap algorithm this makes the
indexed Dijkstra bit-identical to the dict-based one (same settle order,
same tie-breaking, same predecessor trees) — the property the parity
tests in ``tests/properties/test_csr_properties.py`` pin down.

Arrays use the stdlib ``array`` module; :meth:`FrozenGraph.to_numpy`
exposes zero-copy numpy views of them and :attr:`FrozenCosts.vector` a
float64 copy of a cost surface, which is what the numpy closure kernel
(:func:`repro.graph.shortest_paths.closure_distances`) runs on.

A frozen view is a snapshot: it records the source graph's
:attr:`~repro.graph.knowledge_graph.KnowledgeGraph.version` at build
time, and :meth:`FrozenGraph.is_stale` reports whether the source has
been mutated since. :meth:`KnowledgeGraph.freeze` handles the
rebuild-on-mutation policy; code holding a ``FrozenGraph`` directly
should re-freeze rather than use a stale view.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.knowledge_graph import KnowledgeGraph


@dataclass(frozen=True)
class FrozenCosts:
    """Per-slot edge costs for one traversal over a :class:`FrozenGraph`.

    ``signature`` identifies the cost surface: two ``FrozenCosts`` with
    equal signatures (over the same frozen view) assign every slot the
    same cost. The batch engine keys its terminal-closure cache on it so
    tasks that share a weighting — e.g. every λ=0 task, or tasks whose
    explanation paths coincide — reuse each other's Dijkstra runs.

    ``slots`` is any float sequence indexable by edge slot (a plain list
    in the hot paths, an ``array``/numpy vector also works). When no
    signature is given, a fresh sentinel is substituted so a
    directly-constructed instance can never alias another cost surface
    in a cache; only producers that *know* two surfaces coincide (like
    the weighting's sorted boost list) pass an explicit shared signature.
    """

    slots: "list[float] | array"
    signature: tuple | None = None

    def __post_init__(self) -> None:
        if self.signature is None:
            object.__setattr__(self, "signature", ("anon", object()))

    @cached_property
    def vector(self):
        """``slots`` as a float64 numpy vector (converted once, cached)."""
        import numpy as np

        return np.asarray(self.slots, dtype=np.float64)

    @cached_property
    def min_cost(self) -> float:
        """The smallest slot cost (``inf`` for an edgeless graph).

        The bucket width of :func:`repro.graph.shortest_paths.
        closure_distances`; cached with :attr:`vector` so tasks that
        share one surface pay the O(|E|) scan once.
        """
        vector = self.vector
        return float(vector.min()) if vector.size else float("inf")


class FrozenGraph:
    """Immutable CSR adjacency compiled from a :class:`KnowledgeGraph`."""

    __slots__ = (
        "ids",
        "offsets",
        "targets",
        "weights",
        "version",
        "_index",
        "_source",
        "_traversal",
        "_unit",
        "_ranks",
        "__weakref__",
    )

    def __init__(
        self,
        ids: list[str],
        index: dict[str, int],
        offsets: "array | memoryview",
        targets: "array | memoryview",
        weights: "array | memoryview",
        version: int,
        source: "KnowledgeGraph | None" = None,
    ) -> None:
        # Arrays are stdlib ``array`` when compiled locally and int64 /
        # float64 ``memoryview`` casts over shared-memory buffers when
        # attached via :meth:`from_shared` — every consumer indexes,
        # slices or list()s them, which both types support identically.
        self.ids = ids
        self._index = index
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.version = version
        self._source = weakref.ref(source) if source is not None else None
        self._traversal: tuple[list, list, list] | None = None
        self._unit: list[float] | None = None
        self._ranks: list[int] | None = None

    @classmethod
    def from_knowledge_graph(cls, graph: "KnowledgeGraph") -> "FrozenGraph":
        """Compile ``graph`` into a frozen CSR view (O(|V| + |E|))."""
        ids = list(graph.nodes())
        index = {node: i for i, node in enumerate(ids)}
        offsets = array("q", [0]) * (len(ids) + 1)
        targets = array("q")
        weights = array("d")
        cursor = 0
        for i, node in enumerate(ids):
            neighbors = graph.neighbors(node)
            cursor += len(neighbors)
            offsets[i + 1] = cursor
            targets.extend(index[nb] for nb in neighbors)
            weights.extend(neighbors.values())
        return cls(
            ids, index, offsets, targets, weights, graph.version, graph
        )

    # ------------------------------------------------------------------
    # Interning and basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (half the directed slot count)."""
        return len(self.targets) // 2

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, node_id: str) -> int:
        """Dense index of a node id; KeyError if absent."""
        return self._index[node_id]

    def id_of(self, index: int) -> str:
        """Node id at a dense index."""
        return self.ids[index]

    def degree(self, index: int) -> int:
        """Number of incident edges of node ``index`` (O(1))."""
        return self.offsets[index + 1] - self.offsets[index]

    def neighbor_slots(self, index: int) -> range:
        """Slot range of node ``index`` (index into targets/weights)."""
        return range(self.offsets[index], self.offsets[index + 1])

    def neighbors(self, index: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor_index, stored_weight)`` pairs of a node."""
        targets, weights = self.targets, self.weights
        for slot in range(self.offsets[index], self.offsets[index + 1]):
            yield targets[slot], weights[slot]

    def edge_slot(self, source: str, target: str) -> int | None:
        """Directed slot of edge ``source -> target``; None if absent.

        Linear scan over the source row — rows average a few dozen slots
        and this is only used to patch per-task cost overrides, never in
        traversal inner loops.
        """
        u = self._index.get(source)
        v = self._index.get(target)
        if u is None or v is None:
            return None
        targets = self.targets
        for slot in range(self.offsets[u], self.offsets[u + 1]):
            if targets[slot] == v:
                return slot
        return None

    def string_ranks(self) -> list[int]:
        """``rank[i]`` = position of ``ids[i]`` in sorted id order.

        The dict-based algorithms orient undirected edges by comparing
        string ids (``u > v``, ``undirected_key``); the indexed twins
        compare these precomputed ranks instead — the same total order,
        one int comparison per edge. Cached per frozen view.
        """
        if self._ranks is None:
            ranks = [0] * len(self.ids)
            order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
            for rank, index in enumerate(order):
                ranks[index] = rank
            self._ranks = ranks
        return self._ranks

    def traversal_tables(self) -> tuple[list, list, list]:
        """``(offsets, targets, weights)`` as plain lists, lazily cached.

        List indexing returns pre-boxed objects where ``array`` indexing
        allocates on every access, which is worth ~15% in the Dijkstra
        inner loop; the compact arrays stay the canonical storage.
        """
        if self._traversal is None:
            self._traversal = (
                list(self.offsets),
                list(self.targets),
                list(self.weights),
            )
        return self._traversal

    # ------------------------------------------------------------------
    # Cost tables
    # ------------------------------------------------------------------
    def stored_costs(self) -> FrozenCosts:
        """The stored weights as traversal costs (shared, do not mutate)."""
        return FrozenCosts(
            self.traversal_tables()[2], signature=("stored", self.version)
        )

    def unit_costs(self) -> list[float]:
        """A fresh all-ones cost table (callers may patch entries)."""
        return self.shared_unit_costs().copy()

    def shared_unit_costs(self) -> list[float]:
        """The cached all-ones cost table (shared — do NOT mutate).

        The PCST growth traverses with pure unit costs on every task;
        sharing one table avoids an O(|E|) copy per task. Callers that
        patch entries must use :meth:`unit_costs` instead.
        """
        if self._unit is None:
            self._unit = [1.0] * len(self.targets)
        return self._unit

    def costs_from(self, cost_fn, signature: tuple | None = None) -> FrozenCosts:
        """Materialize ``cost_fn(u, v, stored) -> cost`` into slot costs.

        Validates non-negativity once at build time, so the traversals
        can skip the per-relaxation check the dict-based Dijkstra pays.

        ``signature`` lets callers who know two cost functions coincide
        share closure-cache entries; the default is unique per call (a
        fresh sentinel pinned by the returned object, so it can never
        alias another cost surface).
        """
        slots = list(self.weights)
        ids, targets = self.ids, self.targets
        for u, node in enumerate(ids):
            for slot in range(self.offsets[u], self.offsets[u + 1]):
                cost = cost_fn(node, ids[targets[slot]], slots[slot])
                if cost < 0:
                    raise ValueError(
                        f"negative cost {cost} on edge "
                        f"({node!r}, {ids[targets[slot]]!r}); "
                        "shift weights first"
                    )
                slots[slot] = cost
        if signature is None:
            signature = ("fn", object(), self.version)
        return FrozenCosts(slots, signature=signature)

    # ------------------------------------------------------------------
    # Staleness and interop
    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """True iff the source graph mutated after this view was built."""
        if self._source is None:
            return False
        source = self._source()
        return source is not None and source.version != self.version

    def to_numpy(self):
        """``(offsets, targets, weights)`` as zero-copy numpy views."""
        import numpy as np

        return (
            np.frombuffer(self.offsets, dtype=np.int64),
            np.frombuffer(self.targets, dtype=np.int64),
            np.frombuffer(self.weights, dtype=np.float64),
        )

    def to_shared(self):
        """Export this view into shared-memory blocks (one copy).

        Returns a :class:`repro.graph.shared.SharedGraphExport` whose
        picklable ``handle`` other processes pass to
        :meth:`from_shared` /
        :func:`repro.graph.shared.attach_knowledge_graph`. The caller
        owns the blocks: ``close()`` + ``unlink()`` (or use it as a
        context manager) when the consumers are done.
        """
        from repro.graph.shared import export_frozen

        return export_frozen(self)

    @classmethod
    def from_shared(cls, handle) -> "FrozenGraph":
        """Attach an exported view: arrays are zero-copy shared views.

        The attached view has no source graph (``is_stale()`` is always
        False) — staleness is the exporting process's concern. Blocks
        are auto-released at interpreter exit; call
        :func:`repro.graph.shared.detach_all` to release earlier.
        """
        from repro.graph.shared import attach_frozen

        frozen, _meta = attach_frozen(handle)
        return frozen
