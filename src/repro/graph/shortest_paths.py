"""Shortest-path primitives: Dijkstra (single/multi-source) and BFS.

The Steiner 2-approximation needs all-pairs shortest paths among the
terminal set; we provide single-source Dijkstra with predecessor tracking
plus an early-exit pairwise variant. Costs must be non-negative — the
summarizers guarantee this by affine-shifting the maximization weights
(see :mod:`repro.core.weighting`).

Every dict-based primitive has an index-based twin that runs on a
:class:`~repro.graph.csr.FrozenGraph` (``dijkstra_indexed``,
``bfs_distances_indexed``, ...). The indexed variants replicate the
dict-based control flow exactly — same neighbor order (CSR rows preserve
adjacency insertion order), same heap algorithm (:class:`IndexedHeap`
mirrors :class:`AddressableHeap`) — so they return identical distances
AND identical predecessor trees, ties included. ``dijkstra_frozen`` is
the drop-in id-keyed wrapper the Steiner machinery swaps in.

``closure_distances`` is the exception: a numpy Dijkstra (Dial's
buckets) for the ST metric-closure runs behind the batch engine's
cache. It matches the heap runs' distances bit for bit but not their
tie-breaking, so only canonical path reconstruction consumes it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from array import array

import numpy as np

from repro.graph.csr import FrozenCosts, FrozenGraph
from repro.graph.heap import AddressableHeap
from repro.graph.knowledge_graph import KnowledgeGraph

CostFn = Callable[[str, str, float], float]

_MINUS_ONE = array("q", [-1])


def array_of_minus_one(length: int) -> array:
    """A length-``length`` int64 array filled with -1 (sentinel tables)."""
    return _MINUS_ONE * length


def _unit_cost(_u: str, _v: str, _w: float) -> float:
    return 1.0


def _weight_cost(_u: str, _v: str, w: float) -> float:
    return w


def dijkstra(
    graph: KnowledgeGraph,
    source: str,
    cost_fn: CostFn | None = None,
    targets: set[str] | None = None,
) -> tuple[dict[str, float], dict[str, str]]:
    """Single-source shortest paths.

    Parameters
    ----------
    graph:
        The knowledge graph (traversed undirected).
    source:
        Start node.
    cost_fn:
        Maps ``(u, v, stored_weight) -> cost``; defaults to the stored
        weight. Must return non-negative costs.
    targets:
        Optional early-exit set: the search stops once every target has
        been settled.

    Returns
    -------
    (dist, prev):
        ``dist[v]`` is the cost of the shortest path to each reached node,
        ``prev[v]`` its predecessor on that path (absent for ``source``).
    """
    if source not in graph:
        raise KeyError(f"unknown source node {source!r}")
    cost = cost_fn or _weight_cost
    remaining = set(targets) if targets else None
    if remaining is not None:
        remaining.discard(source)

    dist: dict[str, float] = {}
    prev: dict[str, str] = {}
    heap: AddressableHeap[str] = AddressableHeap()
    heap.push(source, 0.0)
    tentative_prev: dict[str, str] = {}

    while heap:
        node, d = heap.pop_min()
        dist[node] = d
        if node in tentative_prev:
            prev[node] = tentative_prev[node]
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor, stored in graph.neighbors(node).items():
            if neighbor in dist:
                continue
            edge_cost = cost(node, neighbor, stored)
            if edge_cost < 0:
                raise ValueError(
                    f"negative cost {edge_cost} on edge "
                    f"({node!r}, {neighbor!r}); shift weights first"
                )
            candidate = d + edge_cost
            if heap.decrease_if_lower(neighbor, candidate):
                tentative_prev[neighbor] = node
    return dist, prev


def reconstruct_path(prev: dict[str, str], source: str, target: str) -> list[str]:
    """Rebuild the node sequence source..target from a predecessor map."""
    if target == source:
        return [source]
    if target not in prev:
        raise KeyError(f"no path recorded to {target!r}")
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(prev[nodes[-1]])
    nodes.reverse()
    return nodes


def shortest_path_between(
    graph: KnowledgeGraph,
    source: str,
    target: str,
    cost_fn: CostFn | None = None,
) -> tuple[list[str], float]:
    """Shortest path between two nodes; raises ValueError if disconnected."""
    dist, prev = dijkstra(graph, source, cost_fn=cost_fn, targets={target})
    if target not in dist:
        raise ValueError(f"{source!r} and {target!r} are disconnected")
    return reconstruct_path(prev, source, target), dist[target]


def dijkstra_multi_source(
    graph: KnowledgeGraph,
    sources: Iterable[str],
    cost_fn: CostFn | None = None,
) -> tuple[dict[str, float], dict[str, str], dict[str, str]]:
    """Dijkstra from a set of sources simultaneously.

    Returns ``(dist, prev, origin)`` where ``origin[v]`` is the source whose
    shortest-path tree reached ``v``. Used by the Steiner metric-closure
    construction (a Mehlhorn-style optimization: one multi-source run gives
    every node's nearest terminal).
    """
    cost = cost_fn or _weight_cost
    dist: dict[str, float] = {}
    prev: dict[str, str] = {}
    origin: dict[str, str] = {}
    heap: AddressableHeap[str] = AddressableHeap()
    tentative_prev: dict[str, str] = {}
    tentative_origin: dict[str, str] = {}

    for source in sources:
        if source not in graph:
            raise KeyError(f"unknown source node {source!r}")
        heap.update(source, 0.0)
        tentative_origin[source] = source

    while heap:
        node, d = heap.pop_min()
        dist[node] = d
        origin[node] = tentative_origin[node]
        if node in tentative_prev:
            prev[node] = tentative_prev[node]
        for neighbor, stored in graph.neighbors(node).items():
            if neighbor in dist:
                continue
            candidate = d + cost(node, neighbor, stored)
            if heap.decrease_if_lower(neighbor, candidate):
                tentative_prev[neighbor] = node
                tentative_origin[neighbor] = tentative_origin[node]
    return dist, prev, origin


def bfs_shortest_path(
    graph: KnowledgeGraph, source: str, target: str
) -> list[str] | None:
    """Fewest-hops path (unit costs), or None if disconnected."""
    if source not in graph or target not in graph:
        return None
    if source == target:
        return [source]
    prev: dict[str, str] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor in prev:
                    continue
                prev[neighbor] = node
                if neighbor == target:
                    nodes = [target]
                    while nodes[-1] != source:
                        nodes.append(prev[nodes[-1]])
                    nodes.reverse()
                    return nodes
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def bfs_distances(graph: KnowledgeGraph, source: str) -> dict[str, int]:
    """Hop distance to every reachable node."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in dist:
                    dist[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return dist


def bfs_eccentricity(
    graph: KnowledgeGraph, source: str
) -> tuple[int, int, int]:
    """(eccentricity, sum of distances, #reached-excluding-source).

    One pass used by :meth:`KnowledgeGraph.stats` to estimate average path
    length and diameter without materializing full distance maps.
    """
    dist = bfs_distances(graph, source)
    reached = len(dist) - 1
    if reached == 0:
        return 0, 0, 0
    ecc = max(dist.values())
    total = sum(dist.values())
    return ecc, total, reached

# ----------------------------------------------------------------------
# Index-based variants over a FrozenGraph (CSR backend)
# ----------------------------------------------------------------------
def _cost_slots(frozen: FrozenGraph, costs) -> "object":
    """Normalize a costs argument to a per-slot indexable of floats."""
    if costs is None:
        return frozen.traversal_tables()[2]
    if isinstance(costs, FrozenCosts):
        return costs.slots
    return costs


def dijkstra_indexed(
    frozen: FrozenGraph,
    source: int,
    costs=None,
    targets: set[int] | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths over the CSR view, by dense index.

    Parameters
    ----------
    frozen:
        The frozen CSR view.
    source:
        Dense index of the start node.
    costs:
        Per-slot costs: a :class:`~repro.graph.csr.FrozenCosts`, a raw
        array aligned with ``frozen.targets``, or None for the stored
        weights. Costs must be non-negative (not re-checked per
        relaxation here; build arrays via ``FrozenGraph.costs_from`` or
        the weighting's ``slot_costs`` to get validation).
    targets:
        Optional early-exit set of dense indices; indices outside
        ``[0, num_nodes)`` are allowed and simply never settle, matching
        the dict variant's behaviour for unknown target ids.

    Returns
    -------
    (dist, prev):
        Index-keyed equivalents of :func:`dijkstra`'s return value, with
        identical contents (and identical tie-breaking) for the same
        graph and costs.
    """
    num_nodes = frozen.num_nodes
    if not 0 <= source < num_nodes:
        raise KeyError(f"source index {source} out of range")
    slot_costs = _cost_slots(frozen, costs)
    remaining = set(targets) if targets else None
    if remaining is not None:
        remaining.discard(source)
    offsets, edge_targets, _ = frozen.traversal_tables()

    # The binary heap is inlined (it is the whole cost of this loop):
    # same sift algorithm as AddressableHeap/IndexedHeap, comparing only
    # priorities, so the settle order — tie-breaking included — matches
    # the dict-based dijkstra() exactly.
    settled = bytearray(num_nodes)
    settle_value = [0.0] * num_nodes
    parent = array_of_minus_one(num_nodes)
    heap_slot = array_of_minus_one(num_nodes)
    prios: list[float] = [0.0]
    keys: list[int] = [source]
    heap_slot[source] = 0
    settle_order: list[int] = []

    while keys:
        node = keys[0]
        d = prios[0]
        last_prio = prios.pop()
        last_key = keys.pop()
        heap_slot[node] = -1
        size = len(keys)
        if size:
            index = 0
            while True:
                child = 2 * index + 1
                if child >= size:
                    break
                right = child + 1
                if right < size and prios[right] < prios[child]:
                    child = right
                if prios[child] >= last_prio:
                    break
                prios[index] = prios[child]
                keys[index] = keys[child]
                heap_slot[keys[index]] = index
                index = child
            prios[index] = last_prio
            keys[index] = last_key
            heap_slot[last_key] = index

        settled[node] = 1
        settle_value[node] = d
        settle_order.append(node)
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        # zip over row slices, not range-indexing: a range boxes a fresh
        # int per slot while slices of the pre-boxed traversal lists do
        # not, which is both slightly faster and far cheaper under
        # allocation tracing (the Fig 9-11 tracemalloc probes). Same
        # iteration order.
        row_start = offsets[node]
        row_end = offsets[node + 1]
        for neighbor, edge_cost in zip(
            edge_targets[row_start:row_end], slot_costs[row_start:row_end]
        ):
            if settled[neighbor]:
                continue
            candidate = d + edge_cost
            index = heap_slot[neighbor]
            if index == -1:
                index = len(keys)
                prios.append(candidate)
                keys.append(neighbor)
            elif candidate < prios[index]:
                pass
            else:
                continue
            while index > 0:
                above = (index - 1) >> 1
                if prios[above] <= candidate:
                    break
                prios[index] = prios[above]
                keys[index] = keys[above]
                heap_slot[keys[index]] = index
                index = above
            prios[index] = candidate
            keys[index] = neighbor
            heap_slot[neighbor] = index
            parent[neighbor] = node

    dist: dict[int, float] = {}
    prev: dict[int, int] = {}
    for node in settle_order:
        dist[node] = settle_value[node]
        above = parent[node]
        if above != -1:
            prev[node] = above
    return dist, prev


def dijkstra_frozen(
    frozen: FrozenGraph,
    source: str,
    costs=None,
    targets: Iterable[str] | None = None,
) -> tuple[dict[str, float], dict[str, str]]:
    """:func:`dijkstra` drop-in running on a frozen view.

    Takes and returns node *ids*; internally runs
    :func:`dijkstra_indexed` and maps back. Unknown target ids (absent
    from the graph) suppress the early exit exactly like the dict
    variant, so disconnection is reported identically by callers.
    """
    if source not in frozen:
        raise KeyError(f"unknown source node {source!r}")
    target_indices: set[int] | None = None
    if targets:
        target_indices = set()
        missing = -1
        for target in targets:
            if target in frozen:
                target_indices.add(frozen.index_of(target))
            else:
                # Unsettleable sentinel (one per unknown id) keeps the
                # search exhaustive, mirroring the dict variant.
                target_indices.add(missing)
                missing -= 1
    dist, prev = dijkstra_indexed(
        frozen, frozen.index_of(source), costs=costs, targets=target_indices
    )
    ids = frozen.ids
    return (
        {ids[node]: d for node, d in dist.items()},
        {ids[node]: ids[parent] for node, parent in prev.items()},
    )


def closure_distances(
    frozen: FrozenGraph,
    source: int,
    costs=None,
    targets: Iterable[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact single-source distances by a bucketed (Dial) numpy Dijkstra.

    Δ-stepping (Meyer & Sanders, 2003) with Δ = the surface's smallest
    slot cost: each round settles every open node whose tentative
    distance is below ``min + Δ`` (or equals ``min``, which keeps
    zero-cost surfaces moving), relaxes all of their rows with one
    ``np.minimum.at`` and records a winning predecessor for every node
    a relaxation lands on. No later relaxation can undercut a node
    settled that way, so the result is the same fixpoint ``d[v] =
    min_u fl(d[u] + c(u, v))`` the heap Dijkstra computes: distances
    are bit-identical to :func:`dijkstra_indexed` on every node that
    run settles, and whole rounds settle a superset of its nodes. Only
    the predecessor choice among equal-cost routes differs, which
    canonical reconstruction never reads.

    ``costs`` takes the same forms as :func:`dijkstra_indexed`'s (a
    :class:`~repro.graph.csr.FrozenCosts` keeps its float64 vector and
    Δ cached); a negative cost raises ``ValueError``. The search stops
    after the round that settles the last of ``targets``; an index
    outside ``[0, num_nodes)`` never settles, so it keeps the search
    exhaustive, as does an empty or absent collection. Every node at
    most as far as the farthest target is settled by then, so the
    settled set contains the heap run's whatever its tie order; nodes
    the last round settles beyond that distance are left out of it.

    Returns ``(settled, dist, parent)``: the settled indices in round
    order (``source`` first), and dense per-node tables of tentative
    distances (final on settled nodes) and predecessors (-1 for none).
    """
    num_nodes = frozen.num_nodes
    if not 0 <= source < num_nodes:
        raise KeyError(f"source index {source} out of range")
    if not isinstance(costs, FrozenCosts):
        costs = FrozenCosts(frozen.weights if costs is None else costs)
    slot_costs, delta = costs.vector, costs.min_cost
    if delta < 0:
        raise ValueError(f"negative slot cost {delta}; shift weights first")
    offsets, edge_targets, _ = frozen.to_numpy()
    wanted = None
    if targets:
        wanted = np.fromiter(targets, dtype=np.int64)
        if ((wanted < 0) | (wanted >= num_nodes)).any():
            wanted = None  # an unsettleable target: search exhaustively

    dist = np.full(num_nodes, np.inf)
    parent = np.full(num_nodes, -1, dtype=np.int64)
    settled = np.zeros(num_nodes, dtype=bool)
    is_open = np.zeros(num_nodes, dtype=bool)  # reached, not settled
    dist[source] = 0.0
    is_open[source] = True
    rounds = []
    horizon = np.inf  # after a zero-width last round: the targets' level
    while True:
        frontier = np.flatnonzero(is_open)
        if not frontier.size:
            break
        tentative = dist[frontier]
        low = tentative.min()
        if low > horizon:
            break
        done = frontier[(tentative < low + delta) | (tentative == low)]
        is_open[done] = False
        settled[done] = True
        rounds.append(done)
        if wanted is not None and settled[wanted].all():
            if low + delta > low:
                break  # everything up to the targets' distance is settled
            # A zero-width round (zero-cost slots): nodes tied at ``low``
            # may still sit behind zero-cost edges; settle them too.
            horizon = low
        starts = offsets[done]
        counts = offsets[done + 1] - starts
        total = int(counts.sum())
        if not total:
            continue
        # Every slot of every settled row, row by row.
        slots = np.arange(total) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )
        tails = edge_targets[slots]
        keep = np.flatnonzero(~settled[tails])
        slots, tails = slots[keep], tails[keep]
        heads = np.repeat(done, counts)[keep]
        candidate = dist[heads] + slot_costs[slots]
        np.minimum.at(dist, tails, candidate)
        # Any relaxation that lands on the new minimum is a valid
        # predecessor: its head is settled, the tail settles later.
        won = candidate == dist[tails]
        parent[tails[won]] = heads[won]
        is_open[tails] = True
    settled_order = np.concatenate(rounds)
    if wanted is not None and settled[wanted].all():
        farthest = dist[wanted].max()
        settled_order = settled_order[dist[settled_order] <= farthest]
    return settled_order, dist, parent


def dijkstra_multi_source_indexed(
    frozen: FrozenGraph,
    sources: Iterable[int],
    costs=None,
) -> tuple[dict[int, float], dict[int, int], dict[int, int]]:
    """:func:`dijkstra_multi_source` over the CSR view, by dense index.

    Returns ``(dist, prev, origin)`` — index-keyed equivalents of the
    dict variant's return value, with identical contents and identical
    tie-breaking for the same graph and costs: the sources are seeded in
    the given order and the inlined heap replays the exact sift algorithm
    of :class:`~repro.graph.heap.AddressableHeap`, so the settle order
    (ties included), the predecessor tree and the Voronoi ``origin``
    labels all match. This is the single sweep Mehlhorn's closure rides
    on (``mehlhorn_steiner_tree_indexed`` consumes the raw tables via
    :func:`multi_source_tables` to skip the dict round-trip).
    """
    settle_order, settle_value, parent, origin_of = multi_source_tables(
        frozen, sources, costs=costs
    )
    dist: dict[int, float] = {}
    prev: dict[int, int] = {}
    origin: dict[int, int] = {}
    for node in settle_order:
        dist[node] = settle_value[node]
        origin[node] = origin_of[node]
        above = parent[node]
        if above != -1:
            prev[node] = above
    return dist, prev, origin


def multi_source_tables(
    frozen: FrozenGraph,
    sources: Iterable[int],
    costs=None,
) -> tuple[list[int], list[float], array, array]:
    """Raw tables of the multi-source sweep (the Mehlhorn hot path).

    Returns ``(settle_order, settle_value, parent, origin)`` where the
    latter three are dense per-node tables (``parent``/``origin`` hold
    -1 for unreached nodes) and ``settle_order`` lists settled indices
    in pop order — the iteration order the dict variant's result dicts
    would have.
    """
    num_nodes = frozen.num_nodes
    slot_costs = _cost_slots(frozen, costs)
    offsets, edge_targets, _ = frozen.traversal_tables()

    settled = bytearray(num_nodes)
    settle_value = [0.0] * num_nodes
    parent = array_of_minus_one(num_nodes)
    origin_of = array_of_minus_one(num_nodes)
    heap_slot = array_of_minus_one(num_nodes)
    prios: list[float] = []
    keys: list[int] = []
    settle_order: list[int] = []

    # Seed every source at priority 0.0 in the given order — equal
    # priorities sift to insertion order, exactly like the dict
    # variant's AddressableHeap.update() loop.
    for source in sources:
        if not 0 <= source < num_nodes:
            raise KeyError(f"source index {source} out of range")
        if heap_slot[source] != -1:
            continue
        index = len(keys)
        prios.append(0.0)
        keys.append(source)
        heap_slot[source] = index
        origin_of[source] = source
        while index > 0:
            above = (index - 1) >> 1
            if prios[above] <= 0.0:
                break
            prios[index] = prios[above]
            keys[index] = keys[above]
            heap_slot[keys[index]] = index
            index = above
        prios[index] = 0.0
        keys[index] = source
        heap_slot[source] = index

    while keys:
        node = keys[0]
        d = prios[0]
        last_prio = prios.pop()
        last_key = keys.pop()
        heap_slot[node] = -1
        size = len(keys)
        if size:
            index = 0
            while True:
                child = 2 * index + 1
                if child >= size:
                    break
                right = child + 1
                if right < size and prios[right] < prios[child]:
                    child = right
                if prios[child] >= last_prio:
                    break
                prios[index] = prios[child]
                keys[index] = keys[child]
                heap_slot[keys[index]] = index
                index = child
            prios[index] = last_prio
            keys[index] = last_key
            heap_slot[last_key] = index

        settled[node] = 1
        settle_value[node] = d
        settle_order.append(node)
        node_origin = origin_of[node]
        # Row slices + zip for the same reason as dijkstra_indexed: no
        # per-slot int boxing, same iteration order.
        row_start = offsets[node]
        row_end = offsets[node + 1]
        for neighbor, edge_cost in zip(
            edge_targets[row_start:row_end], slot_costs[row_start:row_end]
        ):
            if settled[neighbor]:
                continue
            candidate = d + edge_cost
            index = heap_slot[neighbor]
            if index == -1:
                index = len(keys)
                prios.append(candidate)
                keys.append(neighbor)
            elif candidate < prios[index]:
                pass
            else:
                continue
            while index > 0:
                above = (index - 1) >> 1
                if prios[above] <= candidate:
                    break
                prios[index] = prios[above]
                keys[index] = keys[above]
                heap_slot[keys[index]] = index
                index = above
            prios[index] = candidate
            keys[index] = neighbor
            heap_slot[neighbor] = index
            parent[neighbor] = node
            origin_of[neighbor] = node_origin

    return settle_order, settle_value, parent, origin_of


def dijkstra_multi_source_frozen(
    frozen: FrozenGraph,
    sources: Iterable[str],
    costs=None,
) -> tuple[dict[str, float], dict[str, str], dict[str, str]]:
    """:func:`dijkstra_multi_source` drop-in running on a frozen view.

    Takes and returns node *ids*; internally runs
    :func:`dijkstra_multi_source_indexed` and maps back.
    """
    source_indices = []
    for source in sources:
        if source not in frozen:
            raise KeyError(f"unknown source node {source!r}")
        source_indices.append(frozen.index_of(source))
    dist, prev, origin = dijkstra_multi_source_indexed(
        frozen, source_indices, costs=costs
    )
    ids = frozen.ids
    return (
        {ids[node]: d for node, d in dist.items()},
        {ids[node]: ids[parent] for node, parent in prev.items()},
        {ids[node]: ids[label] for node, label in origin.items()},
    )


def bfs_distances_indexed(
    frozen: FrozenGraph, source: int
) -> dict[int, int]:
    """Hop distance to every reachable node, by dense index."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    offsets, edge_targets, _ = frozen.traversal_tables()
    while frontier:
        depth += 1
        next_frontier: list[int] = []
        for node in frontier:
            for slot in range(offsets[node], offsets[node + 1]):
                neighbor = edge_targets[slot]
                if neighbor not in dist:
                    dist[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return dist


def bfs_eccentricity_indexed(
    frozen: FrozenGraph, source: int
) -> tuple[int, int, int]:
    """Index-based :func:`bfs_eccentricity` (same return value)."""
    dist = bfs_distances_indexed(frozen, source)
    reached = len(dist) - 1
    if reached == 0:
        return 0, 0, 0
    return max(dist.values()), sum(dist.values()), reached
