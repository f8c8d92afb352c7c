"""Steiner Tree via the metric-closure / MST 2-approximation.

This is the paper's Algorithm 1 verbatim:

1. compute shortest paths between all pairs of terminals,
2. build the complete "metric closure" graph over the terminals whose edge
   weights are those shortest-path distances,
3. take its MST,
4. unfold every MST edge back into the underlying shortest path,
5. prune the union down to a tree.

Step 5 is implicit in the paper ("Initialize S <- MST_c ... replace with
shortest path"); unfolding can create cycles when shortest paths share
segments, so we finish with an MST pass over the unfolded edge set followed
by degree-1 pruning of non-terminals — both standard parts of the
Kou–Markowsky–Berman construction the paper cites, preserving the
2-approximation bound.

Complexity: O(|T| (|E| + |V| log |V|)) — one Dijkstra per terminal —
matching the bound stated in §IV-A.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.graph.csr import FrozenGraph
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mst import kruskal_mst
from repro.graph.shortest_paths import (
    CostFn,
    dijkstra,
    dijkstra_frozen,
    reconstruct_path,
)
from repro.graph.subgraph import edge_subgraph
from repro.graph.types import undirected_key

#: ``(source, rest) -> (dist, prev)`` closure hook: the batch engine
#: injects a memoizing implementation here (see repro.core.batch).
PairFn = Callable[[str, set[str]], tuple[dict[str, float], dict[str, str]]]


def canonical_shortest_path(
    graph: KnowledgeGraph,
    cost: CostFn,
    dist,
    source: str,
    target: str,
    prev: dict[str, str],
) -> list[str]:
    """Canonical-SPT path reconstruction from *final* distances.

    Walks backward from ``target``, at each node choosing the
    lexicographically smallest neighbor whose distance plus edge cost
    equals the node's distance exactly. The choice depends only on the
    distance surface, never on heap pop order — so the dict engine, the
    CSR engine, a cached or numpy-kernel closure, and a graph rebuilt
    with a different adjacency insertion order (say, one reloaded
    through the sorting :mod:`repro.graph.io` codec) all reconstruct
    the same path. Requires strictly positive costs (every true
    predecessor then settles strictly earlier, hence appears in
    ``dist`` even for early-exit runs).

    ``dist`` is the run's settled-distance mapping (anything with
    ``.get``). ``prev`` is the producing run's own predecessor map,
    used as a fallback: if no neighbor reproduces the stored distance
    bit-exactly (a cost function whose value differs in the last ulp
    from the per-slot cost the run used would miss equality), the path
    follows the run's recorded tree instead of failing.
    """
    dist_get = dist.get
    nodes = [target]
    node = target
    seen = {target}
    while node != source:
        d = dist_get(node)
        best = None
        if d is not None:
            for neighbor, stored in graph.neighbors(node).items():
                if neighbor in seen:
                    continue
                dn = dist_get(neighbor)
                if dn is None or dn >= d:
                    continue
                if dn + cost(neighbor, node, stored) == d and (
                    best is None or neighbor < best
                ):
                    best = neighbor
        if best is None:
            # Ulp guard: fall back to the run's own predecessor chain.
            # Restart from the target, so the fallback path is the run's
            # recorded path end to end rather than a splice of two rules.
            nodes = [target]
            node = target
            while node != source:
                node = prev[node]
                nodes.append(node)
            break
        nodes.append(best)
        seen.add(best)
        node = best
    nodes.reverse()
    return nodes


def _stored_cost(_u: str, _v: str, stored: float) -> float:
    return stored


def single_terminal_tree(
    graph: KnowledgeGraph, terminal: str
) -> KnowledgeGraph:
    """The degenerate 1-terminal Steiner tree: the bare node.

    Shared by :func:`steiner_tree` and
    :func:`repro.graph.mehlhorn.mehlhorn_steiner_tree` (all engines) so
    the single-terminal contract is identical everywhere — including the
    display name, which multi-terminal trees preserve via
    ``edge_subgraph`` and bare ``add_node`` used to drop.
    """
    only = KnowledgeGraph()
    only.add_node(terminal)
    name = graph.name(terminal)
    if name != terminal:
        only.set_name(terminal, name)
    return only


def steiner_tree(
    graph: KnowledgeGraph,
    terminals: Sequence[str],
    cost_fn: CostFn | None = None,
    *,
    frozen: FrozenGraph | None = None,
    slot_costs=None,
    pair_fn: PairFn | None = None,
    canonical: bool = False,
) -> KnowledgeGraph:
    """2-approximate minimum Steiner tree spanning ``terminals``.

    Parameters
    ----------
    graph:
        The (possibly reweighted) knowledge graph.
    terminals:
        Nodes that must appear in the tree. Terminals in different
        connected components raise ``ValueError`` (the problem definition
        requires a weakly connected summary).
    cost_fn:
        Optional ``(u, v, stored_weight) -> cost`` override; defaults to
        the stored weight. Costs must be non-negative.
    frozen, slot_costs:
        CSR fast path: a frozen view of ``graph`` plus per-slot costs
        that agree with ``cost_fn``. The metric-closure Dijkstras then
        run index-based; the result is identical to the dict path
        (ties included) because the indexed Dijkstra mirrors the
        dict-based one operation for operation.
    pair_fn:
        Full override of the closure computation — maps ``(source,
        rest)`` to ``(dist, prev)`` id-keyed maps. Used by the batch
        engine to memoize terminal-pair Dijkstras across tasks. ``dist``
        may cover a superset of a fresh early-exit run; only the
        ``rest`` entries and their predecessor chains are read.
    canonical:
        Reconstruct closure paths with :func:`canonical_shortest_path`
        (deterministic min-id predecessor choice from final distances)
        instead of the producing run's heap-order predecessor chains.
        Requires strictly positive costs. This makes the unfolded tree
        independent of heap tie-breaking — the same for both engines
        and for any adjacency insertion order, so only the distances a
        closure run settles decide the summary.
    """
    unique_terminals = list(dict.fromkeys(terminals))
    if not unique_terminals:
        return KnowledgeGraph()
    for terminal in unique_terminals:
        if terminal not in graph:
            raise KeyError(f"terminal {terminal!r} not in graph")
    if len(unique_terminals) == 1:
        return single_terminal_tree(graph, unique_terminals[0])

    if frozen is not None and frozen.is_stale():
        raise ValueError(
            "frozen view is stale; call graph.freeze() again"
        )

    # Steps 2-3: metric closure over terminals (one Dijkstra per terminal).
    terminal_set = set(unique_terminals)
    closure_cost = cost_fn or _stored_cost
    closure_edges: list[tuple[str, str, float]] = []
    shortest: dict[tuple[str, str], list[str]] = {}
    for index, source in enumerate(unique_terminals):
        later = unique_terminals[index + 1 :]
        if not later:
            break
        rest = set(later)
        if pair_fn is not None:
            dist, prev = pair_fn(source, rest)
        elif frozen is not None:
            dist, prev = dijkstra_frozen(
                frozen, source, costs=slot_costs, targets=rest
            )
        else:
            dist, prev = dijkstra(
                graph, source, cost_fn=cost_fn, targets=rest
            )
        # Iterate `later` (deterministic list), not `rest` (a str set
        # whose order follows PYTHONHASHSEED): the closure edge order
        # feeds Kruskal's stable tie-breaking, so set order here made
        # tied summaries differ between processes.
        for target in later:
            if target not in dist:
                raise ValueError(
                    f"terminals {source!r} and {target!r} are disconnected"
                )
            closure_edges.append((source, target, dist[target]))
            shortest[(source, target)] = (
                canonical_shortest_path(
                    graph, closure_cost, dist, source, target, prev
                )
                if canonical
                else reconstruct_path(prev, source, target)
            )

    # Step 7: MST of the metric closure.
    closure_mst = kruskal_mst(unique_terminals, closure_edges)

    # Steps 8-14: unfold MST edges into their underlying shortest paths.
    unfolded: dict[tuple[str, str], float] = {}
    for u, v, _ in closure_mst:
        path = shortest.get((u, v)) or list(reversed(shortest[(v, u)]))
        for a, b in zip(path, path[1:]):
            unfolded[undirected_key(a, b)] = graph.weight(a, b)

    # Cleanup: re-MST the unfolded union (removes cycles introduced by
    # overlapping shortest paths), then prune non-terminal leaves.
    nodes = sorted({n for key in unfolded for n in key})
    tree_edges = kruskal_mst(
        nodes,
        [(u, v, closure_cost(u, v, w)) for (u, v), w in unfolded.items()],
    )
    kept = {undirected_key(u, v) for u, v, _ in tree_edges}
    tree = edge_subgraph(graph, kept)
    _prune_non_terminal_leaves(tree, terminal_set)
    return tree


def _prune_non_terminal_leaves(
    tree: KnowledgeGraph, terminals: set[str]
) -> None:
    """Iteratively remove degree-1 nodes that are not terminals (in place)."""
    leaves = [
        n
        for n in list(tree.nodes())
        if tree.degree(n) <= 1 and n not in terminals
    ]
    while leaves:
        leaf = leaves.pop()
        if leaf not in tree or tree.degree(leaf) > 1:
            continue
        neighbors = list(tree.neighbors(leaf))
        tree.remove_node(leaf)
        for neighbor in neighbors:
            if tree.degree(neighbor) <= 1 and neighbor not in terminals:
                leaves.append(neighbor)
