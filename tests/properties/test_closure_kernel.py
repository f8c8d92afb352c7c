"""Property suite: the numpy closure kernel against the heap Dijkstras.

``closure_distances`` may settle more nodes than the heap runs (whole
rounds at once) and may pick a different predecessor among equal-cost
routes, but it must agree bit for bit on every distance they settle:

- distances equal on every node ``dijkstra_indexed`` (and the dict
  ``dijkstra``) settles;
- its settled set contains theirs;
- its predecessor map is a valid shortest-path tree;
- a negative cost surface raises.

Graphs are small, multi-component and tie-heavy: integer weights in
0..3 (zero-cost edges included), so equal-cost routes are the norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import FrozenCosts
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.shortest_paths import (
    closure_distances,
    dijkstra,
    dijkstra_indexed,
)

#: (kind, a, b, weight): kind 0 links u:a-i:b, kind 1 links i:a-e:g:b.
edge_lists = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 3),
    ),
    max_size=24,
)

STORED = None
UNIFORM = lambda u, v, w: 1.0
RATING = lambda u, v, w: 1.0 / (1.0 + w)
cost_fns = st.sampled_from([STORED, UNIFORM, RATING])


def build(edges) -> KnowledgeGraph:
    """A graph from drawn edges; never empty (u:0 is always present)."""
    graph = KnowledgeGraph()
    graph.add_node("u:0")
    for kind, a, b, weight in edges:
        if kind == 0:
            graph.add_edge(f"u:{a}", f"i:{b}", float(weight))
        else:
            graph.add_edge(f"i:{a}", f"e:g:{b}", float(weight), "g")
    return graph


def check_against_heap(graph, cost_fn, source, targets):
    """Run every kernel from ``source``; assert the suite's properties."""
    frozen = graph.freeze()
    if cost_fn is None:
        costs = FrozenCosts(list(frozen.weights))
    else:
        costs = frozen.costs_from(cost_fn)
    index_of = frozen.index_of
    target_indices = [index_of(t) if t in frozen else -1 for t in targets]

    settled, dist, parent = closure_distances(
        frozen, index_of(source), costs, target_indices
    )
    heap_dist, _ = dijkstra_indexed(
        frozen, index_of(source), costs, set(target_indices)
    )
    dict_dist, _ = dijkstra(
        graph, source, cost_fn=cost_fn, targets=set(targets)
    )
    ids = frozen.ids
    assert {ids[node]: d for node, d in heap_dist.items()} == dict_dist

    in_kernel = np.zeros(frozen.num_nodes, dtype=bool)
    in_kernel[settled] = True
    assert len(settled) == int(in_kernel.sum())  # each node settles once
    for node, d in heap_dist.items():
        assert in_kernel[node], ids[node]
        assert dist[node] == d, ids[node]  # bit-equal, ties and all

    # Valid shortest-path tree: every settled non-source node points at
    # a settled neighbour whose distance plus the slot cost is exact,
    # and following the pointers reaches the source.
    slots = costs.slots
    for node in settled.tolist():
        if node == index_of(source):
            assert parent[node] == -1
            continue
        above = int(parent[node])
        assert above >= 0 and in_kernel[above]
        slot = frozen.edge_slot(ids[above], ids[node])
        assert slot is not None
        assert dist[above] + slots[slot] == dist[node]
        hops, walk = 0, node
        while walk != index_of(source):
            walk = int(parent[walk])
            hops += 1
            assert hops <= frozen.num_nodes
    return settled, dist


class TestClosureKernel:
    @given(edge_lists, cost_fns, st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_heap_runs_with_early_exit(self, edges, cost_fn, data):
        graph = build(edges)
        nodes = sorted(graph.nodes())
        source = data.draw(st.sampled_from(nodes))
        targets = data.draw(st.sets(st.sampled_from(nodes), max_size=4))
        check_against_heap(graph, cost_fn, source, targets)

    @given(edge_lists, cost_fns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_settle_matches(self, edges, cost_fn, data):
        """No targets: the whole component settles, nothing else."""
        graph = build(edges)
        source = data.draw(st.sampled_from(sorted(graph.nodes())))
        settled, _ = check_against_heap(graph, cost_fn, source, set())
        assert len(settled) == len(dijkstra(graph, source)[0])

    @given(edge_lists, cost_fns, st.data())
    @settings(max_examples=60, deadline=None)
    def test_unknown_and_unreachable_targets_search_exhaustively(
        self, edges, cost_fn, data
    ):
        graph = build(edges)
        graph.add_node("e:g:99")  # an isolated node: never reachable
        source = data.draw(st.sampled_from(sorted(graph.nodes())))
        component = len(dijkstra(graph, source)[0])
        for targets in ({"e:g:99"}, {"u:404"}):
            if source in targets:
                continue
            settled, _ = check_against_heap(graph, cost_fn, source, targets)
            assert len(settled) == component

    def test_single_node_graph(self):
        graph = KnowledgeGraph()
        graph.add_node("u:0")
        settled, dist = check_against_heap(graph, None, "u:0", {"u:0"})
        assert settled.tolist() == [0] and dist[0] == 0.0

    def test_zero_cost_ties_settle_the_whole_level(self):
        """u:0 -0- i:0 -0- e:g:0 and u:0 -0- i:1: a target at distance
        0 leaves every other distance-0 node settled too."""
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 0.0)
        graph.add_edge("i:0", "e:g:0", 0.0, "g")
        graph.add_edge("u:0", "i:1", 0.0)
        graph.add_edge("i:1", "u:1", 2.0)
        settled, _ = check_against_heap(graph, None, "u:0", {"i:1"})
        frozen = graph.freeze()
        assert sorted(frozen.ids[n] for n in settled.tolist()) == [
            "e:g:0", "i:0", "i:1", "u:0",
        ]

    def test_negative_surface_raises(self):
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 1.0)
        graph.add_edge("u:1", "i:0", -1.0)
        frozen = graph.freeze()
        with pytest.raises(ValueError, match="negative"):
            closure_distances(frozen, 0)
        with pytest.raises(ValueError, match="negative"):
            closure_distances(frozen, 0, FrozenCosts([1.0, -0.5, 1.0, 1.0]))

    def test_unknown_source_raises(self):
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 1.0)
        with pytest.raises(KeyError):
            closure_distances(graph.freeze(), 7)
