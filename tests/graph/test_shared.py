"""Shared-memory graph plane: export/attach roundtrip, lifecycle, spawn."""

import multiprocessing
import os

import pytest

from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.csr import FrozenGraph
from repro.graph.shared import (
    attach_frozen,
    attach_knowledge_graph,
    detach_all,
    export_frozen,
    inherited_knowledge_graph,
)
from repro.graph.shortest_paths import dijkstra, dijkstra_frozen


def _shm_tokens() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # macOS/Windows back shm elsewhere
        pytest.skip("no /dev/shm on this platform")
    return {n for n in os.listdir("/dev/shm") if n.startswith("rxg")}


@pytest.fixture()
def graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    graph.add_edge("u:0", "i:0", 5.0)
    graph.add_edge("u:0", "i:2", 3.0)
    graph.add_edge("u:1", "i:1", 4.0)
    graph.add_edge("i:0", "e:genre:0", 0.0, "genre")
    graph.add_edge("i:1", "e:genre:0", 0.0, "genre")
    graph.add_edge("i:2", "e:director:0", 0.0, "director")
    graph.set_name("i:0", "Movie Zero")
    return graph


@pytest.fixture()
def export(graph):
    export = graph.freeze().to_shared()
    yield export
    detach_all()
    export.close()
    export.unlink()


class TestRoundtrip:
    def test_attached_frozen_matches_source(self, graph, export):
        frozen = graph.freeze()
        attached = FrozenGraph.from_shared(export.handle)
        assert attached.ids == frozen.ids
        assert list(attached.offsets) == list(frozen.offsets)
        assert list(attached.targets) == list(frozen.targets)
        assert list(attached.weights) == list(frozen.weights)
        assert attached.version == frozen.version
        assert attached.string_ranks() == frozen.string_ranks()
        assert not attached.is_stale()

    def test_attached_traversal_is_bit_identical(self, graph, export):
        attached = FrozenGraph.from_shared(export.handle)
        dict_dist, dict_prev = dijkstra(graph, "u:0")
        dist, prev = dijkstra_frozen(attached, "u:0")
        assert dist == dict_dist
        assert prev == dict_prev

    def test_rebuilt_knowledge_graph_is_equivalent(self, graph, export):
        rebuilt = attach_knowledge_graph(export.handle)
        assert list(rebuilt.nodes()) == list(graph.nodes())
        for node in graph.nodes():
            assert dict(rebuilt.neighbors(node)) == dict(
                graph.neighbors(node)
            )
        assert rebuilt.num_edges == graph.num_edges
        assert rebuilt.relation("i:0", "e:genre:0") == "genre"
        assert rebuilt.name("i:0") == "Movie Zero"
        assert rebuilt.version == graph.version

    def test_rebuilt_graph_freeze_is_prebound(self, graph, export):
        rebuilt = attach_knowledge_graph(export.handle)
        frozen = rebuilt.freeze()
        assert frozen is rebuilt.freeze()  # no recompilation
        assert isinstance(frozen.offsets, memoryview)

    def test_detached_export_has_empty_side_tables(self, graph):
        frozen = graph.freeze()
        detached = FrozenGraph(
            frozen.ids,
            {n: i for i, n in enumerate(frozen.ids)},
            frozen.offsets,
            frozen.targets,
            frozen.weights,
            frozen.version,
        )
        with export_frozen(detached) as export:
            rebuilt = attach_knowledge_graph(export.handle)
            assert rebuilt.relation("i:0", "e:genre:0") == ""
            assert rebuilt.name("i:0") == "i:0"
            detach_all()


class TestLifecycle:
    def test_unlink_removes_blocks(self, graph):
        before = _shm_tokens()
        export = graph.freeze().to_shared()
        created = _shm_tokens() - before
        assert len(created) == 5  # offsets/targets/weights/ranks/meta
        export.close()
        export.unlink()
        assert _shm_tokens() == before

    def test_context_manager_unlinks_on_error(self, graph):
        before = _shm_tokens()
        with pytest.raises(RuntimeError):
            with graph.freeze().to_shared():
                raise RuntimeError("boom")
        assert _shm_tokens() == before

    def test_unlink_is_idempotent(self, graph):
        export = graph.freeze().to_shared()
        export.close()
        export.unlink()
        export.unlink()  # second unlink must not raise

    def test_attach_after_unlink_raises(self, graph):
        export = graph.freeze().to_shared()
        export.close()
        export.unlink()
        with pytest.raises(FileNotFoundError):
            attach_frozen(export.handle)


def _spawn_probe(handle, queue) -> None:
    """Spawn-target: attach, traverse, ship the results back."""
    from repro.graph.shared import attach_knowledge_graph
    from repro.graph.shortest_paths import dijkstra_frozen

    rebuilt = attach_knowledge_graph(handle)
    dist, prev = dijkstra_frozen(rebuilt.freeze(), "u:0")
    queue.put(
        (
            dist,
            prev,
            rebuilt.relation("i:0", "e:genre:0"),
            rebuilt.name("i:0"),
        )
    )


class TestSpawnSmoke:
    def test_spawned_process_attaches_and_detaches(self, graph):
        """The full worker lifecycle under the spawn start method:
        attach by name, traverse bit-identically, exit without leaking
        or unlinking blocks the parent still owns."""
        before = _shm_tokens()
        context = multiprocessing.get_context("spawn")
        export = graph.freeze().to_shared()
        try:
            queue = context.Queue()
            child = context.Process(
                target=_spawn_probe, args=(export.handle, queue)
            )
            child.start()
            dist, prev, relation, name = queue.get(timeout=120)
            child.join(timeout=120)
            assert child.exitcode == 0
            expected_dist, expected_prev = dijkstra(graph, "u:0")
            assert dist == expected_dist
            assert prev == expected_prev
            assert relation == "genre"
            assert name == "Movie Zero"
            # The child's exit must not have unlinked the blocks.
            attached = FrozenGraph.from_shared(export.handle)
            assert attached.ids == graph.freeze().ids
            detach_all()
        finally:
            export.close()
            export.unlink()
        assert _shm_tokens() == before


def _inherit_probe(handle, expected, queue) -> None:
    """Child target: did it get the exporter's graph object back?"""
    graph = inherited_knowledge_graph(handle)
    queue.put("none" if graph is None else graph is expected)


def _inherits(context_name, handle, graph):
    context = multiprocessing.get_context(context_name)
    queue = context.Queue()
    child = context.Process(
        target=_inherit_probe, args=(handle, graph, queue)
    )
    child.start()
    outcome = queue.get(timeout=120)
    child.join(timeout=120)
    assert child.exitcode == 0
    return outcome


@pytest.fixture()
def fork_only():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")


class TestForkInheritance:
    def test_exporter_gets_none(self, graph, export):
        assert inherited_knowledge_graph(export.handle) is None

    def test_forked_child_reuses_the_exporters_graph(
        self, graph, export, fork_only
    ):
        assert _inherits("fork", export.handle, graph) is True

    def test_forked_child_after_mutation_gets_none(
        self, graph, export, fork_only
    ):
        graph.add_edge("u:1", "i:2", 1.0)
        assert _inherits("fork", export.handle, graph) == "none"

    def test_forked_child_after_unlink_gets_none(self, graph, fork_only):
        export = graph.freeze().to_shared()
        export.close()
        export.unlink()
        assert _inherits("fork", export.handle, graph) == "none"

    def test_spawned_child_gets_none(self, graph, export):
        # A spawned child cannot receive the graph itself (nor need it).
        assert _inherits("spawn", export.handle, None) == "none"
