"""StoreBackedClosureCache: read-through semantics and bit parity.

Two caches sharing one store stand in for two pool workers: what one
computes and publishes, the other must fetch — decoded to exactly the
``(dist, prev)`` a fresh local Dijkstra produces, settle order
included.
"""

import multiprocessing

from repro.cache import (
    ClosureStoreConfig,
    SharedClosureStore,
    StoreBackedClosureCache,
)
from repro.core.batch import TerminalClosureCache
from repro.graph.csr import FrozenCosts
from repro.graph.knowledge_graph import KnowledgeGraph


def small_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    graph.add_edge("u:0", "i:0", 5.0)
    graph.add_edge("u:0", "i:2", 3.0)
    graph.add_edge("u:1", "i:1", 4.0)
    graph.add_edge("i:0", "e:genre:0", 0.0, "genre")
    graph.add_edge("i:1", "e:genre:0", 0.0, "genre")
    graph.add_edge("i:2", "e:director:0", 0.0, "director")
    graph.add_edge("i:1", "e:director:0", 0.0, "director")
    return graph


def make_store() -> SharedClosureStore:
    return SharedClosureStore.create(
        ClosureStoreConfig(enabled=True, capacity_bytes=1 << 16),
        multiprocessing.get_context(),
    )


def unit_costs(frozen, signature=("unit",)) -> FrozenCosts:
    return FrozenCosts(
        list(frozen.shared_unit_costs()), signature=signature
    )


class TestClosureReadThrough:
    def test_publish_then_fetch_across_caches(self):
        frozen = small_graph().freeze()
        with make_store() as store:
            writer = StoreBackedClosureCache(64, store=store)
            reader = StoreBackedClosureCache(64, store=store)
            rest = {"i:1", "e:genre:0"}
            published = writer.pair_fn(frozen, unit_costs(frozen))(
                "u:0", rest
            )
            assert writer.misses == 1  # fresh compute + publish
            fetched = reader.pair_fn(frozen, unit_costs(frozen))(
                "u:0", rest
            )
            assert reader.store_hits == 1
            assert reader.misses == 0  # served without a local Dijkstra
            assert reader.hits == 1  # a usable fetch counts as a hit
            assert fetched == published
            # Settle (dict iteration) order is preserved exactly.
            assert list(fetched[0]) == list(published[0])
            assert list(fetched[1]) == list(published[1])

    def test_parity_with_plain_cache(self):
        frozen = small_graph().freeze()
        plain = TerminalClosureCache(64)
        rest = {"i:1", "e:genre:0"}
        expected = plain.pair_fn(frozen, unit_costs(frozen))("u:0", rest)
        with make_store() as store:
            writer = StoreBackedClosureCache(64, store=store)
            writer.pair_fn(frozen, unit_costs(frozen))("u:0", rest)
            reader = StoreBackedClosureCache(64, store=store)
            got = reader.pair_fn(frozen, unit_costs(frozen))("u:0", rest)
        assert got == expected
        assert list(got[0]) == list(expected[0])

    def test_opaque_signature_bypasses_store(self):
        frozen = small_graph().freeze()
        with make_store() as store:
            writer = StoreBackedClosureCache(64, store=store)
            # Anonymous surface: signature embeds an object() sentinel.
            anon = FrozenCosts(list(frozen.shared_unit_costs()))
            writer.pair_fn(frozen, anon)("u:0", {"i:0"})
            assert store.stats()["publishes"] == 0
            assert writer.store_hits == 0
            assert writer.store_misses == 0

    def test_shallow_entry_not_reused_for_wider_targets(self):
        frozen = small_graph().freeze()
        with make_store() as store:
            writer = StoreBackedClosureCache(64, store=store)
            writer.pair_fn(frozen, unit_costs(frozen))("u:0", {"i:0"})
            reader = StoreBackedClosureCache(64, store=store)
            # Every node reachable: the shallow run may not cover it.
            wide = set(frozen.ids)
            dist, _prev = reader.pair_fn(frozen, unit_costs(frozen))(
                "u:0", wide
            )
            assert wide <= dist.keys()  # correctness regardless of path

    def test_store_degrades_after_teardown(self):
        """A torn-down store mid-flight degrades to local compute."""
        frozen = small_graph().freeze()
        store = make_store()
        cache = StoreBackedClosureCache(64, store=store)
        store.close()
        store.unlink()
        dist, _prev = cache.pair_fn(frozen, unit_costs(frozen))(
            "u:0", {"i:0"}
        )
        assert "i:0" in dist
