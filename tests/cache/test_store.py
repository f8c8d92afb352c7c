"""SharedClosureStore: directory, eviction, admission, attachment."""

import glob
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.cache import ClosureStoreConfig, SharedClosureStore
from repro.cache.store import closure_store_key, store_digest


def make_store(**overrides) -> SharedClosureStore:
    defaults = dict(
        enabled=True,
        capacity_bytes=4096,
        directory_slots=64,
        stripes=4,
        sketch_width=64,
    )
    defaults.update(overrides)
    config = ClosureStoreConfig(**defaults)
    return SharedClosureStore.create(
        config, multiprocessing.get_context()
    )


def digest_of(tag: str) -> bytes:
    return store_digest(b"test:" + tag.encode())


class TestRoundTrip:
    def test_put_then_get(self):
        with make_store() as store:
            digest = digest_of("a")
            assert store.get(digest) is None
            assert store.put(digest, b"payload-bytes", ndist=3)
            assert store.get(digest) == b"payload-bytes"

    def test_counters_track_operations(self):
        with make_store() as store:
            digest = digest_of("a")
            store.get(digest)
            store.put(digest, b"x" * 20, ndist=1)
            store.get(digest)
            stats = store.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["publishes"] == 1
            assert stats["entries"] == 1
            assert stats["bytes_used"] > 0

    def test_replace_only_if_more_settled(self):
        with make_store() as store:
            digest = digest_of("a")
            assert store.put(digest, b"first", ndist=5)
            # Same or fewer settled nodes: the incumbent stays.
            assert not store.put(digest, b"second", ndist=5)
            assert store.get(digest) == b"first"
            # Strictly more settled: replaced in place.
            assert store.put(digest, b"third", ndist=6)
            assert store.get(digest) == b"third"

    def test_oversized_payload_rejected(self):
        with make_store(capacity_bytes=4096) as store:
            assert not store.put(digest_of("big"), b"x" * 3000, ndist=1)

    def test_attach_sees_parent_writes(self):
        store = make_store()
        try:
            digest = digest_of("shared")
            store.put(digest, b"from-parent", ndist=1)
            view = SharedClosureStore.attach(store.handle)
            assert view.get(digest) == b"from-parent"
            view.put(digest_of("back"), b"from-view", ndist=1)
            assert store.get(digest_of("back")) == b"from-view"
            view.close()
        finally:
            store.close()
            store.unlink()


class TestEviction:
    def test_capacity_pressure_evicts(self):
        with make_store(capacity_bytes=4096, admission="admit-all") as store:
            for i in range(12):
                assert store.put(
                    digest_of(f"k{i}"), bytes(500), ndist=i + 1
                )
            stats = store.stats()
            assert stats["evictions"] > 0
            # Occupancy stays within capacity.
            assert stats["bytes_used"] <= stats["capacity_bytes"]

    def test_attach_after_eviction_is_safe(self):
        """A reader holding an attachment across evictions never sees
        recycled bytes: get() copies under the stripe lock."""
        store = make_store(capacity_bytes=4096, admission="admit-all")
        try:
            view = SharedClosureStore.attach(store.handle)
            survivor = digest_of("keep")
            store.put(survivor, b"S" * 400, ndist=99)
            for i in range(16):
                store.put(digest_of(f"churn{i}"), bytes(400), ndist=1)
            payload = view.get(survivor)
            assert payload in (None, b"S" * 400)  # evicted or intact
            view.close()
        finally:
            store.close()
            store.unlink()

    def test_tinylfu_protects_popular_entries(self):
        with make_store(capacity_bytes=4096, admission="tinylfu") as store:
            hot = digest_of("hot")
            store.put(hot, b"H" * 400, ndist=50)
            for _ in range(12):
                store.get(hot)  # poll the sketch
            # A stream of one-off newcomers needing the hot entry's
            # space: the strictly-greater gate sides with the incumbent.
            rejected = 0
            for i in range(10):
                if not store.put(
                    digest_of(f"cold{i}"), bytes(900), ndist=1
                ):
                    rejected += 1
            assert store.get(hot) == b"H" * 400
            assert rejected > 0
            assert store.stats()["rejections"] > 0

    def test_admit_all_always_displaces(self):
        with make_store(capacity_bytes=4096, admission="admit-all") as store:
            hot = digest_of("hot")
            store.put(hot, b"H" * 1500, ndist=50)
            for _ in range(12):
                store.get(hot)
            for i in range(6):
                assert store.put(
                    digest_of(f"cold{i}"), bytes(1000), ndist=1
                )
            assert store.stats()["rejections"] == 0


class TestLifecycle:
    def test_close_unlink_removes_blocks(self):
        store = make_store()
        names = store.handle.block_names()
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
        store.close()
        store.unlink()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_no_rxc_residue_after_context_exit(self):
        before = set(glob.glob("/dev/shm/rxc*"))
        with make_store() as store:
            token = store.handle.token
        after = set(glob.glob("/dev/shm/rxc*"))
        assert not {p for p in after - before if token in p}


class TestCanonicalKeys:
    def test_opaque_signature_tokens_bypass(self):
        assert closure_store_key(1, "u:0", (object(),)) is None
        assert (
            closure_store_key(1, "u:0", ((("x", object()),),)) is None
        )

    def test_encodable_signatures_key_stably(self):
        key = closure_store_key(
            3, "u:0", (("i:1", 2.5), ("i:2", 1), True, None)
        )
        assert key is not None
        assert key == closure_store_key(
            3, "u:0", (("i:1", 2.5), ("i:2", 1), True, None)
        )
        assert key != closure_store_key(
            4, "u:0", (("i:1", 2.5), ("i:2", 1), True, None)
        )

    @pytest.mark.parametrize("seed", ["0", "1", "424242"])
    def test_digests_independent_of_hash_seed(self, seed):
        """Spawn workers inherit no hash seed; digests must not care."""
        script = (
            "from repro.cache.store import closure_store_key, "
            "store_digest\n"
            "key = closure_store_key(7, 'u:3', (('i:1', 2.0), 'rel'))\n"
            "print(store_digest(key).hex())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        key = closure_store_key(7, "u:3", (("i:1", 2.0), "rel"))
        assert out == [store_digest(key).hex()]
