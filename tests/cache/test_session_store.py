"""Shared closure store through the session, server and process pools.

The acceptance contract of the cross-worker store:

- summaries are **bit-identical** with the store on vs. off, on both
  backends;
- ``SessionStats`` surfaces the store counters, and the process
  backend sees real cross-worker hits;
- no ``/dev/shm`` residue after teardown, invalidation, or ``kill -9``
  of the owning process (the resource tracker unlinks on its behalf);
- eviction under concurrent dispatch (two overlapping ``stream()``
  batches against a deliberately tiny slab) stays correct;
- the network server reports store counters through ``stats`` and
  ``health``.
"""

import glob
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ClosureStoreConfig,
    ExplanationSession,
    ParallelConfig,
)
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.generators import SyntheticSpec, generate_random_kg
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path as GraphPath

SRC = Path(__file__).resolve().parents[2] / "src"

STORE = ClosureStoreConfig(enabled=True, capacity_bytes=1 << 20)


def synthetic_graph(total_nodes: int = 300) -> KnowledgeGraph:
    spec = SyntheticSpec(total_nodes, edges_per_node=6.0)
    return generate_random_kg(spec, np.random.default_rng(11))


def shared_tasks(graph: KnowledgeGraph, count: int) -> list[SummaryTask]:
    """Tasks over one hot terminal set (λ boost empty → one signature)."""
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    items = sorted(n for n in graph.nodes() if n.startswith("i:"))
    tasks = []
    for i in range(count):
        group = (users[i % 8], users[(i + 1) % 8])
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_GROUP,
                terminals=(*group, *items[:3]),
                paths=(),
                anchors=tuple(items[:3]),
                focus=group,
            )
        )
    return tasks


def boosted_tasks(graph: KnowledgeGraph, count: int) -> list[SummaryTask]:
    """λ>0 tasks with boost paths: per-task cost signatures."""
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    tasks = []
    for i in range(count):
        user = users[i % 6]
        neighbors = sorted(graph.neighbors(user))[:2]
        if not neighbors:
            continue
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *neighbors),
                paths=tuple(
                    GraphPath(nodes=(user, item)) for item in neighbors
                ),
                anchors=tuple(neighbors),
                focus=(user,),
            )
        )
    assert tasks
    return tasks


def canonical(report) -> list:
    out = []
    for result in report.results:
        assert result.failure is None, result.failure
        subgraph = result.explanation.subgraph
        out.append(
            (
                list(subgraph.nodes()),
                sorted(
                    (e.source, e.target, e.weight)
                    for e in subgraph.edges()
                ),
            )
        )
    return out


def run_session(graph, tasks, *, store, backend) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        session = ExplanationSession(
            graph,
            parallel=ParallelConfig(backend=backend, workers=2),
            store=store,
        )
        with session:
            report = session.run(tasks)
            stats = session.stats
            return canonical(report), report, stats


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("task_maker", [shared_tasks, boosted_tasks])
    def test_store_on_matches_store_off(self, backend, task_maker):
        graph = synthetic_graph()
        tasks = task_maker(graph, 12)
        baseline, _report, _stats = run_session(
            graph, tasks, store=None, backend=backend
        )
        stored, report, stats = run_session(
            graph, tasks, store=STORE, backend=backend
        )
        assert stored == baseline
        # The store was really in play, not silently disabled.
        assert stats.store_hits + stats.store_misses > 0
        assert report.store_hits + report.store_misses > 0


class TestStats:
    def test_process_workers_share_work(self):
        graph = synthetic_graph()
        tasks = shared_tasks(graph, 16)
        _c, report, stats = run_session(
            graph,
            tasks,
            store=STORE,
            backend="processes",
        )
        assert report.store_hits > 0  # a sibling's run was reused
        assert stats.store_hits > 0
        assert stats.store_bytes > 0
        assert stats.cache_line() is not None

    def test_store_stats_live_and_none_when_off(self):
        graph = synthetic_graph()
        tasks = shared_tasks(graph, 4)
        with ExplanationSession(graph, store=STORE) as session:
            session.run(tasks)
            live = session.store_stats()
            assert live is not None
            assert live["publishes"] > 0
            assert 0 < live["bytes_used"] <= live["capacity_bytes"]
        with ExplanationSession(graph) as session:
            session.run(tasks)
            assert session.store_stats() is None

    def test_report_summary_mentions_store(self):
        graph = synthetic_graph()
        tasks = shared_tasks(graph, 8)
        _c, report, _s = run_session(
            graph,
            tasks,
            store=STORE,
            backend="processes",
        )
        assert "store" in report.summary()


class TestHygiene:
    def shm_tokens(self) -> set:
        return set(glob.glob("/dev/shm/rxc*"))

    def test_close_removes_blocks(self):
        graph = synthetic_graph(120)
        before = self.shm_tokens()
        session = ExplanationSession(graph, store=STORE)
        session.run(shared_tasks(graph, 4))
        assert self.shm_tokens() - before  # store blocks live
        session.close()
        assert self.shm_tokens() <= before

    def test_mutation_rebuilds_store(self):
        graph = synthetic_graph(120)
        before = self.shm_tokens()
        with ExplanationSession(graph, store=STORE) as session:
            session.run(shared_tasks(graph, 4))
            first = self.shm_tokens() - before
            assert first
            graph.add_edge("u:0", "i:9999", 3.0)
            session.run(shared_tasks(graph, 4))
            second = self.shm_tokens() - before
            assert second and not (second & first)  # fresh blocks
            assert session.stats.invalidations == 1
        assert self.shm_tokens() <= before

    def test_pool_release_keeps_store_warm(self):
        graph = synthetic_graph(120)
        with ExplanationSession(graph, store=STORE) as session:
            session.run(shared_tasks(graph, 4))
            tokens = self.shm_tokens()
            session.release_pool()
            assert self.shm_tokens() == tokens  # store survives
            session.run(shared_tasks(graph, 4))

    def test_kill_dash_nine_leaves_no_residue(self, tmp_path):
        """The resource tracker unlinks the blocks of a SIGKILLed owner."""
        script = tmp_path / "owner.py"
        script.write_text(
            "import time\n"
            "import numpy as np\n"
            "from repro.api import ClosureStoreConfig, ExplanationSession\n"
            "from repro.core.scenarios import Scenario, SummaryTask\n"
            "from repro.graph.generators import ("
            "SyntheticSpec, generate_random_kg)\n"
            "graph = generate_random_kg("
            "SyntheticSpec(120, edges_per_node=6.0), "
            "np.random.default_rng(11))\n"
            "users = sorted(n for n in graph.nodes()"
            " if n.startswith('u:'))\n"
            "items = sorted(n for n in graph.nodes()"
            " if n.startswith('i:'))\n"
            "task = SummaryTask(scenario=Scenario.USER_GROUP, "
            "terminals=(users[0], users[1], *items[:3]), paths=(), "
            "anchors=tuple(items[:3]), focus=(users[0], users[1]))\n"
            "session = ExplanationSession(graph, store=ClosureStoreConfig("
            "enabled=True, capacity_bytes=1 << 20))\n"
            "session.run([task, task])\n"
            "print(session._store.handle.token, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            token = proc.stdout.readline().strip()
            assert token.startswith("rxc"), token
            assert glob.glob(f"/dev/shm/{token}*")  # blocks exist
            proc.kill()  # SIGKILL: no atexit, no __del__, nothing
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        # The killed interpreter's resource tracker outlives it briefly
        # and unlinks everything still registered.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if not glob.glob(f"/dev/shm/{token}*"):
                break
            time.sleep(0.1)
        assert not glob.glob(f"/dev/shm/{token}*")


class TestEvictionUnderDispatch:
    def test_overlapping_streams_with_tiny_store(self):
        """Two interleaved stream() batches against a slab far too
        small for the working set: constant eviction churn, zero wrong
        answers."""
        graph = synthetic_graph()
        tasks = shared_tasks(graph, 10) + boosted_tasks(graph, 6)
        baseline, _r, _s = run_session(
            graph,
            tasks,
            store=None,
            backend="processes",
        )
        tiny = ClosureStoreConfig(
            enabled=True,
            capacity_bytes=8192,
            directory_slots=64,
            stripes=4,
            admission="admit-all",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            session = ExplanationSession(
                graph,
                parallel=ParallelConfig(backend="processes", workers=2),
                store=tiny,
            )
            with session:
                first = session.stream(tasks)
                second = session.stream(tasks)
                results = {}
                for stream, bucket in ((first, {}), (second, {})):
                    results[id(stream)] = bucket
                    for result in stream:
                        assert result.failure is None
                        bucket[result.index] = result
                live = session.store_stats()
                assert live is not None
                assert live["bytes_used"] <= live["capacity_bytes"]
                for bucket in results.values():
                    assert sorted(bucket) == list(range(len(tasks)))
                    got = [
                        (
                            list(r.explanation.subgraph.nodes()),
                            sorted(
                                (e.source, e.target, e.weight)
                                for e in r.explanation.subgraph.edges()
                            ),
                        )
                        for _i, r in sorted(bucket.items())
                    ]
                    assert got == baseline


class TestServerIntegration:
    def test_stats_and_health_expose_store(self):
        from repro.serving.client import ExplanationClient
        from repro.serving.server import ExplanationServer, ServerThread

        graph = synthetic_graph(120)
        tasks = shared_tasks(graph, 4)
        server = ExplanationServer(graph, store=STORE)
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                report = client.run(tasks)
                assert report.store_hits + report.store_misses > 0
                stats = client.stats()
                assert stats["store"] is not None
                assert stats["store"]["publishes"] > 0
                assert stats["session"]["store_misses"] > 0
                health = client.health()
                info = health["graphs"]["default"]
                assert info["store"]["capacity_bytes"] == (
                    stats["store"]["capacity_bytes"]
                )

    def test_stats_store_none_when_disabled(self):
        from repro.serving.client import ExplanationClient
        from repro.serving.server import ExplanationServer, ServerThread

        graph = synthetic_graph(120)
        server = ExplanationServer(graph)
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                client.run(shared_tasks(graph, 2))
                assert client.stats()["store"] is None
                info = client.health()["graphs"]["default"]
                assert "store" not in info
