"""Lifecycle, durability wiring, hygiene, and the idle-shrink ticker.

The acceptance contract for this layer (ISSUE 8):

- ``health`` answers liveness/readiness/draining with per-graph depth
  and counters — even while the server drains;
- a server hosted with ``state_dir=`` journals every acked mutation
  and recovers it bit-identically after a restart (including the
  in-process ``kill-server`` fault, which aborts without flushing);
- ``request_stop`` + ``stop(drain=True)`` finish in-flight streams
  with zero dropped results while new requests get typed
  ``shutting-down`` frames within 0.5s;
- connection hygiene: idle-read timeout hangs up on mute peers, the
  max-connections bound rejects the excess connection with a typed
  frame;
- the client treats ``shutting-down`` exactly like ``overloaded``:
  seeded backoff, ``retry_after_ms`` floor, deadline ceiling;
- a bare in-process session shrinks its idle work-stealing pool in
  the background, between dispatches, per ``shrink_idle_seconds``.
"""

import socket
import threading
import time

import pytest

from repro.api import (
    ExplanationSession,
    MethodSpec,
    ParallelConfig,
    SchedulerConfig,
    SummaryRequest,
    register_method,
    unregister_method,
)
from repro.api import protocol
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.serving.client import (
    ExplanationClient,
    ServerError,
    ShuttingDownError,
)
from repro.serving.config import JournalConfig
from repro.serving.faults import Fault, FaultPlan
from repro.serving.frames import (
    MAX_FRAME_BYTES,
    get_codec,
    read_frame,
    write_frame,
)
from repro.serving.server import (
    ExplanationServer,
    ServerConfig,
    ServerThread,
)

class _Sleepy:
    def __init__(self, graph):
        self.graph = graph

    def summarize(self, task):
        from repro.core.explanation import SubgraphExplanation

        time.sleep((task.k - 10) / 10.0)
        subgraph = KnowledgeGraph()
        subgraph.add_node(task.terminals[0])
        return SubgraphExplanation(
            subgraph=subgraph, task=task, method="Sleepy"
        )


@pytest.fixture()
def sleepy_method():
    register_method(
        MethodSpec(
            name="sleepy",
            legacy_name="Sleepy",
            builder=lambda graph, config, cache: _Sleepy(graph),
            uses_traversal=False,
        )
    )
    try:
        yield
    finally:
        unregister_method("sleepy")


def _sleepy_request(tenths: int) -> SummaryRequest:
    return SummaryRequest(
        task=SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0",),
            paths=(),
            anchors=(),
            focus=(),
            k=10 + tenths,
        ),
        method="sleepy",
    )


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------
class TestHealth:
    def test_schema_on_fresh_server(self, toy_graph):
        with ServerThread(ExplanationServer(toy_graph)) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                health = client.health()
        assert health["status"] == "ok"
        assert health["live"] is True
        assert health["ready"] is True
        assert health["draining"] is False
        assert health["durable"] is False
        assert health["connections"] >= 1
        default = health["graphs"]["default"]
        assert default["pending"] == 0
        assert default["version"] == toy_graph.version
        # No session was ever created, so no resilience counters yet.
        assert "resilience" not in default
        assert "journal" not in default

    def test_resilience_counters_appear_after_work(self, test_bench):
        task = next(
            iter(test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values())
        )
        with ServerThread(ExplanationServer(test_bench.graph)) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                client.explain(task)
                health = client.health()
        resilience = health["graphs"]["default"]["resilience"]
        assert resilience == {
            "worker_deaths": 0,
            "task_retries": 0,
            "task_timeouts": 0,
            "local_fallbacks": 0,
        }

    def test_durable_server_reports_journal(self, toy_graph, tmp_path):
        server = ExplanationServer(toy_graph, state_dir=tmp_path)
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                client.add_edge("u:0", "i:9", 2.0)
                health = client.health()
        assert health["durable"] is True
        journal = health["graphs"]["default"]["journal"]
        assert journal["journal_records"] == 1
        assert journal["replayed_records"] == 0
        assert journal["version"] == toy_graph.version


# ----------------------------------------------------------------------
# Durability wiring (journal <-> server <-> restart)
# ----------------------------------------------------------------------
class TestDurableServer:
    def test_mutations_survive_restart(self, toy_graph, tmp_path):
        server = ExplanationServer(toy_graph, state_dir=tmp_path)
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                client.add_edge("u:0", "i:9", 2.0)
                version = client.set_weight("u:0", "i:0", 8.0)
        # Restart against the same state_dir with a decoy seed: the
        # durable state is authoritative, the seed is ignored.
        decoy = KnowledgeGraph()
        decoy.add_edge("u:7", "i:7", 1.0)
        reborn = ExplanationServer(decoy, state_dir=tmp_path)
        with ServerThread(reborn) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                health = client.health()
        default = health["graphs"]["default"]
        assert default["version"] == version
        assert default["journal"]["replayed_records"] == 2

    def test_compact_rpc_folds_journal(self, toy_graph, tmp_path):
        server = ExplanationServer(
            toy_graph, state_dir=tmp_path, journal=JournalConfig()
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                client.add_edge("u:0", "i:9", 2.0)
                client.add_edge("u:1", "i:9", 1.0)
                stats = client.compact()
        assert stats["journal_records"] == 0
        assert stats["compactions"] == 1
        # The snapshot now owns everything: restart replays nothing.
        reborn = ExplanationServer(KnowledgeGraph(), state_dir=tmp_path)
        with ServerThread(reborn) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                journal = client.health()["graphs"]["default"]["journal"]
        assert journal["replayed_records"] == 0
        assert journal["version"] == stats["version"]

    def test_compact_without_state_dir_is_typed(self, toy_graph):
        with ServerThread(ExplanationServer(toy_graph)) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.compact()
        assert excinfo.value.code == "bad-request"

    def test_kill_server_fault_loses_nothing_acked(
        self, toy_graph, tmp_path
    ):
        """The in-process kill -9: acked mutations survive the abort."""
        plan = FaultPlan(faults=(Fault(kind="kill-server", at=0),))
        server = ExplanationServer(
            toy_graph, state_dir=tmp_path, loop_faults=plan
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                version = client.add_edge("u:0", "i:9", 2.0)
                # The first workload request hard-aborts the server:
                # socket and journal handles dropped, no flush, no
                # farewell frame — the client sees a dead connection.
                with pytest.raises((ServerError, OSError)):
                    client.run([_task_over_toy()])
            assert server.draining  # aborted servers admit nothing
        reborn = ExplanationServer(KnowledgeGraph(), state_dir=tmp_path)
        with ServerThread(reborn) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                default = client.health()["graphs"]["default"]
        assert default["version"] == version
        assert default["journal"]["replayed_records"] == 1


def _task_over_toy() -> SummaryTask:
    return SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=("u:0", "i:0"),
        paths=(),
        anchors=("i:0",),
        focus=("u:0",),
    )


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_streams_and_refuses_new_work(
        self, sleepy_method
    ):
        """Zero dropped results: a stream caught mid-flight by a drain
        still delivers every frame, while new requests are refused with
        a typed ``shutting-down`` answer within 0.5s."""
        # Serial dispatch in order: two instant results, then a 0.5s
        # sleeper that is still computing when the drain starts.
        requests = [_sleepy_request(0)] * 2 + [_sleepy_request(5)]
        server = ExplanationServer(
            KnowledgeGraph(),
            parallel=ParallelConfig(backend="serial"),
        )
        with ServerThread(server) as thread:
            results: list = []
            errors: list = []
            first_frame = threading.Event()

            def consume() -> None:
                try:
                    with ExplanationClient("127.0.0.1", thread.port) as c:
                        for result in c.stream(requests):
                            results.append(result)
                            first_frame.set()
                except BaseException as error:
                    errors.append(error)
                    first_frame.set()

            consumer = threading.Thread(target=consume)
            consumer.start()
            assert first_frame.wait(timeout=30)
            thread.request_stop()  # the stream is now mid-flight
            # New work: typed refusal, fast.
            with ExplanationClient("127.0.0.1", thread.port) as c:
                start = time.monotonic()
                with pytest.raises(ShuttingDownError) as excinfo:
                    c.explain(_sleepy_request(0))
                assert time.monotonic() - start < 0.5
                assert excinfo.value.retry_after_ms == 100.0
                # Health still answers while draining.
                health = c.health()
            assert health["status"] == "draining"
            assert health["ready"] is False
            assert health["live"] is True
            consumer.join(timeout=30)
            assert not errors, errors
            assert sorted(r.index for r in results) == [0, 1, 2]
            thread.stop(drain=True)
        with pytest.raises(OSError):
            with ExplanationClient(
                "127.0.0.1", thread.port, reconnect=False
            ) as c:
                c.ping()

    def test_drain_flushes_journal(self, toy_graph, tmp_path):
        server = ExplanationServer(
            toy_graph,
            state_dir=tmp_path,
            journal=JournalConfig(fsync="never"),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                version = client.add_edge("u:0", "i:9", 2.0)
            thread.stop(drain=True)
        reborn = ExplanationServer(KnowledgeGraph(), state_dir=tmp_path)
        with ServerThread(reborn) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                default = client.health()["graphs"]["default"]
        assert default["version"] == version


# ----------------------------------------------------------------------
# Connection hygiene
# ----------------------------------------------------------------------
class TestConnectionHygiene:
    def test_idle_timeout_hangs_up_on_mute_peer(self, toy_graph):
        server = ExplanationServer(
            toy_graph, ServerConfig(idle_timeout_seconds=0.2)
        )
        with ServerThread(server) as thread:
            with socket.create_connection(
                ("127.0.0.1", thread.port), timeout=5.0
            ) as mute:
                mute.settimeout(5.0)
                # Send nothing: the server must hang up, not wait.
                assert mute.recv(1) == b""

    def test_active_connection_survives_idle_timeout(self, toy_graph):
        server = ExplanationServer(
            toy_graph, ServerConfig(idle_timeout_seconds=0.3)
        )
        with ServerThread(server) as thread:
            with ExplanationClient(
                "127.0.0.1", thread.port, reconnect=False
            ) as client:
                for _ in range(3):
                    assert client.ping() == ["default"]
                    time.sleep(0.1)  # always under the idle bound

    def test_max_connections_rejects_typed(self, toy_graph):
        server = ExplanationServer(
            toy_graph, ServerConfig(max_connections=1)
        )
        with ServerThread(server) as thread:
            with ExplanationClient(
                "127.0.0.1", thread.port, reconnect=False
            ) as holder:
                holder.ping()  # dials: occupies the single slot
                with ExplanationClient(
                    "127.0.0.1", thread.port, reconnect=False
                ) as excess:
                    with pytest.raises(ServerError) as excinfo:
                        excess.ping()
                assert excinfo.value.code == "too-many-connections"
            assert server.connections_rejected == 1


# ----------------------------------------------------------------------
# Client retry semantics for shutting-down
# ----------------------------------------------------------------------
class _ScriptedServer(threading.Thread):
    """One-connection fake server: a scripted reply per request.

    Replies are frame dicts; the literal string ``"pong"`` answers
    with a pong envelope. The last reply repeats forever.
    """

    def __init__(self, replies: list) -> None:
        super().__init__(daemon=True)
        self._replies = replies
        self._codec = get_codec("json")
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.requests = 0
        self.start()

    def run(self) -> None:
        conn, _ = self._listener.accept()
        with conn:
            while True:
                try:
                    read_frame(conn, MAX_FRAME_BYTES)
                except Exception:
                    return
                index = min(self.requests, len(self._replies) - 1)
                self.requests += 1
                reply = self._replies[index]
                if reply == "pong":
                    reply = protocol.envelope(
                        "pong", {"graphs": ["default"]}
                    )
                write_frame(
                    conn, self._codec.encode(reply), MAX_FRAME_BYTES
                )

    def close(self) -> None:
        self._listener.close()


def _shutting_down_frame(retry_after_ms: float) -> dict:
    return protocol.error_frame(
        "shutting-down",
        "server is draining",
        retry_after_ms=retry_after_ms,
    )


class TestClientShuttingDownRetry:
    def test_fail_fast_raises_typed_with_hint(self):
        fake = _ScriptedServer([_shutting_down_frame(25)])
        try:
            with ExplanationClient("127.0.0.1", fake.port) as client:
                with pytest.raises(ShuttingDownError) as excinfo:
                    client.ping()
            assert excinfo.value.retry_after_ms == 25.0
        finally:
            fake.close()

    def test_backoff_absorbs_drain_window(self):
        """Same seeded backoff as overload: one refusal, then success."""
        fake = _ScriptedServer([_shutting_down_frame(80), "pong"])
        try:
            with ExplanationClient(
                "127.0.0.1",
                fake.port,
                retries=3,
                backoff_base_seconds=0.001,
                backoff_seed=7,
            ) as client:
                start = time.monotonic()
                assert client.ping() == ["default"]
                elapsed = time.monotonic() - start
            # The sleep is floored at the server's retry_after_ms hint.
            assert elapsed >= 0.08
            assert fake.requests == 2
        finally:
            fake.close()

    def test_deadline_caps_the_retry_loop(self):
        """A retry whose floored sleep would cross the deadline is
        refused: the typed error propagates instead of a late retry."""
        fake = _ScriptedServer([_shutting_down_frame(500)])
        try:
            with ExplanationClient(
                "127.0.0.1",
                fake.port,
                retries=5,
                backoff_base_seconds=0.001,
                backoff_seed=7,
            ) as client:
                start = time.monotonic()
                with pytest.raises(ShuttingDownError):
                    client.run([_task_over_toy()], deadline=0.2)
                assert time.monotonic() - start < 0.5
            assert fake.requests == 1
        finally:
            fake.close()


# ----------------------------------------------------------------------
# Background idle shrink for bare sessions
# ----------------------------------------------------------------------
class TestIdleShrinkTicker:
    def test_pool_shrinks_between_dispatches(self, test_bench):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:4]
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            scheduler=SchedulerConfig(
                min_workers=1, max_workers=2, shrink_idle_seconds=0.2
            ),
        ) as session:
            session.run(tasks)
            pool = session._steal_pool
            assert pool is not None and pool.size == 2
            # No further dispatch: the background ticker alone must
            # retire the idle worker down to min_workers. The ticker
            # retires the worker and credits stats.shrinks in two steps
            # under the pool gate, so read both under it too.
            deadline = time.monotonic() + 10.0
            while True:
                with session._pool_gate:
                    size, shrinks_observed = pool.size, session.stats.shrinks
                if size == 1 or time.monotonic() >= deadline:
                    break
                time.sleep(0.05)
            assert size == 1
            assert shrinks_observed >= 1
            # The next dispatch still works on the shrunken pool, and
            # absorbing its counters must not double-count the
            # ticker's shrink.
            report = session.run(tasks)
            assert all(r.failure is None for r in report.results)
            assert session.stats.shrinks == shrinks_observed

    def test_ticker_off_when_disabled(self, test_bench):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:2]
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            scheduler=SchedulerConfig(
                min_workers=1, max_workers=2, shrink_idle_seconds=0.0
            ),
        ) as session:
            session.run(tasks)
            assert session._ticker is None
            time.sleep(0.3)
            assert session._steal_pool.size == 2
            assert session.stats.shrinks == 0
