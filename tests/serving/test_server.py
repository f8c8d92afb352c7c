"""The network front door: parity, streaming, admission, resilience.

The acceptance contract for :mod:`repro.serving.server`:

- a client over TCP gets summaries bit-identical to an in-process
  ``ExplanationSession`` — across all four methods and both
  backends;
- ``stream`` frames arrive per task, the moment the scheduler yields
  each result — not after the whole batch;
- past the admission bound the server answers with a typed
  ``overloaded`` error frame immediately instead of queueing without
  bound;
- transport/protocol violations (oversized frame, truncated frame,
  malformed JSON, unknown version/kind/graph) produce typed error
  frames or a clean close, never a hang;
- the client reconnects transparently after a server restart;
- mutation RPCs invalidate the server-side session exactly like
  in-process graph edits;
- the idle reaper releases pooled resources after the TTL and the
  session rebuilds them on the next request.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.api import (
    ExplanationSession,
    MethodSpec,
    ParallelConfig,
    SummaryRequest,
    register_method,
    unregister_method,
)
from repro.api import protocol
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.serving import Fault, FaultPlan
from repro.serving.client import (
    ExplanationClient,
    OverloadedError,
    ServerError,
)
from repro.serving.frames import read_frame, write_frame
from repro.serving.server import (
    ExplanationServer,
    ServerConfig,
    ServerThread,
)


def assert_same_summary(got, want):
    """Bit-identity for results that crossed the wire (task by value)."""
    g, w = got.subgraph, want.subgraph
    assert list(g.nodes()) == list(w.nodes())
    for node in w.nodes():
        assert list(g.neighbors(node).items()) == (
            list(w.neighbors(node).items())
        ), node
    assert list(g._names.items()) == list(w._names.items())
    assert list(g._relations.items()) == list(w._relations.items())
    assert g.num_edges == w.num_edges
    assert g.version == w.version
    assert got.method == want.method
    assert got.params == want.params
    assert got.task == want.task


@pytest.fixture(scope="module")
def mixed_requests(test_bench):
    """Two tasks per method: methods x tasks in one batch."""
    tasks = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values()
    )[:2]
    return [
        SummaryRequest(task=task, method=method)
        for method in ("st", "st-fast", "pcst", "union")
        for task in tasks
    ]


@pytest.fixture(scope="module")
def serial_reference(test_bench, mixed_requests):
    with ExplanationSession(test_bench.graph) as session:
        return session.run(mixed_requests)


@pytest.fixture(scope="module")
def server(test_bench):
    with ServerThread(ExplanationServer(test_bench.graph)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ExplanationClient("127.0.0.1", server.port) as c:
        yield c


class TestBasics:
    def test_ping_and_methods(self, client):
        assert client.ping() == ["default"]
        methods = client.methods()
        assert {"st", "st-fast", "pcst", "union"} <= set(methods)

    def test_unknown_graph_is_typed(self, server):
        with ExplanationClient(
            "127.0.0.1", server.port, graph="no-such-graph"
        ) as c:
            with pytest.raises(ServerError) as excinfo:
                c.stats()
            assert excinfo.value.code == "unknown-graph"

    def test_stats_counts_frames(self, client, test_bench):
        task = next(
            iter(test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values())
        )
        client.explain(task)
        stats = client.stats()
        assert stats["server"]["frames_in"] >= 2
        assert stats["session"]["tasks"] >= 1
        assert stats["pending"] == 0


class TestParity:
    """TCP results == in-process results, bit for bit."""

    def test_explain_all_methods(self, client, test_bench, mixed_requests):
        for request in mixed_requests:
            with ExplanationSession(test_bench.graph) as session:
                want = session.explain(request)
            got = client.explain(request)
            assert_same_summary(got, want)
            # Same task *object*: the client decodes against the task
            # it sent, so identity survives the round trip.
            assert got.task is request.task

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_run_and_stream_parity(
        self, backend, test_bench, mixed_requests, serial_reference
    ):
        server = ExplanationServer(
            test_bench.graph,
            parallel=ParallelConfig(backend=backend, workers=2),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                report = client.run(mixed_requests)
                streamed = sorted(
                    client.stream(mixed_requests), key=lambda r: r.index
                )
        assert report.parallel == backend
        if backend != "serial":
            assert report.scheduler == "work-stealing"
        assert len(report.results) == len(mixed_requests)
        for want, got in zip(serial_reference.results, report.results):
            assert got.index == want.index
            assert_same_summary(got.explanation, want.explanation)
        for want, got in zip(serial_reference.results, streamed):
            assert got.index == want.index
            assert_same_summary(got.explanation, want.explanation)

    def test_report_survives_the_wire_losslessly(
        self, client, mixed_requests, serial_reference
    ):
        # The server session is warm (shared across this module), so
        # cache counters differ from a cold reference — but the report
        # decodes with every field populated and the same results.
        report = client.run(mixed_requests)
        assert report.method == serial_reference.method
        assert report.parallel == serial_reference.parallel
        assert report.total_seconds > 0
        assert report.cache_hits + report.cache_misses >= 0
        assert len(report.results) == len(serial_reference.results)
        for want, got in zip(serial_reference.results, report.results):
            assert_same_summary(got.explanation, want.explanation)


class _Sleepy:
    """Test summarizer: delay smuggled through ``task.k`` (k - 10)/10."""

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


class TestStreaming:
    def test_results_arrive_per_task_not_per_batch(self, test_bench):
        """The first frame lands while a slow task is still asleep.

        Two pool workers, four tasks; a fault plan delays task 0 by 1s
        inside its worker. With per-task framing the other three
        results arrive while task 0 is still sleeping; per-batch
        framing would hold everything for >= 1s.
        """
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:4]
        server = ExplanationServer(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            faults=FaultPlan(faults=(Fault(kind="delay", at=0, seconds=1.0),)),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                # Warm the session (freeze, export, pool spawn) first,
                # so the timed stream measures framing alone.
                client.run(tasks)
                start = time.monotonic()
                arrivals = [
                    (result.index, time.monotonic() - start)
                    for result in client.stream(tasks)
                ]
        order = [index for index, _ in arrivals]
        assert sorted(order) == [0, 1, 2, 3]
        assert order[-1] == 0  # the sleeper finishes last...
        first_elapsed = arrivals[0][1]
        assert first_elapsed < 0.5, (
            f"first frame took {first_elapsed:.3f}s — results were "
            "batched, not streamed per task"
        )

    def test_concurrent_clients_interleave_bit_identical(
        self, server, test_bench, mixed_requests, serial_reference
    ):
        """Two clients streaming at once don't corrupt each other."""
        outputs: dict[str, list] = {}
        errors: list = []

        def consume(name: str) -> None:
            try:
                with ExplanationClient("127.0.0.1", server.port) as c:
                    outputs[name] = sorted(
                        c.stream(mixed_requests), key=lambda r: r.index
                    )
            except BaseException as error:  # surfaced in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=consume, args=(name,))
            for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for name in ("a", "b"):
            results = outputs[name]
            assert len(results) == len(mixed_requests)
            for want, got in zip(serial_reference.results, results):
                assert got.index == want.index
                assert_same_summary(got.explanation, want.explanation)


class TestAdmissionControl:
    def test_overload_returns_typed_frame_immediately(self, sleepy_method):
        server = ExplanationServer(
            KnowledgeGraph(), ServerConfig(max_pending=1)
        )
        with ServerThread(server) as thread:
            busy_done = threading.Event()

            def occupy() -> None:
                with ExplanationClient("127.0.0.1", thread.port) as c:
                    c.explain(_sleepy_request(10))  # holds the slot 1s
                busy_done.set()

            occupier = threading.Thread(target=occupy)
            occupier.start()
            try:
                deadline = time.monotonic() + 5.0
                with ExplanationClient("127.0.0.1", thread.port) as c:
                    # Wait until the slow request is actually admitted.
                    while c.stats()["pending"] == 0:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    start = time.monotonic()
                    with pytest.raises(OverloadedError) as excinfo:
                        c.explain(_sleepy_request(0))
                    elapsed = time.monotonic() - start
                assert excinfo.value.code == "overloaded"
                # Rejected up front — not after the in-flight request.
                assert elapsed < 0.5, f"overload answer took {elapsed:.2f}s"
            finally:
                occupier.join(timeout=30)
            assert busy_done.is_set()
            assert server.rejected >= 1

    def test_slot_frees_after_completion(self, sleepy_method):
        server = ExplanationServer(
            KnowledgeGraph(), ServerConfig(max_pending=1)
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as c:
                c.explain(_sleepy_request(0))
                c.explain(_sleepy_request(0))  # would fail if slot leaked
                assert c.stats()["pending"] == 0


class TestTransportEdgeCases:
    """Hand-crafted bytes against the raw socket."""

    @pytest.fixture()
    def small_frame_server(self, test_bench):
        server = ExplanationServer(
            test_bench.graph, ServerConfig(max_frame_bytes=4096)
        )
        with ServerThread(server) as thread:
            yield thread

    def _raw(self, port: int) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.settimeout(10)
        return sock

    def test_oversized_frame_rejected_before_payload(
        self, small_frame_server
    ):
        with self._raw(small_frame_server.port) as sock:
            # Declare 1 MiB against a 4 KiB bound; send no payload at
            # all — the server must answer from the prefix alone.
            sock.sendall(struct.pack("!I", 1 << 20))
            frame = json.loads(read_frame(sock).decode())
            assert frame["kind"] == "error"
            assert frame["code"] == "frame-too-large"
            # ...and then hang up (the payload is unskippable).
            assert sock.recv(1) == b""

    def test_truncated_frame_closes_cleanly(self, small_frame_server):
        with self._raw(small_frame_server.port) as sock:
            sock.sendall(struct.pack("!I", 100) + b"x" * 10)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # no error frame, no hang

    def test_malformed_json_gets_typed_error(self, small_frame_server):
        with self._raw(small_frame_server.port) as sock:
            write_frame(sock, b"{this is not json")
            frame = json.loads(read_frame(sock).decode())
            assert frame["kind"] == "error"
            assert frame["code"] == "bad-frame"
            # The connection survives a protocol-level error.
            write_frame(
                sock,
                json.dumps(protocol.envelope("ping")).encode(),
            )
            assert json.loads(read_frame(sock).decode())["kind"] == "pong"

    def test_unknown_protocol_version(self, small_frame_server):
        with self._raw(small_frame_server.port) as sock:
            write_frame(
                sock,
                json.dumps({"protocol_version": 99, "kind": "ping"}).encode(),
            )
            frame = json.loads(read_frame(sock).decode())
            assert frame["kind"] == "error"
            assert frame["code"] == "unknown-version"

    def test_unknown_kind(self, small_frame_server):
        with self._raw(small_frame_server.port) as sock:
            write_frame(
                sock,
                json.dumps(protocol.envelope("make-coffee")).encode(),
            )
            frame = json.loads(read_frame(sock).decode())
            assert frame["kind"] == "error"
            assert frame["code"] == "bad-request"

    def test_task_error_is_typed(self, client):
        # Disconnected terminals: the summarizer raises; the client
        # sees a typed task-error, and the connection stays usable.
        bad = SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0", "no-such-node"),
            paths=(),
            anchors=(),
            focus=(),
            k=1,
        )
        with pytest.raises(ServerError) as excinfo:
            client.explain(bad)
        assert excinfo.value.code in ("task-error", "internal")
        assert client.ping() == ["default"]


class TestReconnect:
    def test_client_survives_server_restart(self, test_bench):
        task = next(
            iter(test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values())
        )
        first = ServerThread(ExplanationServer(test_bench.graph))
        port = first.port
        client = ExplanationClient("127.0.0.1", port)
        try:
            want = client.explain(task)
            first.stop()
            # Same port, fresh server: the old socket is dead and the
            # client's next call must transparently redial.
            second = ServerThread(
                ExplanationServer(
                    test_bench.graph, ServerConfig(port=port)
                )
            )
            try:
                got = client.explain(task)
                assert_same_summary(got, want)
            finally:
                second.stop()
        finally:
            client.close()
            first.stop()

    def test_no_reconnect_propagates(self, test_bench):
        thread = ServerThread(ExplanationServer(test_bench.graph))
        client = ExplanationClient(
            "127.0.0.1", thread.port, reconnect=False
        )
        try:
            assert client.ping() == ["default"]
            thread.stop()
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
        finally:
            client.close()


class TestMutation:
    def test_mutation_invalidates_and_reflects(self, toy_graph):
        server = ExplanationServer(toy_graph)
        task = SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0", "i:1"),
            paths=(),
            anchors=("i:1",),
            focus=("u:0",),
            k=1,
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                before = client.explain(task)
                version = client.add_edge("u:0", "i:1", 9.0, "watched")
                assert version == toy_graph.version
                after = client.explain(task)
                session = server._hosts["default"].session_if_created()
                assert session.stats.invalidations >= 1
                # The new direct edge must show up in the new summary.
                assert after.subgraph.relation("u:0", "i:1") == "watched"
                assert before.subgraph.num_edges != (
                    after.subgraph.num_edges
                ) or list(before.subgraph.nodes()) != (
                    list(after.subgraph.nodes())
                )

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.mutate([{"op": "drop_table", "args": []}])
        assert excinfo.value.code == "bad-request"

    def test_bad_edge_is_task_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.mutate([{"op": "add_edge", "args": ["u:0", "u:0"]}])
        assert excinfo.value.code == "task-error"


class TestIdleReaper:
    def test_pool_released_after_ttl_and_rebuilt_on_demand(
        self, test_bench
    ):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values()
        )[:3]
        server = ExplanationServer(
            test_bench.graph,
            ServerConfig(
                pool_idle_ttl_seconds=0.3, reap_interval_seconds=0.05
            ),
            parallel=ParallelConfig(backend="processes", workers=1),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                report = client.run(tasks)
                assert report.parallel in ("processes", "serial")
                session = server._hosts["default"].session_if_created()
                had_pool = (
                    session._steal_pool is not None
                    or session._export is not None
                )
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if (
                        session._steal_pool is None
                        and session._export is None
                    ):
                        break
                    time.sleep(0.05)
                assert session._steal_pool is None
                assert session._export is None
                if had_pool:
                    pool_starts = session.stats.pool_starts
                    report2 = client.run(tasks)
                    assert len(report2.results) == len(tasks)
                    # A fresh pool was started for the post-reap run.
                    assert session.stats.pool_starts >= pool_starts
