"""Deterministic chaos coverage for the resilience layer.

The acceptance contract (ISSUE 7): a batch of 64 tasks with one
injected worker crash and one injected hang completes on the process
backend with bit-identical successful results, at most
``max_task_retries`` redone tasks, **no** RuntimeWarning local
fallback, ``SessionStats.worker_deaths == 1`` and
``task_timeouts == 1`` — and the same failure semantics hold over the
network path (a streaming client receives exactly one frame per
submitted task, typed failures included, while a concurrent healthy
client stays unaffected).

Every scenario is pinned by a seeded :class:`FaultPlan`, so a failure
here names everything needed to replay it.
"""

import os
import threading
import time
import warnings

import pytest

from repro.api import (
    ExplanationSession,
    ParallelConfig,
    ResilienceConfig,
    TaskFailure,
)
from repro.core.batch import FAILURE_CAUSES
from repro.core.scenarios import Scenario
from repro.serving.client import (
    ExplanationClient,
    OverloadedError,
    ServerError,
)
from repro.serving.faults import Fault, FaultPlan
from repro.serving.server import (
    ExplanationServer,
    ServerConfig,
    ServerThread,
)

NUM_TASKS = 64
CRASH_AT = 5
HANG_AT = 11

#: Keeps firing through any retry budget a test configures.
ALWAYS = 99


def canonical(explanation):
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


@pytest.fixture(scope="module")
def chaos_tasks(test_bench):
    singles = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
    )
    assert len(singles) >= 3
    return [singles[i % len(singles)] for i in range(NUM_TASKS)]


@pytest.fixture(scope="module")
def serial_reference(test_bench, chaos_tasks):
    with ExplanationSession(test_bench.graph) as session:
        return session.run(chaos_tasks)


def chaos_session(graph, *, resilience, faults, workers=2):
    return ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=workers),
        resilience=resilience,
        faults=faults,
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor", at=0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="'at'"):
            Fault(kind="crash", at=-1)
        with pytest.raises(ValueError, match="'seconds'"):
            Fault(kind="delay", at=0, seconds=-0.1)
        with pytest.raises(ValueError, match="'attempts'"):
            Fault(kind="crash", at=0, attempts=0)

    def test_attempt_gating(self):
        plan = FaultPlan(faults=(Fault(kind="crash", at=3, attempts=2),))
        assert plan.for_task(3, attempt=0) is not None
        assert plan.for_task(3, attempt=1) is not None
        assert plan.for_task(3, attempt=2) is None  # budget spent
        assert plan.for_task(4, attempt=0) is None

    def test_scatter_is_deterministic(self):
        a = FaultPlan.scatter(17, 64, crashes=2, hangs=1)
        b = FaultPlan.scatter(17, 64, crashes=2, hangs=1)
        assert a == b
        assert len(a.faults) == 3
        assert len({fault.at for fault in a.faults}) == 3  # distinct
        assert sorted(f.kind for f in a.faults) == [
            "crash",
            "crash",
            "hang",
        ]
        assert a != FaultPlan.scatter(18, 64, crashes=2, hangs=1)

    def test_scatter_rejects_oversubscription(self):
        with pytest.raises(ValueError, match="cannot scatter"):
            FaultPlan.scatter(1, 2, crashes=2, hangs=1)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(Fault(kind="delay", at=0),))


class TestTypedFailure:
    def test_causes_are_closed(self):
        with pytest.raises(ValueError, match="unknown failure cause"):
            TaskFailure(cause="gremlin")
        for cause in FAILURE_CAUSES:
            assert TaskFailure(cause=cause).cause == cause

    def test_resilience_config_validates(self):
        with pytest.raises(ValueError, match="max_task_retries"):
            ResilienceConfig(max_task_retries=-1)
        with pytest.raises(ValueError, match="task_timeout_seconds"):
            ResilienceConfig(task_timeout_seconds=-1.0)
        with pytest.raises(ValueError, match="max_worker_respawns"):
            ResilienceConfig(max_worker_respawns=-1)


class TestSupervisedRecovery:
    """Worker death / hang blast radius: the victim's task, nothing else."""

    def test_crash_and_hang_recovery_is_exact(
        self, test_bench, chaos_tasks, serial_reference
    ):
        """THE acceptance test: 1 crash + 1 hang, zero visible damage."""
        plan = FaultPlan(
            faults=(
                Fault(kind="crash", at=CRASH_AT),
                Fault(kind="hang", at=HANG_AT, seconds=30.0),
            ),
            seed=7,
        )
        with warnings.catch_warnings():
            # A silent local fallback would "pass" without exercising
            # recovery at all; make it a hard failure.
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(
                    max_task_retries=2, task_timeout_seconds=1.5
                ),
                faults=plan,
            ) as session:
                report = session.run(chaos_tasks)
                stats = session.stats
        assert len(report.results) == NUM_TASKS
        assert report.failed == 0
        assert all(result.ok for result in report.results)
        assert report.retried == 2  # one crash redo + one timeout redo
        assert stats.worker_deaths == 1
        assert stats.task_timeouts == 1
        assert stats.task_retries == 2
        assert stats.local_fallbacks == 0
        assert stats.pool_starts == 1  # supervision, not pool respawn
        for want, got in zip(serial_reference.results, report.results):
            assert canonical(got.explanation) == canonical(
                want.explanation
            ), got.index
        assert "resilience" in report.summary()
        assert stats.resilience_line() is not None

    def test_exhausted_retries_fail_individually(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(Fault(kind="crash", at=CRASH_AT, attempts=ALWAYS),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(max_task_retries=1),
                faults=plan,
            ) as session:
                report = session.run(chaos_tasks)
                deaths = session.stats.worker_deaths
        assert len(report.results) == NUM_TASKS
        assert report.failed == 1
        failed = [r for r in report.results if r.failure is not None]
        assert failed[0].index == CRASH_AT
        assert failed[0].failure.cause == "crash"
        assert failed[0].failure.retries == 1  # budget was spent
        assert failed[0].explanation is None
        assert deaths == 2  # initial try + one retry, both crashed
        assert sum(1 for r in report.results if r.ok) == NUM_TASKS - 1

    def test_timeout_fails_individually_with_zero_retries(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(
                Fault(
                    kind="hang", at=HANG_AT, seconds=30.0, attempts=ALWAYS
                ),
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(
                    max_task_retries=0, task_timeout_seconds=1.0
                ),
                faults=plan,
            ) as session:
                report = session.run(chaos_tasks)
                timeouts = session.stats.task_timeouts
        assert report.failed == 1
        failed = [r for r in report.results if r.failure is not None][0]
        assert failed.index == HANG_AT
        assert failed.failure.cause == "timeout"
        assert "deadline" in failed.failure.message
        assert timeouts == 1

    def test_malformed_result_demoted_to_error_failure(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(Fault(kind="malformed", at=CRASH_AT, attempts=ALWAYS),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(),
                faults=plan,
            ) as session:
                report = session.run(chaos_tasks)
        assert report.failed == 1
        failed = [r for r in report.results if r.failure is not None][0]
        assert failed.index == CRASH_AT
        assert failed.failure.cause == "error"
        assert "undecodable" in failed.failure.message
        # No worker died and nothing was retried: corruption is caught
        # at decode, after the worker moved on.
        assert session.stats.worker_deaths == 0

    def test_stream_yields_failures_in_place(
        self, test_bench, chaos_tasks, serial_reference
    ):
        plan = FaultPlan(
            faults=(Fault(kind="crash", at=CRASH_AT, attempts=ALWAYS),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(max_task_retries=0),
                faults=plan,
            ) as session:
                streamed = list(session.stream(chaos_tasks))
        assert len(streamed) == NUM_TASKS
        assert sorted(r.index for r in streamed) == list(range(NUM_TASKS))
        failed = [r for r in streamed if r.failure is not None]
        assert [r.index for r in failed] == [CRASH_AT]
        by_index = {r.index: r for r in streamed}
        for want in serial_reference.results:
            if want.index == CRASH_AT:
                continue
            assert canonical(by_index[want.index].explanation) == (
                canonical(want.explanation)
            )

    def test_stream_crash_recovery_is_exact(
        self, test_bench, chaos_tasks, serial_reference
    ):
        """stream() drains the supervised dispatch run() folds: a crash
        is retried in place and every streamed result is bit-identical."""
        plan = FaultPlan(faults=(Fault(kind="crash", at=CRASH_AT),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(max_task_retries=2),
                faults=plan,
            ) as session:
                streamed = list(session.stream(chaos_tasks))
                stats = session.stats
        assert sorted(r.index for r in streamed) == list(range(NUM_TASKS))
        assert all(result.ok for result in streamed)
        assert stats.worker_deaths == 1
        assert stats.task_retries == 1
        assert stats.local_fallbacks == 0
        by_index = {r.index: r for r in streamed}
        for want in serial_reference.results:
            assert canonical(by_index[want.index].explanation) == (
                canonical(want.explanation)
            ), want.index

    def test_stream_exhausted_retries_conclude_typed_crash(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(Fault(kind="crash", at=CRASH_AT, attempts=ALWAYS),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(max_task_retries=1),
                faults=plan,
            ) as session:
                streamed = list(session.stream(chaos_tasks))
                deaths = session.stats.worker_deaths
        assert len(streamed) == NUM_TASKS
        failed = [r for r in streamed if r.failure is not None]
        assert [r.index for r in failed] == [CRASH_AT]
        assert failed[0].failure.cause == "crash"
        assert failed[0].failure.retries == 1
        assert failed[0].explanation is None
        assert deaths == 2

    def test_stream_timeout_fails_individually(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(
                Fault(
                    kind="hang", at=HANG_AT, seconds=30.0, attempts=ALWAYS
                ),
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(
                    max_task_retries=0, task_timeout_seconds=1.0
                ),
                faults=plan,
            ) as session:
                streamed = list(session.stream(chaos_tasks))
                timeouts = session.stats.task_timeouts
        assert len(streamed) == NUM_TASKS
        failed = [r for r in streamed if r.failure is not None]
        assert [r.index for r in failed] == [HANG_AT]
        assert failed[0].failure.cause == "timeout"
        assert timeouts == 1

    def test_stream_malformed_result_demoted_to_error_failure(
        self, test_bench, chaos_tasks
    ):
        plan = FaultPlan(
            faults=(Fault(kind="malformed", at=CRASH_AT, attempts=ALWAYS),)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(),
                faults=plan,
            ) as session:
                streamed = list(session.stream(chaos_tasks))
                deaths = session.stats.worker_deaths
        assert len(streamed) == NUM_TASKS
        failed = [r for r in streamed if r.failure is not None]
        assert [r.index for r in failed] == [CRASH_AT]
        assert failed[0].failure.cause == "error"
        assert "undecodable" in failed[0].failure.message
        assert deaths == 0

    def test_circuit_breaker_demotes_to_local_fallback(
        self, test_bench, chaos_tasks
    ):
        """``max_worker_respawns=0`` restores the legacy contract."""
        plan = FaultPlan(
            faults=(Fault(kind="crash", at=CRASH_AT, attempts=ALWAYS),)
        )
        with chaos_session(
            test_bench.graph,
            resilience=ResilienceConfig(
                max_task_retries=2, max_worker_respawns=0
            ),
            faults=plan,
        ) as session:
            with pytest.warns(RuntimeWarning, match="process backend"):
                report = session.run(chaos_tasks)
            assert session.stats.local_fallbacks == 1
        # The local rerun ignores the (process-side) fault plan, so the
        # batch still completes whole.
        assert len(report.results) == NUM_TASKS
        assert all(result.ok for result in report.results)

    def test_crashed_worker_leaks_no_shm(self, test_bench, chaos_tasks):
        """CI satellite: a mid-batch worker kill must not orphan the
        shared-memory export — the parent still unlinks every block on
        session close."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        plan = FaultPlan(faults=(Fault(kind="crash", at=CRASH_AT),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with chaos_session(
                test_bench.graph,
                resilience=ResilienceConfig(max_task_retries=2),
                faults=plan,
            ) as session:
                report = session.run(chaos_tasks)
                assert session.stats.worker_deaths == 1
        assert all(result.ok for result in report.results)
        after = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        assert after - before == set()


@pytest.fixture(scope="module")
def wire_tasks(chaos_tasks):
    """A smaller batch keeps the per-test server round trips quick."""
    return chaos_tasks[:12]


class TestNetworkResilience:
    """The same failure semantics, over TCP."""

    def test_stream_delivers_typed_failures_exactly_once(
        self, test_bench, wire_tasks, serial_reference
    ):
        """ISSUE satellite: n submitted tasks -> exactly n frames
        (successes + typed failures), end-count verification passes,
        and a concurrent healthy client is unaffected."""
        server = ExplanationServer(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            resilience=ResilienceConfig(max_task_retries=0),
            faults=FaultPlan(
                faults=(Fault(kind="crash", at=3, attempts=ALWAYS),)
            ),
        )
        healthy_errors: list[BaseException] = []
        healthy_done = threading.Event()

        def healthy_traffic() -> None:
            # Two-task batches never reach task index 3, so the fault
            # plan cannot touch them: this client sees only successes.
            try:
                with ExplanationClient(
                    "127.0.0.1", thread.port
                ) as client:
                    for _ in range(3):
                        report = client.run(wire_tasks[:2])
                        assert report.failed == 0
                        assert all(r.ok for r in report.results)
            except BaseException as error:  # surfaced in the main thread
                healthy_errors.append(error)
            finally:
                healthy_done.set()

        with ServerThread(server) as thread:
            worker = threading.Thread(target=healthy_traffic)
            worker.start()
            with ExplanationClient("127.0.0.1", thread.port) as client:
                frames = list(client.stream(wire_tasks))
            worker.join(timeout=60)
        assert healthy_done.is_set() and not healthy_errors
        assert len(frames) == len(wire_tasks)  # end-count verified too
        failed = [r for r in frames if r.failure is not None]
        assert [(r.index, r.failure.cause) for r in failed] == [
            (3, "crash")
        ]
        by_index = {r.index: r for r in frames}
        for want in serial_reference.results[: len(wire_tasks)]:
            if want.index == 3:
                continue
            assert canonical(by_index[want.index].explanation) == (
                canonical(want.explanation)
            )

    def test_run_report_round_trips_failures(self, test_bench, wire_tasks):
        server = ExplanationServer(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            resilience=ResilienceConfig(max_task_retries=0),
            faults=FaultPlan(
                faults=(Fault(kind="crash", at=3, attempts=ALWAYS),)
            ),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                report = client.run(wire_tasks)
        assert len(report.results) == len(wire_tasks)
        assert report.failed == 1
        failed = [r for r in report.results if r.failure is not None][0]
        assert failed.index == 3
        assert failed.failure.cause == "crash"

    def test_expired_deadline_is_dropped_typed(
        self, test_bench, wire_tasks
    ):
        # A loop-fault delay stalls handling past the client's budget,
        # so expiry is deterministic, not a timing race.
        server = ExplanationServer(
            test_bench.graph,
            loop_faults=FaultPlan(
                faults=(Fault(kind="delay", at=0, seconds=0.4),)
            ),
        )
        with ServerThread(server) as thread:
            with ExplanationClient("127.0.0.1", thread.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.explain(wire_tasks[0], deadline=0.1)
                assert excinfo.value.code == "deadline-exceeded"
                # Without a deadline the same (delayed) request serves.
                explanation = client.explain(wire_tasks[0])
        assert explanation.subgraph.num_edges > 0

    def test_backoff_absorbs_forced_overload(self, test_bench, wire_tasks):
        config = ServerConfig(retry_after_ms=20)
        server = ExplanationServer(
            test_bench.graph,
            config,
            loop_faults=FaultPlan(
                faults=(
                    Fault(kind="overload", at=0),
                    Fault(kind="overload", at=1),
                    Fault(kind="overload", at=3),
                )
            ),
        )
        with ServerThread(server) as thread:
            retrying = ExplanationClient(
                "127.0.0.1",
                thread.port,
                retries=3,
                backoff_base_seconds=0.01,
                backoff_seed=7,
            )
            with retrying as client:
                # Ordinals 0 and 1 are rejected; the second retry
                # (ordinal 2) succeeds without caller involvement.
                explanation = client.explain(wire_tasks[0])
            assert explanation.subgraph.num_edges > 0
            assert server.rejected == 2
            failfast = ExplanationClient("127.0.0.1", thread.port)
            with failfast as client:
                with pytest.raises(OverloadedError) as excinfo:
                    client.explain(wire_tasks[0])  # ordinal 3
            assert excinfo.value.retry_after_ms == 20

    def test_backoff_respects_deadline(self, test_bench, wire_tasks):
        server = ExplanationServer(
            test_bench.graph,
            ServerConfig(retry_after_ms=500),
            loop_faults=FaultPlan(
                faults=(
                    Fault(kind="overload", at=0),
                    Fault(kind="overload", at=1),
                )
            ),
        )
        with ServerThread(server) as thread:
            client = ExplanationClient(
                "127.0.0.1",
                thread.port,
                retries=5,
                backoff_base_seconds=0.01,
                backoff_seed=3,
            )
            with client:
                start = time.monotonic()
                # The 500ms retry_after floor cannot fit in a 200ms
                # budget: the client must raise instead of sleeping
                # through its own deadline.
                with pytest.raises(OverloadedError):
                    client.explain(wire_tasks[0], deadline=0.2)
                assert time.monotonic() - start < 0.5

    def test_server_thread_stop_raises_on_stuck_loop(self, test_bench):
        thread = ServerThread(ExplanationServer(test_bench.graph))
        parked = threading.Event()
        release = threading.Event()

        def park() -> None:  # wedges the loop thread until released
            parked.set()
            release.wait(timeout=60)

        real_join = thread._thread.join
        try:
            # A parked loop cannot run the shutdown coroutine, so the
            # thread is still alive when stop() checks, however loaded
            # the machine is.
            thread._loop.call_soon_threadsafe(park)
            assert parked.wait(timeout=30)
            thread._thread.join = lambda timeout=None: None  # skip the wait
            with pytest.raises(RuntimeError, match="did not exit"):
                thread.stop()
        finally:
            release.set()
            thread._thread.join = real_join
            real_join(timeout=30)  # the stop coroutine now runs; reap it
        assert not thread._thread.is_alive()
