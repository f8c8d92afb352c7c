"""Scheduler coverage: skewed mixes, parity, streaming, elasticity.

The acceptance contract for the serving scheduler:

- a skewed task mix (heavy group scenarios interleaved with
  singletons) produces bit-identical results on both backends —
  serial and the work-stealing process pool;
- ``stream()`` yields results in completion order (not submission
  order) and covers the whole batch, per task;
- the elastic pool's grow / shrink / steal activity is observable
  through ``SessionStats``;
- per-task latency surfaces as ``BatchResult.latency_ms`` with pinned
  p50/p95 aggregation on ``BatchReport``.
"""

import pytest

from repro.api import (
    ExplanationSession,
    ParallelConfig,
    SchedulerConfig,
)
from repro.core.batch import BatchReport, BatchResult
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path
from repro.serving import Fault, FaultPlan


def canonical(explanation):
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


@pytest.fixture(scope="module")
def skewed_tasks(test_bench):
    """Group scenarios interleaved with singleton user-centric tasks."""
    singles = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
    )[:6]
    groups = list(
        test_bench.tasks(Scenario.USER_GROUP, "PGPR", 4).values()
    )[:2]
    assert len(singles) >= 3 and len(groups) >= 1
    s = [singles[i % len(singles)] for i in range(6)]
    g = [groups[i % len(groups)] for i in range(2)]
    return [s[0], s[1], g[0], s[2], s[3], g[1], s[4], s[5]]


@pytest.fixture(scope="module")
def serial_reference(test_bench, skewed_tasks):
    with ExplanationSession(test_bench.graph) as session:
        return session.run(skewed_tasks)


class TestSkewedMixParity:
    """serial and processes, bit-identical."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_parity_with_serial(
        self, backend, test_bench, skewed_tasks, serial_reference
    ):
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend=backend, workers=2),
        ) as session:
            report = session.run(skewed_tasks)
        assert report.parallel == backend
        if backend != "serial":
            assert report.scheduler == "work-stealing"
        assert [r.index for r in report.results] == (
            list(range(len(skewed_tasks)))
        )
        for want, got in zip(serial_reference.results, report.results):
            assert canonical(got.explanation) == (
                canonical(want.explanation)
            ), got.index

    def test_stream_covers_skewed_mix(
        self, test_bench, skewed_tasks, serial_reference
    ):
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            streamed = list(session.stream(skewed_tasks))
        assert sorted(r.index for r in streamed) == (
            list(range(len(skewed_tasks)))
        )
        by_index = {r.index: r for r in streamed}
        for want in serial_reference.results:
            assert canonical(by_index[want.index].explanation) == (
                canonical(want.explanation)
            )


class TestStreamOrdering:
    """Completion order, not submission order, drives the stream."""

    def test_out_of_order_completion_streams_out_of_order(self, test_bench):
        """A slow first task must not block later results."""
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:4]
        # Task 0's worker sleeps far longer than the other three tasks
        # take together, so the second worker finishes them first.
        plan = FaultPlan(faults=(Fault(kind="delay", at=0, seconds=1.5),))
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            faults=plan,
        ) as session:
            order = [r.index for r in session.stream(tasks)]
        assert sorted(order) == [0, 1, 2, 3]
        # With per-task work-stealing dispatch the delayed task must
        # not be the first result.
        assert order[0] != 0
        assert order[-1] == 0

    def test_run_folds_out_of_order_completion_into_input_order(
        self, test_bench
    ):
        """The same delayed dispatch, folded by run(): task 0 lands
        last but the report lists results in input order."""
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:4]
        plan = FaultPlan(faults=(Fault(kind="delay", at=0, seconds=1.5),))
        with ExplanationSession(test_bench.graph) as reference:
            expected = reference.run(tasks)
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            faults=plan,
        ) as session:
            report = session.run(tasks)
        assert report.parallel == "processes"
        assert report.total_seconds >= 1.5
        assert [r.index for r in report.results] == [0, 1, 2, 3]
        for want, got in zip(expected.results, report.results):
            assert got.ok
            assert canonical(got.explanation) == canonical(want.explanation)

    def test_work_stealing_streams_before_batch_completes(self, test_bench):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
        )[:5]
        with ExplanationSession(test_bench.graph) as session:
            iterator = session.stream(tasks)
            first = next(iterator)
            assert first.index == 0
            assert len(list(iterator)) == len(tasks) - 1


class TestElasticPool:
    """Grow under pressure, shrink on idle — observable via stats."""

    def test_grow_and_shrink_counters(self, test_bench, skewed_tasks):
        tasks = skewed_tasks * 2  # 16 tasks against a 1-worker floor
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=1),
            scheduler=SchedulerConfig(
                min_workers=1, max_workers=3, shrink_idle_seconds=0.0
            ),
        ) as session:
            first = session.run(tasks)
            assert session.stats.grows >= 1
            assert session.stats.peak_queue_depth > 0
            # shrink_idle_seconds=0: the pool is "idle" the moment the
            # first run drains. Shrinking is load-aware — a big second
            # batch keeps every warm worker — so a *small* follow-up
            # batch is what lets the pool retire down to its needs.
            session.run(tasks)
            assert session.stats.shrinks == 0  # 16 tasks keep all 3
            second = session.run(tasks[:1])
            assert session.stats.shrinks >= 1
            assert session.stats.pool_starts == 1  # same pool throughout
            assert canonical(second.results[0].explanation) == (
                canonical(first.results[0].explanation)
            )

    def test_abandoned_streams_do_not_poison_next_run(
        self, test_bench, skewed_tasks, serial_reference
    ):
        """Abandoned stream iterators must not leak into later batches.

        Their jobs were already submitted eagerly; dispatch
        multiplexing routes (and ultimately drops) those results per
        dispatch id, so a later run() on the same warm pool must pair
        every new task with its own explanation — whether the iterator
        was dropped before its first next() or mid-consumption.
        """
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            unstarted = session.stream(skewed_tasks)
            del unstarted  # never iterated: generator body never ran
            halfway = session.stream(skewed_tasks)
            next(halfway)
            halfway.close()  # abandoned mid-consumption
            report = session.run(skewed_tasks)
            assert [r.index for r in report.results] == (
                list(range(len(skewed_tasks)))
            )
            for want, got in zip(serial_reference.results, report.results):
                assert canonical(got.explanation) == (
                    canonical(want.explanation)
                )
            assert session.stats.pool_starts == 1  # pool stayed warm

    def test_interleaved_stream_and_run_both_complete(
        self, test_bench, skewed_tasks, serial_reference
    ):
        """A run() in the middle of a stream() must not kill either.

        The executor path always supported overlapping calls on one
        session; the work-stealing pool multiplexes dispatches, so the
        paused stream resumes cleanly after the interleaved batch.
        """
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            iterator = session.stream(skewed_tasks)
            first = next(iterator)
            interleaved = session.run(skewed_tasks)
            rest = list(iterator)
        streamed = {r.index: r for r in [first, *rest]}
        assert sorted(streamed) == list(range(len(skewed_tasks)))
        assert session.stats.pool_starts == 1
        for want in serial_reference.results:
            assert canonical(streamed[want.index].explanation) == (
                canonical(want.explanation)
            )
            assert canonical(
                interleaved.results[want.index].explanation
            ) == canonical(want.explanation)

    def test_steals_observed_under_skew(self, test_bench, skewed_tasks):
        # One heavy group task in front of a run of singletons: whoever
        # picks the heavy task holds exactly one worker, so the other
        # worker must finish tasks nominally assigned to its peer.
        singles = [t for t in skewed_tasks if not t.scenario.is_group]
        heavy = next(t for t in skewed_tasks if t.scenario.is_group)
        tasks = [heavy, *singles, *singles]
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
            scheduler=SchedulerConfig(max_workers=2),
        ) as session:
            report = session.run(tasks)
        assert report.scheduler == "work-stealing"
        assert session.stats.steals >= 1


class TestLatencySurfacing:
    """Satellite: worker-measured latency_ms + pinned p50/p95."""

    def test_latency_ms_is_seconds_in_milliseconds(self):
        result = _result(index=0, seconds=0.25)
        assert result.latency_ms == 250.0

    def test_report_percentiles_pinned(self):
        report = _report(seconds=[0.010, 0.040, 0.020, 0.030])
        # sorted latencies: [10, 20, 30, 40] ms
        assert report.latency_p50_ms == 30.0
        assert report.latency_p95_ms == 40.0

    def test_single_result_percentiles(self):
        report = _report(seconds=[0.005])
        assert report.latency_p50_ms == 5.0
        assert report.latency_p95_ms == 5.0

    def test_empty_report_percentiles_are_zero(self):
        report = _report(seconds=[])
        assert report.latency_p50_ms == 0.0
        assert report.latency_p95_ms == 0.0

    def test_summary_uses_the_pinned_percentiles(self):
        report = _report(seconds=[0.010, 0.040, 0.020, 0.030])
        assert "p50 30.00 ms" in report.summary()
        assert "p95 40.00 ms" in report.summary()

    def test_process_results_carry_worker_measured_latency(
        self, test_bench, skewed_tasks
    ):
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            report = session.run(skewed_tasks)
        for result in report.results:
            assert result.latency_ms == result.seconds * 1000.0
            assert result.seconds > 0.0


def _task():
    return SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=("u:0", "i:0"),
        paths=(Path(nodes=("u:0", "i:0")),),
        anchors=("i:0",),
        focus=("u:0",),
        k=1,
    )


def _result(index: int, seconds: float) -> BatchResult:
    from repro.core.explanation import SubgraphExplanation

    subgraph = KnowledgeGraph()
    subgraph.add_edge("u:0", "i:0", 1.0)
    return BatchResult(
        index=index,
        task=_task(),
        explanation=SubgraphExplanation(
            subgraph=subgraph, task=_task(), method="ST"
        ),
        seconds=seconds,
    )


def _report(seconds: list[float]) -> BatchReport:
    return BatchReport(
        method="ST",
        results=tuple(
            _result(index, value) for index, value in enumerate(seconds)
        ),
        freeze_seconds=0.0,
        total_seconds=sum(seconds) or 0.001,
    )
