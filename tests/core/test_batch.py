"""Batch runs: parity with the per-task facade, caching, staleness."""

import pytest

from repro.api import (
    EngineConfig,
    ExplanationSession,
    ParallelConfig,
)
from repro.api.protocol import task_from_json, task_to_json
from repro.core.batch import (
    TerminalClosureCache,
    dump_tasks_jsonl,
    load_tasks_jsonl,
)
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.summarizer import METHODS, Summarizer
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path


def batch_session(graph, method="ST", *, backend=None, workers=0, **engine):
    """A session set up like one batch job: method, backend, engine knobs."""
    return ExplanationSession(
        graph,
        engine=EngineConfig(**engine),
        parallel=ParallelConfig(backend=backend, workers=workers),
        default_method=method,
    )


def run_batch(graph, tasks, method="ST", **options):
    """One batch on a fresh session, closed (pool and export) afterwards."""
    with batch_session(graph, method, **options) as session:
        return session.run(tasks)


def canonical(explanation):
    """Comparable form of a summary: nodes plus weighted edge list."""
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


@pytest.fixture(scope="module")
def bench_tasks(test_bench):
    """A mixed workload: user-centric tasks, with one repeat."""
    tasks = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values()
    )
    assert len(tasks) >= 2
    return [*tasks, tasks[0]]


class TestParityWithSummarizer:
    @pytest.mark.parametrize("method", METHODS)
    def test_output_equals_per_task_loop(self, method, test_bench, bench_tasks):
        expected = [
            Summarizer(test_bench.graph, method=method).summarize(task)
            for task in bench_tasks
        ]
        report = run_batch(test_bench.graph, bench_tasks, method)
        assert len(report.results) == len(bench_tasks)
        for exp, result in zip(expected, report.results):
            assert canonical(exp) == canonical(result.explanation)

    def test_dict_and_frozen_engines_agree(self, test_bench, bench_tasks):
        frozen_engine = Summarizer(test_bench.graph, method="ST")
        dict_engine = Summarizer(
            test_bench.graph, method="ST", engine="dict"
        )
        for task in bench_tasks:
            assert canonical(frozen_engine.summarize(task)) == canonical(
                dict_engine.summarize(task)
            )


class TestReportAndCache:
    def test_report_fields(self, test_bench, bench_tasks):
        report = run_batch(test_bench.graph, bench_tasks, "ST")
        assert report.method == "ST"
        assert report.total_seconds > 0
        assert len(report.task_seconds) == len(bench_tasks)
        assert all(seconds >= 0 for seconds in report.task_seconds)
        assert report.throughput > 0
        assert "batch method=ST" in report.summary()

    def test_repeated_task_hits_cache(self, test_bench, bench_tasks):
        report = run_batch(test_bench.graph, bench_tasks, "ST")
        # The workload repeats its first task, so at least that task's
        # closure Dijkstras must come from the cache.
        assert report.cache_hits > 0

    def test_non_st_methods_skip_cache(self, test_bench, bench_tasks):
        report = run_batch(test_bench.graph, bench_tasks, "Union")
        assert report.cache_hits == 0 and report.cache_misses == 0

    def test_throughput_guards_near_zero_elapsed(self):
        """A trivially small batch finishing inside one timer tick must
        report 0.0 tasks/s, not inf (or an absurd rate)."""
        from repro.core.batch import BatchReport, BatchResult, TaskFailure

        result = BatchResult(
            index=0,
            task=SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=("u:0",),
                paths=(),
                anchors=(),
                focus=("u:0",),
            ),
            explanation=None,
            failure=TaskFailure(cause="error", message="placeholder"),
            seconds=0.0,
        )
        for elapsed in (0.0, 1e-12, -1.0):
            report = BatchReport(
                method="Union",
                results=(result,),
                freeze_seconds=0.0,
                total_seconds=elapsed,
            )
            assert report.throughput == 0.0
        empty = BatchReport(
            method="Union",
            results=(),
            freeze_seconds=0.0,
            total_seconds=1.0,
        )
        assert empty.throughput == 0.0
        real = BatchReport(
            method="Union",
            results=(result,),
            freeze_seconds=0.0,
            total_seconds=0.5,
        )
        assert real.throughput == 2.0

    def test_cache_lru_bound(self):
        cache = TerminalClosureCache(maxsize=2)
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 1.0)
        graph.add_edge("u:0", "i:1", 1.0)
        graph.add_edge("u:1", "i:0", 1.0)
        frozen = graph.freeze()
        pairs = cache.pair_fn(frozen, frozen.stored_costs())
        for source in ("u:0", "i:0", "i:1", "u:1"):
            pairs(source, {"u:0", "u:1"} - {source})
        assert len(cache) <= 2

    def test_pair_fn_returns_settled_distances_and_a_valid_tree(
        self, test_bench
    ):
        """A miss runs the numpy kernel: its id-keyed distances equal
        the heap Dijkstra's on every node that run settles, and its
        predecessor map walks every settled node back to the source
        along exact-cost edges."""
        from repro.graph.shortest_paths import dijkstra_frozen

        graph = test_bench.graph
        frozen = graph.freeze()
        costs = frozen.costs_from(lambda u, v, w: 1.0 / (1.0 + w))
        source, *rest = sorted(graph.nodes())[::97][:5]
        dist, prev = TerminalClosureCache().pair_fn(frozen, costs)(
            source, set(rest)
        )
        heap_dist, _ = dijkstra_frozen(frozen, source, costs, set(rest))
        assert all(dist[node] == d for node, d in heap_dist.items())
        assert source not in prev and len(prev) == len(dist) - 1
        assert set(prev) == set(dist) - {source}
        slots = costs.slots
        for node in dist:
            walk = node
            while walk != source:
                above = prev[walk]
                slot = frozen.edge_slot(above, walk)
                assert dist[above] + slots[slot] == dist[walk]
                walk = above
        with pytest.raises(KeyError):
            prev["u:not-a-node"]

    def test_cache_cleared_on_refreeze(self):
        cache = TerminalClosureCache()
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 1.0)
        graph.add_edge("u:1", "i:0", 1.0)
        pairs = cache.pair_fn(graph.freeze(), graph.freeze().stored_costs())
        pairs("u:0", {"u:1"})
        assert len(cache) == 1
        graph.add_edge("u:0", "i:1", 2.0)
        cache.pair_fn(graph.freeze(), graph.freeze().stored_costs())
        assert len(cache) == 0

    def test_stale_view_result_not_inserted_after_refreeze(self):
        """A pairs fn bound to an old frozen view must not repopulate
        the cache after it was rebound to a newer view (thread race)."""
        cache = TerminalClosureCache()
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 1.0)
        graph.add_edge("u:1", "i:0", 1.0)
        old_frozen = graph.freeze()
        old_pairs = cache.pair_fn(old_frozen, old_frozen.stored_costs())
        graph.set_weight("u:0", "i:0", 9.0)
        new_frozen = graph.freeze()
        cache.pair_fn(new_frozen, new_frozen.stored_costs())
        dist, _ = old_pairs("u:0", {"u:1"})  # still valid for its caller
        assert dist["i:0"] == 1.0
        assert len(cache) == 0  # but never cached against the new view

    def test_rejects_unknown_method_and_workers(self, test_bench):
        with pytest.raises(ValueError, match="unknown method"):
            batch_session(test_bench.graph, method="nope")
        with pytest.raises(ValueError, match="workers"):
            batch_session(test_bench.graph, workers=-1)


class TestDisjointBoosts:
    """λ>0 tasks whose boost sets never coincide: every closure is a
    fresh run, and the batch still equals the per-task facade."""

    @pytest.fixture()
    def boosted_workload(self):
        """A graph plus λ>0 tasks whose boost sets are pairwise disjoint
        (each task boosts its own user's rating edges), so the plain
        signature-keyed cache can never share closures between them."""
        import numpy as np

        rng = np.random.default_rng(11)
        graph = KnowledgeGraph()
        num_users, num_items = 8, 14
        for i in range(num_items):
            u = i % num_users
            graph.add_edge(f"u:{u}", f"i:{i}", float(rng.integers(1, 6)))
            graph.add_edge(
                f"u:{(u + 3) % num_users}", f"i:{i}",
                float(rng.integers(1, 6)),
            )
            graph.add_edge(f"i:{i}", f"e:g:{i % 3}", 0.0, "g")
        tasks = []
        for u in range(num_users):
            user = f"u:{u}"
            items = sorted(graph.neighbors(user))[:3]
            tasks.append(
                SummaryTask(
                    scenario=Scenario.USER_CENTRIC,
                    terminals=(user, *items),
                    paths=tuple(Path(nodes=(user, i)) for i in items),
                    anchors=tuple(items),
                    focus=(user,),
                    k=len(items),
                )
            )
        return graph, tasks

    def test_results_match_fresh_summarizer(self, boosted_workload):
        graph, tasks = boosted_workload
        fresh = [
            Summarizer(graph, method="ST", lam=2.0).summarize(task)
            for task in tasks
        ]
        report = run_batch(graph, tasks, "ST", lam=2.0)
        assert report.cache_hits == 0  # no two tasks share a signature
        for expected, result in zip(fresh, report.results):
            assert canonical(expected) == canonical(result.explanation)


class TestProcessBackend:
    """Shared-memory process pool: parity, merging, fallback, teardown."""

    @pytest.mark.parametrize("method", METHODS)
    def test_backends_produce_identical_output(
        self, method, test_bench, bench_tasks
    ):
        serial = run_batch(
            test_bench.graph, bench_tasks, method, backend="serial"
        )
        processes = run_batch(
            test_bench.graph,
            bench_tasks,
            method,
            backend="processes",
            workers=2,
        )
        assert serial.parallel == "serial"
        assert processes.parallel == "processes"
        for a, b in zip(serial.results, processes.results):
            assert canonical(a.explanation) == canonical(b.explanation)

    def test_boosted_lambda_parity_across_backends(self, test_bench):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values()
        )
        serial = run_batch(
            test_bench.graph, tasks, "ST", lam=2.0, backend="serial"
        )
        processes = run_batch(
            test_bench.graph,
            tasks,
            "ST",
            lam=2.0,
            backend="processes",
            workers=2,
        )
        for a, b in zip(serial.results, processes.results):
            assert canonical(a.explanation) == canonical(b.explanation)

    def test_report_merges_worker_timings_and_counters(
        self, test_bench, bench_tasks
    ):
        report = run_batch(
            test_bench.graph,
            bench_tasks,
            "ST",
            backend="processes",
            workers=2,
        )
        assert report.parallel == "processes"
        assert report.workers == 2
        assert [r.index for r in report.results] == list(
            range(len(bench_tasks))
        )
        assert all(r.seconds >= 0 for r in report.results)
        # Every task misses at least once somewhere (per-worker caches),
        # and the counters are aggregated across workers.
        assert report.cache_misses > 0
        assert "parallel=processes" in report.summary()

    def test_no_shared_memory_leak(self, test_bench, bench_tasks):
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        run_batch(
            test_bench.graph,
            bench_tasks,
            "ST",
            backend="processes",
            workers=2,
        )
        after = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        assert after <= before

    def test_falls_back_to_local_when_export_fails(
        self, monkeypatch, test_bench, bench_tasks
    ):
        from repro.graph.csr import FrozenGraph

        def broken_export(self):
            raise OSError("no shared memory on this box")

        monkeypatch.setattr(FrozenGraph, "to_shared", broken_export)
        with pytest.warns(RuntimeWarning, match="process backend"):
            report = run_batch(
                test_bench.graph, bench_tasks, "ST", backend="processes"
            )
        assert report.parallel == "serial"
        expected = [
            Summarizer(test_bench.graph, method="ST").summarize(task)
            for task in bench_tasks
        ]
        for exp, result in zip(expected, report.results):
            assert canonical(exp) == canonical(result.explanation)

    def test_auto_backend_stays_local_on_small_graphs(
        self, test_bench, bench_tasks
    ):
        assert (
            test_bench.graph.num_nodes
            < ExplanationSession.AUTO_PROCESS_MIN_NODES
        )
        report = run_batch(test_bench.graph, bench_tasks, "ST", workers=2)
        assert report.parallel == "serial"

    def test_rejects_unknown_backend(self, test_bench):
        with pytest.raises(ValueError, match="parallel backend"):
            batch_session(test_bench.graph, backend="gpu")

    def test_task_errors_propagate_like_serial(self, test_bench):
        """A genuinely failing task raises, not silently falls back."""
        bad = SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:missing-node", "u:also-missing"),
            paths=(),
            anchors=("u:also-missing",),
            focus=("u:missing-node",),
            k=1,
        )
        with batch_session(
            test_bench.graph, "ST", backend="processes", workers=2
        ) as session:
            with pytest.raises(KeyError):
                session.run([bad])


class TestStalenessInvalidation:
    """Mutating the graph after freezing must invalidate every cache."""

    def _graph(self):
        graph = KnowledgeGraph()
        # Two parallel routes u:0 -> i:1: direct (heavy) and via e:g:0.
        graph.add_edge("u:0", "i:0", 5.0)
        graph.add_edge("i:0", "e:g:0", 0.0, "g")
        graph.add_edge("e:g:0", "i:1", 0.0, "g")
        graph.add_edge("u:0", "i:1", 1.0)
        graph.add_edge("u:1", "i:1", 2.0)
        return graph

    def _task(self):
        return SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0", "i:1"),
            paths=(Path(nodes=("u:0", "i:1")),),
            anchors=("i:1",),
            focus=("u:0",),
            k=1,
        )

    def test_summarizer_sees_mutation_after_freeze(self):
        graph = self._graph()
        summarizer = Summarizer(graph, method="ST", lam=100.0)
        before = summarizer.summarize(self._task())
        assert ("i:1", "u:0") in {e.key() for e in before.subgraph.edges()}
        frozen = graph.freeze()
        # Remove the boosted direct edge: the summary must reroute.
        graph.remove_edge("u:0", "i:1")
        assert frozen.is_stale()
        after = summarizer.summarize(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=("u:0", "i:1"),
                paths=(),
                anchors=("i:1",),
                focus=("u:0",),
                k=1,
            )
        )
        assert ("i:1", "u:0") not in {e.key() for e in after.subgraph.edges()}
        assert "e:g:0" in after.subgraph

    def test_weight_mutation_refreshes_boost_normalization(self):
        """Regression: the stored-weight max cache must track mutations."""
        from repro.core.weighting import ExplanationWeighting

        graph = self._graph()
        task = self._task()
        first = ExplanationWeighting(graph=graph, task=task, lam=1.0)
        assert first._max_weight == 5.0
        graph.set_weight("u:0", "i:0", 50.0)
        second = ExplanationWeighting(graph=graph, task=task, lam=1.0)
        assert second._max_weight == 50.0

    def test_batch_refreezes_between_runs(self):
        graph = self._graph()
        with batch_session(graph, "ST") as session:
            first = session.run([self._task()])
            graph.set_weight("u:0", "i:1", 3.0)
            second = session.run([self._task()])
        edge_weight = {
            e.key(): e.weight
            for e in second.results[0].explanation.subgraph.edges()
        }
        assert edge_weight.get(("i:1", "u:0")) == 3.0
        assert first.results[0].explanation.subgraph is not (
            second.results[0].explanation.subgraph
        )


class TestJsonlRoundtrip:
    @staticmethod
    def _assert_roundtrip(task: SummaryTask) -> None:
        restored = task_from_json(task_to_json(task))
        assert restored.scenario is task.scenario
        assert restored.terminals == task.terminals
        assert restored.anchors == task.anchors
        assert restored.focus == task.focus
        assert restored.k == task.k
        assert [p.nodes for p in restored.paths] == [
            p.nodes for p in task.paths
        ]

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_roundtrip_all_scenarios(self, scenario):
        """Every Scenario variant survives to-JSON-and-back verbatim."""
        self._assert_roundtrip(
            SummaryTask(
                scenario=scenario,
                terminals=("u:0", "u:1", "i:0", "i:1"),
                paths=(
                    Path(nodes=("u:0", "i:0")),
                    Path(nodes=("u:1", "i:1")),
                ),
                anchors=("i:0", "i:1"),
                focus=("u:0", "u:1"),
                k=2,
            )
        )

    @pytest.mark.parametrize(
        "scenario", [Scenario.USER_GROUP, Scenario.ITEM_GROUP]
    )
    def test_roundtrip_group_tasks_with_duplicate_terminals(self, scenario):
        """Duplicate terminal entries (two group members sharing an
        item/user) must survive verbatim — order and multiplicity are
        part of the task's identity for tie-breaking."""
        task = SummaryTask(
            scenario=scenario,
            terminals=("u:0", "u:1", "i:0", "i:0", "u:0"),
            paths=(
                Path(nodes=("u:0", "i:0")),
                Path(nodes=("u:1", "i:0")),
            ),
            anchors=("i:0", "i:0"),
            focus=("u:0", "u:1"),
            k=1,
        )
        self._assert_roundtrip(task)
        restored = task_from_json(task_to_json(task))
        assert restored.terminals.count("i:0") == 2
        assert restored.terminals.count("u:0") == 2

    def test_task_json_roundtrip(self):
        task = SummaryTask(
            scenario=Scenario.USER_GROUP,
            terminals=("u:0", "u:1", "i:0"),
            paths=(Path(nodes=("u:0", "i:0")),),
            anchors=("i:0",),
            focus=("u:0", "u:1"),
            k=3,
        )
        restored = task_from_json(task_to_json(task))
        assert restored.scenario is task.scenario
        assert restored.terminals == task.terminals
        assert restored.anchors == task.anchors
        assert restored.focus == task.focus
        assert restored.k == task.k
        assert [p.nodes for p in restored.paths] == [
            p.nodes for p in task.paths
        ]

    def test_file_roundtrip(self, tmp_path):
        tasks = [
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(f"u:{i}", "i:0"),
                paths=(),
                anchors=("i:0",),
                focus=(f"u:{i}",),
                k=1,
            )
            for i in range(3)
        ]
        path = tmp_path / "tasks.jsonl"
        dump_tasks_jsonl(tasks, path)
        restored = load_tasks_jsonl(path)
        assert [t.terminals for t in restored] == [t.terminals for t in tasks]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"scenario": "user-centric", "terminals": []}\n')
        with pytest.raises(ValueError, match="tasks.jsonl:1"):
            load_tasks_jsonl(path)

    def test_wrong_types_report_location_too(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(
            '{"scenario": "user-centric", "terminals": ["u:1"], "paths": 5}\n'
        )
        with pytest.raises(ValueError, match="tasks.jsonl:1"):
            load_tasks_jsonl(path)

    def test_default_frozen_costs_signature_never_aliases(self):
        from repro.graph.csr import FrozenCosts

        first = FrozenCosts([1.0, 1.0])
        second = FrozenCosts([2.0, 0.5])
        assert first.signature != second.signature
        assert first.signature != ()
