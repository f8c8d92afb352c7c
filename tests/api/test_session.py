"""ExplanationSession service API: parity, warm resources, invalidation.

The acceptance contract for the service layer:

- every method x scenario combination routed through the session is
  bit-identical to the legacy entry points;
- consecutive ``run()`` calls on an unchanged graph skip re-freeze /
  re-export and reuse the warm process pool (asserted via the session's
  stats counters — this class of test is the CI warm-session smoke);
- a graph mutation between calls triggers exactly one rebuild.
"""

import warnings

import pytest

from repro.api import (
    CacheConfig,
    EngineConfig,
    ExplanationSession,
    MethodSpec,
    ParallelConfig,
    SummaryRequest,
    available_methods,
    method_spec,
    register_method,
    unregister_method,
)
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.summarizer import METHODS, Summarizer
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path

#: service-name -> legacy facade name, the full routing table.
METHOD_NAMES = {
    "st": "ST",
    "st-fast": "ST-fast",
    "pcst": "PCST",
    "union": "Union",
}


def canonical(explanation):
    """Comparable form of a summary: nodes plus weighted edge list."""
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


@pytest.fixture(scope="module")
def scenario_tasks(test_bench):
    """A couple of tasks per scenario, drawn from the workbench."""
    tasks = {}
    for scenario in Scenario:
        pool = list(test_bench.tasks(scenario, "PGPR", 4).values())
        assert pool, scenario
        tasks[scenario] = pool[:2]
    return tasks


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


def small_task(terminal: str = "i:1") -> SummaryTask:
    return SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=("u:0", terminal),
        paths=(Path(nodes=("u:0", "i:0", "e:genre:0", terminal)),),
        anchors=(terminal,),
        focus=("u:0",),
        k=1,
    )


class TestParityWithLegacyEntryPoints:
    """All four methods x all four scenarios, bit-identical."""

    @pytest.mark.parametrize("name", sorted(METHOD_NAMES))
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_session_matches_summarizer(
        self, name, scenario, test_bench, scenario_tasks
    ):
        legacy = Summarizer(test_bench.graph, method=METHOD_NAMES[name])
        with ExplanationSession(test_bench.graph) as session:
            for task in scenario_tasks[scenario]:
                got = session.explain(
                    SummaryRequest(task=task, method=name)
                )
                assert canonical(got) == canonical(legacy.summarize(task))

    @pytest.mark.parametrize("name", sorted(METHOD_NAMES))
    def test_run_matches_legacy_batch(
        self, name, test_bench, scenario_tasks
    ):
        tasks = [t for pool in scenario_tasks.values() for t in pool]
        legacy = Summarizer(test_bench.graph, method=METHOD_NAMES[name])
        with ExplanationSession(
            test_bench.graph, default_method=name
        ) as session:
            report = session.run(tasks)
        assert report.method == METHOD_NAMES[name]
        assert [r.index for r in report.results] == list(range(len(tasks)))
        for task, result in zip(tasks, report.results):
            assert canonical(result.explanation) == canonical(
                legacy.summarize(task)
            )

    def test_legacy_method_names_route_as_aliases(self, test_bench):
        task = next(iter(test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values()))
        with ExplanationSession(test_bench.graph) as session:
            for legacy_name in METHODS:
                got = session.explain(
                    SummaryRequest(task=task, method=legacy_name)
                )
                expected = Summarizer(
                    test_bench.graph, method=legacy_name
                ).summarize(task)
                assert canonical(got) == canonical(expected)

    def test_process_backend_parity(self, test_bench, scenario_tasks):
        tasks = [t for pool in scenario_tasks.values() for t in pool]
        with ExplanationSession(test_bench.graph) as serial_session:
            serial = serial_session.run(tasks)
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            processes = session.run(tasks)
        assert processes.parallel == "processes"
        for a, b in zip(serial.results, processes.results):
            assert canonical(a.explanation) == canonical(b.explanation)

    def test_per_request_overrides(self, test_bench, scenario_tasks):
        task = scenario_tasks[Scenario.USER_CENTRIC][0]
        with ExplanationSession(test_bench.graph) as session:
            got = session.explain(
                SummaryRequest(task=task, overrides={"lam": 100.0})
            )
        expected = Summarizer(
            test_bench.graph, method="ST", lam=100.0
        ).summarize(task)
        assert canonical(got) == canonical(expected)

    def test_bare_tasks_are_coerced(self, test_bench, scenario_tasks):
        tasks = scenario_tasks[Scenario.USER_CENTRIC]
        with ExplanationSession(test_bench.graph) as session:
            report = session.run(tasks)
        assert len(report.results) == len(tasks)
        assert report.method == "ST"

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_heap_order_st_matches_dict_engine_on_ties(self, backend):
        """canonical=False ST keeps the heap Dijkstra's tie-breaking on
        both backends: on a two-armed tie (the canonical-SPT suite's
        diamond) every summary equals the dict engine's, so no closure
        from the numpy kernel ever serves these requests."""
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:5", 1.0)
        graph.add_edge("i:5", "u:1", 1.0)
        graph.add_edge("u:0", "i:3", 1.0)
        graph.add_edge("i:3", "u:1", 1.0)
        task = SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0", "u:1"),
            paths=(),
            anchors=("u:1",),
            focus=("u:0",),
            k=1,
        )
        expected = canonical(
            Summarizer(
                graph, method="ST", lam=0.0, engine="dict", canonical=False
            ).summarize(task)
        )
        assert "i:5" in expected[0]  # heap order keeps the first arm
        with ExplanationSession(
            graph,
            engine=EngineConfig(lam=0.0, canonical=False),
            parallel=ParallelConfig(backend=backend, workers=2),
        ) as session:
            report = session.run([task] * 4)
        assert report.parallel == backend
        assert [canonical(r.explanation) for r in report.results] == (
            [expected] * 4
        )


class TestWarmResources:
    """The CI warm-session smoke: two batches, one set of resources."""

    def test_consecutive_runs_reuse_pool_and_export(self):
        graph = small_graph()
        tasks = [small_task() for _ in range(6)]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes", workers=2)
        ) as session:
            first = session.run(tasks)
            warm_stats = (
                session.stats.freezes,
                session.stats.exports,
                session.stats.pool_starts,
            )
            second = session.run(tasks)
            # No re-freeze, no re-export, no respawn for an unchanged
            # graph version — and the warm report shows it.
            assert warm_stats == (1, 1, 1)
            assert (
                session.stats.freezes,
                session.stats.exports,
                session.stats.pool_starts,
            ) == (1, 1, 1)
            assert second.freeze_seconds == 0.0
            assert session.stats.invalidations == 0
            for a, b in zip(first.results, second.results):
                assert canonical(a.explanation) == canonical(b.explanation)

    def test_mutation_triggers_exactly_one_rebuild(self):
        graph = small_graph()
        graph.add_edge("u:0", "i:1", 1.0)
        tasks = [small_task() for _ in range(6)]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes", workers=2)
        ) as session:
            session.run(tasks)
            graph.set_weight("u:0", "i:1", 3.0)
            after = session.run(tasks)
            assert session.stats.invalidations == 1
            assert session.stats.freezes == 2
            assert session.stats.exports == 2
            assert session.stats.pool_starts == 2
            # The rebuilt state serves post-mutation results.
            weights = {
                e.key(): e.weight
                for e in after.results[0].explanation.subgraph.edges()
            }
            assert weights.get(("i:1", "u:0")) == 3.0
            # And only once: the next run stays warm.
            session.run(tasks)
            assert session.stats.invalidations == 1
            assert session.stats.exports == 2
            assert session.stats.pool_starts == 2

    def test_serial_path_reuses_closure_cache_across_runs(self):
        graph = small_graph()
        tasks = [small_task() for _ in range(3)]
        with ExplanationSession(graph) as session:
            first = session.run(tasks)
            second = session.run(tasks)
        assert first.cache_misses > 0
        # Warm run: every closure request is a cache hit.
        assert second.cache_misses == 0
        assert second.cache_hits > 0
        assert session.stats.freezes == 1

    def test_no_shared_memory_leak_after_close(self):
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        graph = small_graph()
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes", workers=2)
        ) as session:
            session.run([small_task() for _ in range(4)])
        after = {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("rxg")
        }
        assert after <= before

    def test_closed_session_refuses_work(self):
        session = ExplanationSession(small_graph())
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run([small_task()])

    def test_process_fallback_warns_and_stays_correct(self, monkeypatch):
        from repro.graph.csr import FrozenGraph

        def broken_export(self):
            raise OSError("no shared memory on this box")

        monkeypatch.setattr(FrozenGraph, "to_shared", broken_export)
        graph = small_graph()
        tasks = [small_task() for _ in range(3)]
        expected = [
            Summarizer(graph, method="ST").summarize(task) for task in tasks
        ]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes")
        ) as session:
            with pytest.warns(RuntimeWarning, match="process backend"):
                report = session.run(tasks)
        assert report.parallel == "serial"
        for exp, result in zip(expected, report.results):
            assert canonical(exp) == canonical(result.explanation)


class TestStreaming:
    """stream() yields results as tasks complete, covering the batch."""

    @pytest.mark.parametrize(
        "parallel",
        [
            ParallelConfig(),
            ParallelConfig(backend="processes", workers=2),
        ],
        ids=["serial", "processes"],
    )
    def test_stream_covers_batch_with_identical_results(self, parallel):
        graph = small_graph()
        graph.add_edge("u:0", "i:1", 1.0)
        tasks = [small_task() for _ in range(6)]
        with ExplanationSession(graph) as reference:
            expected = reference.run(tasks)
        with ExplanationSession(graph, parallel=parallel) as session:
            streamed = list(session.stream(tasks))
        assert sorted(r.index for r in streamed) == list(range(len(tasks)))
        by_index = {r.index: r for r in streamed}
        for result in expected.results:
            assert canonical(by_index[result.index].explanation) == (
                canonical(result.explanation)
            )

    def test_stream_is_incremental(self):
        """The iterator hands back a result before the batch is done."""
        graph = small_graph()
        tasks = [small_task() for _ in range(5)]
        with ExplanationSession(graph) as session:
            iterator = session.stream(tasks)
            first = next(iterator)
            assert first.index == 0
            rest = list(iterator)
        assert len(rest) == len(tasks) - 1

    def test_stream_reuses_warm_pool(self):
        graph = small_graph()
        tasks = [small_task() for _ in range(6)]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes", workers=2)
        ) as session:
            list(session.stream(tasks))
            list(session.stream(tasks))
            assert session.stats.pool_starts == 1
            assert session.stats.exports == 1


class TestRunFoldsStream:
    """run() drains the same completion-order dispatch stream() yields:
    results sorted back into input order, per-task deltas summed."""

    @pytest.mark.parametrize("name", sorted(METHOD_NAMES))
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_run_matches_stream(
        self, backend, name, test_bench, scenario_tasks
    ):
        requests = [
            SummaryRequest(task=task, method=name)
            for pool in scenario_tasks.values()
            for task in pool
        ]
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend=backend, workers=2),
        ) as session:
            report = session.run(requests)
            streamed = list(session.stream(requests))
        assert report.parallel == backend
        assert report.method == METHOD_NAMES[name]
        indices = list(range(len(requests)))
        assert [r.index for r in report.results] == indices
        assert sorted(r.index for r in streamed) == indices
        by_index = {r.index: r for r in streamed}
        for result in report.results:
            assert result.ok and by_index[result.index].ok
            assert canonical(by_index[result.index].explanation) == (
                canonical(result.explanation)
            ), result.index

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_report_counters_are_the_summed_task_deltas(
        self, backend, test_bench, scenario_tasks
    ):
        """Every closure lookup is counted exactly once, whichever
        worker's cache served it, and the retired store counters stay
        0."""
        tasks = [t for pool in scenario_tasks.values() for t in pool] * 2
        with ExplanationSession(test_bench.graph) as reference:
            serial = reference.run(tasks)
        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend=backend, workers=2),
        ) as session:
            report = session.run(tasks)
            stats = session.stats
        assert report.parallel == backend
        assert report.cache_misses > 0
        assert report.cache_hits > 0  # the second pass repeats the first
        assert report.cache_hits + report.cache_misses == (
            serial.cache_hits + serial.cache_misses
        )
        assert (report.store_hits, report.store_misses) == (0, 0)
        assert (stats.store_hits, stats.store_misses) == (0, 0)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_empty_batch_folds_to_empty_report(self, backend):
        with ExplanationSession(
            small_graph(),
            parallel=ParallelConfig(backend=backend, workers=2),
        ) as session:
            report = session.run([])
            assert list(session.stream([])) == []
            assert session.stats.pool_starts == 0
        assert report.results == ()
        assert report.parallel == "serial"
        assert (report.cache_hits, report.cache_misses) == (0, 0)

    def test_stream_demotes_when_export_fails(self, monkeypatch):
        from repro.graph.csr import FrozenGraph

        def broken_export(self):
            raise OSError("no shared memory on this box")

        monkeypatch.setattr(FrozenGraph, "to_shared", broken_export)
        graph = small_graph()
        tasks = [small_task() for _ in range(3)]
        expected = [
            Summarizer(graph, method="ST").summarize(task) for task in tasks
        ]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes")
        ) as session:
            with pytest.warns(RuntimeWarning, match="process backend"):
                streamed = list(session.stream(tasks))
            assert session.stats.local_fallbacks == 1
            assert session.stats.pool_starts == 0
        assert [r.index for r in streamed] == [0, 1, 2]
        for exp, result in zip(expected, streamed):
            assert canonical(exp) == canonical(result.explanation)

    def test_run_demotes_when_pool_breaks_mid_drain(self, monkeypatch):
        """A pool failure after results started landing still demotes
        the whole batch to one serial rerun, not a partial report."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.serving.pool import ElasticWorkerPool

        dispatch = ElasticWorkerPool.dispatch

        def breaks_after_one_result(self, jobs, trace=None):
            drain = dispatch(self, jobs, trace=trace)

            def results():
                try:
                    yield next(drain)
                    raise BrokenProcessPool("worker vanished mid-drain")
                finally:
                    drain.close()

            return results()

        monkeypatch.setattr(
            ElasticWorkerPool, "dispatch", breaks_after_one_result
        )
        graph = small_graph()
        tasks = [small_task() for _ in range(4)]
        expected = [
            Summarizer(graph, method="ST").summarize(task) for task in tasks
        ]
        with ExplanationSession(
            graph, parallel=ParallelConfig(backend="processes", workers=2)
        ) as session:
            with pytest.warns(RuntimeWarning, match="mid-drain"):
                report = session.run(tasks)
            assert session.stats.local_fallbacks == 1
        assert report.parallel == "serial"
        assert [r.index for r in report.results] == [0, 1, 2, 3]
        for exp, result in zip(expected, report.results):
            assert canonical(exp) == canonical(result.explanation)


class TestRegistry:
    def test_builtins_present(self):
        names = available_methods()
        for name in METHOD_NAMES:
            assert name in names

    def test_custom_method_routes_through_session(self, test_bench):
        class EchoSummarizer:
            def __init__(self, graph):
                self.graph = graph

            def summarize(self, task):
                from repro.core.explanation import SubgraphExplanation

                subgraph = KnowledgeGraph()
                for terminal in task.terminals:
                    subgraph.add_node(terminal)
                return SubgraphExplanation(
                    subgraph=subgraph, task=task, method="Echo"
                )

        register_method(
            MethodSpec(
                name="echo",
                legacy_name="Echo",
                builder=lambda graph, config, cache: EchoSummarizer(graph),
                uses_traversal=False,
            )
        )
        try:
            task = next(
                iter(
                    test_bench.tasks(
                        Scenario.USER_CENTRIC, "PGPR", 4
                    ).values()
                )
            )
            with ExplanationSession(test_bench.graph) as session:
                got = session.explain(
                    SummaryRequest(task=task, method="echo")
                )
                assert sorted(got.subgraph.nodes()) == sorted(
                    set(task.terminals)
                )
                # Runtime registrations are not process-safe: an
                # explicit processes backend demotes to local with a
                # warning instead of shipping an unpicklable builder.
                with ExplanationSession(
                    test_bench.graph,
                    parallel=ParallelConfig(backend="processes"),
                ) as proc_session:
                    with pytest.warns(
                        RuntimeWarning, match="process-safe"
                    ):
                        report = proc_session.run(
                            [SummaryRequest(task=task, method="echo")]
                        )
                    assert report.parallel == "serial"
        finally:
            unregister_method("echo")
        with pytest.raises(ValueError, match="unknown method"):
            method_spec("echo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method(MethodSpec(name="st", legacy_name="ST"))

    def test_unknown_method_fails_at_resolution(self):
        with ExplanationSession(small_graph()) as session:
            with pytest.raises(ValueError, match="unknown method"):
                session.explain(
                    SummaryRequest(task=small_task(), method="nope")
                )


class TestConfigs:
    def test_engine_config_validates(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EngineConfig(engine="gpu")

    def test_cache_config_validates(self):
        with pytest.raises(ValueError, match="closure_size"):
            CacheConfig(closure_size=0)

    def test_parallel_config_validates(self):
        with pytest.raises(ValueError, match="parallel backend"):
            ParallelConfig(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(workers=-1)

    def test_threads_backend_is_gone(self):
        """The thread-pool backend was retired (it ran below serial speed
        on these GIL-bound traversals); naming it now fails loudly."""
        with pytest.raises(ValueError, match="parallel backend 'threads'"):
            ParallelConfig(backend="threads")

    def test_chunk_size_is_gone(self):
        """Static chunks went with the chunked scheduler: the
        work-stealing pool hands out one task per pull."""
        with pytest.raises(TypeError, match="chunk_size"):
            ParallelConfig(backend="processes", chunk_size=4)

    def test_csr_engine_alias_is_gone(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EngineConfig(engine="csr")

    def test_unknown_override_is_rejected(self):
        with ExplanationSession(small_graph()) as session:
            with pytest.raises(ValueError, match="unknown engine override"):
                session.explain(
                    SummaryRequest(
                        task=small_task(), overrides={"lambda": 2.0}
                    )
                )


class TestDeprecatedShim:
    def test_session_construction_does_not_warn(self, test_bench):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with ExplanationSession(test_bench.graph) as session:
                session.explain(
                    next(
                        iter(
                            test_bench.tasks(
                                Scenario.USER_CENTRIC, "PGPR", 4
                            ).values()
                        )
                    )
                )


class TestRetiredSurface:
    """The batch shim, its JSON aliases, the incremental summarizer and
    the chunked scheduler's helpers are gone, not merely deprecated."""

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core", "BatchSummarizer"),
            ("repro.core.batch", "BatchSummarizer"),
            ("repro.core.batch", "task_to_json"),
            ("repro.core.batch", "task_from_json"),
            ("repro.core", "IncrementalSteinerSummarizer"),
            ("repro.serving", "static_chunks"),
            ("repro.serving", "SCHEDULER_MODES"),
        ],
    )
    def test_name_is_not_exported(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)


class TestPluginHandshake:
    """Runtime-registered methods become process-safe when their
    ``plugin_module`` is listed in ``ParallelConfig.plugin_modules``:
    pool workers import the module at init, re-creating the
    registration inside the fresh interpreter."""

    PLUGIN_SOURCE = (
        "from repro.api import MethodSpec, register_method\n"
        "\n"
        "register_method(\n"
        "    MethodSpec(\n"
        "        name='plugin-st',\n"
        "        legacy_name='ST',\n"
        "        uses_closure_cache=True,\n"
        "        plugin_module='st_plugin_mod',\n"
        "    ),\n"
        "    replace=True,\n"
        ")\n"
    )

    def test_listed_plugin_runs_on_processes(
        self, test_bench, tmp_path, monkeypatch
    ):
        import importlib
        import sys

        (tmp_path / "st_plugin_mod.py").write_text(self.PLUGIN_SOURCE)
        monkeypatch.syspath_prepend(str(tmp_path))
        importlib.import_module("st_plugin_mod")
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values()
        )[:3]
        requests = [
            SummaryRequest(task=task, method="plugin-st")
            for task in tasks
        ]
        try:
            with ExplanationSession(test_bench.graph) as control:
                expected = [
                    canonical(r.explanation)
                    for r in control.run(tasks).results
                ]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with ExplanationSession(
                    test_bench.graph,
                    parallel=ParallelConfig(
                        backend="processes",
                        workers=2,
                        plugin_modules=("st_plugin_mod",),
                    ),
                ) as session:
                    report = session.run(requests)
            assert report.parallel == "processes"
            got = [canonical(r.explanation) for r in report.results]
            assert got == expected
        finally:
            unregister_method("plugin-st")
            sys.modules.pop("st_plugin_mod", None)

    def test_unlisted_plugin_still_demotes(
        self, test_bench, tmp_path, monkeypatch
    ):
        import importlib
        import sys

        (tmp_path / "st_plugin_mod.py").write_text(self.PLUGIN_SOURCE)
        monkeypatch.syspath_prepend(str(tmp_path))
        importlib.import_module("st_plugin_mod")
        task = next(
            iter(
                test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values()
            )
        )
        try:
            with ExplanationSession(
                test_bench.graph,
                parallel=ParallelConfig(backend="processes", workers=2),
            ) as session:
                with pytest.warns(RuntimeWarning, match="process-safe"):
                    report = session.run(
                        [SummaryRequest(task=task, method="plugin-st")]
                    )
                assert report.parallel == "serial"
        finally:
            unregister_method("plugin-st")
            sys.modules.pop("st_plugin_mod", None)
