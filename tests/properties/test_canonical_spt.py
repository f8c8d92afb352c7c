"""Canonical-SPT determinism and batch-vs-cold parity.

- canonical path reconstruction picks the same tree regardless of heap
  tie-breaking — so the dict engine, the CSR engine, and any adjacency
  insertion order agree;
- a session batch over λ>0 tasks with disjoint boost sets produces
  bit-identical summaries to cold per-task runs;
- the serial, thread and process backends of
  :class:`~repro.api.ExplanationSession` return bit-identical reports
  for the same workload.
"""

import random

import numpy as np
import pytest

from repro.api import EngineConfig, ExplanationSession, ParallelConfig
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.summarizer import Summarizer
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path


def canonical(explanation):
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


def _diamond() -> KnowledgeGraph:
    """Two equal-cost routes u:0 -> u:1; insertion favors the i:5 arm."""
    graph = KnowledgeGraph()
    graph.add_edge("u:0", "i:5", 1.0)
    graph.add_edge("i:5", "u:1", 1.0)
    graph.add_edge("u:0", "i:3", 1.0)
    graph.add_edge("i:3", "u:1", 1.0)
    return graph


def _task(terminals) -> SummaryTask:
    return SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=tuple(terminals),
        paths=(),
        anchors=tuple(terminals[1:]),
        focus=(terminals[0],),
        k=len(terminals) - 1,
    )


class TestCanonicalTieBreaking:
    def test_min_id_route_wins_on_ties(self):
        """λ=0 costs are uniform: the heap would keep the first-inserted
        arm (i:5); canonical reconstruction picks the min-id arm (i:3),
        identically on both engines."""
        graph = _diamond()
        task = _task(["u:0", "u:1"])
        for engine in ("frozen", "dict"):
            tree = Summarizer(
                graph, method="ST", lam=0.0, engine=engine
            ).summarize(task)
            assert "i:3" in tree.subgraph
            assert "i:5" not in tree.subgraph

    def test_heap_order_preserved_when_canonical_off(self):
        graph = _diamond()
        task = _task(["u:0", "u:1"])
        for engine in ("frozen", "dict"):
            tree = Summarizer(
                graph, method="ST", lam=0.0, engine=engine, canonical=False
            ).summarize(task)
            assert "i:5" in tree.subgraph

    def test_insertion_order_independence(self):
        """Shuffled adjacency insertion must not change the summary
        (λ=0 is the tie-heavy worst case: every cost is exactly 1)."""
        edges = [("u:%d" % (i % 6), "i:%d" % i, 1.0 + i % 3) for i in range(12)]
        edges += [("u:%d" % ((i + 2) % 6), "i:%d" % i, 2.0) for i in range(12)]
        edges += [("i:%d" % i, "e:g:%d" % (i % 3), 0.0, "g") for i in range(12)]
        task = _task(["u:0", "i:3", "i:7", "u:5"])
        rng = random.Random(17)
        baseline = None
        for _shuffle in range(4):
            order = list(edges)
            rng.shuffle(order)
            graph = KnowledgeGraph.from_edges(order)
            for engine in ("frozen", "dict"):
                tree = Summarizer(
                    graph, method="ST", lam=0.0, engine=engine
                ).summarize(task)
                key = canonical(tree)
                if baseline is None:
                    baseline = key
                assert key == baseline


@pytest.fixture(scope="module")
def boosted_workload():
    """λ>0 tasks with pairwise-disjoint boost sets over a shared graph
    (each task boosts its own user's rating edges), so no two tasks
    share a cost signature."""
    rng = np.random.default_rng(23)
    graph = KnowledgeGraph()
    num_users, num_items = 10, 18
    for i in range(num_items):
        u = i % num_users
        graph.add_edge(f"u:{u}", f"i:{i}", float(rng.integers(1, 6)))
        graph.add_edge(
            f"u:{(u + 4) % num_users}", f"i:{i}", float(rng.integers(1, 6))
        )
        graph.add_edge(f"i:{i}", f"e:g:{i % 4}", 0.0, "g")
    tasks = []
    for u in range(num_users):
        user = f"u:{u}"
        items = sorted(graph.neighbors(user))[:3]
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *items),
                paths=tuple(Path(nodes=(user, item)) for item in items),
                anchors=tuple(items),
                focus=(user,),
                k=len(items),
            )
        )
    return graph, tasks


def _run(graph, tasks, lam, backend="serial"):
    """One session batch of ST over ``tasks`` on the given backend."""
    with ExplanationSession(
        graph,
        engine=EngineConfig(lam=lam),
        parallel=ParallelConfig(backend=backend, workers=2),
        default_method="st",
    ) as session:
        return session.run(tasks)


class TestBatchParity:
    def test_batch_matches_cold_runs_bit_for_bit(self, boosted_workload):
        """The acceptance pin: a default session batch equals a cold
        per-task Summarizer exactly."""
        graph, tasks = boosted_workload
        cold = [
            Summarizer(graph, method="ST", lam=2.0).summarize(task)
            for task in tasks
        ]
        report = _run(graph, tasks, 2.0)
        for expected, result in zip(cold, report.results):
            assert canonical(expected) == canonical(result.explanation)

    def test_backends_agree_bit_for_bit(self, boosted_workload):
        graph, tasks = boosted_workload
        reports = [
            _run(graph, tasks, 2.0, backend)
            for backend in ("serial", "processes")
        ]
        assert reports[1].parallel == "processes"
        keys = [
            [canonical(r.explanation) for r in report.results]
            for report in reports
        ]
        assert keys[0] == keys[1]

    def test_lambda_sweep_stays_exact(self, boosted_workload):
        """Across the paper's λ sweep, batch == cold for every task."""
        graph, tasks = boosted_workload
        for lam in (0.01, 1.0, 100.0):
            cold = [
                Summarizer(graph, method="ST", lam=lam).summarize(task)
                for task in tasks
            ]
            report = _run(graph, tasks, lam)
            for expected, result in zip(cold, report.results):
                assert canonical(expected) == canonical(result.explanation)
