"""Micro-benchmarks of the two summarization kernels (honest multi-round
pytest-benchmark timing, unlike the one-shot figure reproductions), plus
the CSR engine benchmarks: dict vs frozen Dijkstra / Mehlhorn / PCST on
synthetic graphs — emitting the machine-readable ``BENCH_engine.json``
perf-trajectory artifact (under ``.perfbench-work/tier1/``, git-ignored)
and asserting the indexed Mehlhorn and PCST speedups (>= 1.3x on the
10k-node graph) — and batch vs per-task summarization throughput over
100+ tasks (the freeze-then-batch acceptance gate)."""

import json
import time

import numpy as np
import pytest

from reporting import artifact_path

from repro.api import ExplanationSession
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.summarizer import Summarizer
from repro.graph.generators import SyntheticSpec, generate_random_kg
from repro.graph.mehlhorn import mehlhorn_steiner_tree
from repro.graph.pcst import paper_pcst
from repro.graph.shortest_paths import (
    bfs_distances_indexed,
    dijkstra,
    dijkstra_indexed,
)
from repro.graph.steiner import steiner_tree
from repro.graph.types import NodeType


@pytest.fixture(scope="module")
def kernel_inputs(ci_bench):
    task = next(
        iter(ci_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 10).values())
    )
    group_task = next(
        iter(ci_bench.tasks(Scenario.USER_GROUP, "PGPR", 10).values())
    )
    return ci_bench.graph, task, group_task


def test_steiner_kernel_user_centric(benchmark, kernel_inputs):
    graph, task, _ = kernel_inputs
    tree = benchmark(
        steiner_tree, graph, list(task.terminals), lambda u, v, w: 1.0
    )
    assert tree.num_nodes >= len(task.terminals)


def test_pcst_kernel_user_centric(benchmark, kernel_inputs):
    graph, task, _ = kernel_inputs
    prizes = {t: 1.0 for t in task.terminals}
    forest = benchmark(paper_pcst, graph, prizes)
    assert forest.num_nodes >= 1


def test_steiner_kernel_group(benchmark, kernel_inputs):
    graph, _, group_task = kernel_inputs
    tree = benchmark.pedantic(
        steiner_tree,
        args=(graph, list(group_task.terminals), lambda u, v, w: 1.0),
        rounds=2,
        iterations=1,
    )
    assert tree.num_nodes >= 2


def test_pcst_kernel_group(benchmark, kernel_inputs):
    graph, _, group_task = kernel_inputs
    prizes = {t: 1.0 for t in group_task.terminals}
    forest = benchmark(paper_pcst, graph, prizes)
    assert forest.num_nodes >= 2


# ----------------------------------------------------------------------
# CSR engine: dict vs frozen traversal, single vs batch throughput
# ----------------------------------------------------------------------
NUM_BATCH_TASKS = 100
ITEMS_PER_TASK = 5
POOL_SIZE = 40  # popular-item pool shared across tasks (like real top-k)


@pytest.fixture(scope="module")
def synthetic_graph():
    """~10k-node synthetic KG (Table III shape, thinned edge budget)."""
    spec = SyntheticSpec(10_000, edges_per_node=8.0)
    return generate_random_kg(spec, np.random.default_rng(7))


@pytest.fixture(scope="module")
def batch_tasks(synthetic_graph):
    """100+ user-centric tasks over a shared popular-item pool.

    Users and items are restricted to one connected component (so no
    task triggers the narrowing fallback) and items are drawn from a
    degree-sorted pool, mirroring how production top-k lists concentrate
    on popular items — the overlap the closure cache feeds on.
    """
    graph = synthetic_graph
    frozen = graph.freeze()
    component = bfs_distances_indexed(
        frozen,
        max(range(frozen.num_nodes), key=frozen.degree),
    ).keys()
    in_component = [frozen.id_of(i) for i in sorted(component)]
    items = sorted(
        (n for n in in_component if NodeType.of(n) is NodeType.ITEM),
        key=graph.degree,
        reverse=True,
    )[:POOL_SIZE]
    users = [
        n for n in in_component if NodeType.of(n) is NodeType.USER
    ][:NUM_BATCH_TASKS]
    assert len(users) == NUM_BATCH_TASKS and len(items) == POOL_SIZE
    tasks = []
    for index, user in enumerate(users):
        chosen = tuple(
            items[(index * ITEMS_PER_TASK + j) % len(items)]
            for j in range(ITEMS_PER_TASK)
        )
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *chosen),
                paths=(),
                anchors=chosen,
                focus=(user,),
                k=ITEMS_PER_TASK,
            )
        )
    return tasks


def test_dijkstra_dict_kernel(benchmark, synthetic_graph):
    source = next(iter(synthetic_graph.nodes()))
    dist, _ = benchmark.pedantic(
        dijkstra, args=(synthetic_graph, source), rounds=3, iterations=1
    )
    assert len(dist) > 1


def test_dijkstra_csr_kernel(benchmark, synthetic_graph):
    frozen = synthetic_graph.freeze()
    source_id = next(iter(synthetic_graph.nodes()))
    dist, prev = benchmark.pedantic(
        dijkstra_indexed,
        args=(frozen, frozen.index_of(source_id)),
        rounds=3,
        iterations=1,
    )
    # Parity with the dict kernel: distances AND predecessor trees.
    dict_dist, dict_prev = dijkstra(synthetic_graph, source_id)
    ids = frozen.ids
    assert dict_dist == {ids[n]: d for n, d in dist.items()}
    assert dict_prev == {ids[n]: ids[p] for n, p in prev.items()}


# ----------------------------------------------------------------------
# Engine comparison artifact: method x engine x graph size -> ops/s
# ----------------------------------------------------------------------
ENGINE_BENCH_SIZES = (2_500, 10_000)
ENGINE_BENCH_ROUNDS = 3
ENGINE_BENCH_TERMINALS = 24
MIN_ENGINE_SPEEDUP = 1.3  # CI gate on the 10k-node graph


def _component_terminals(graph, count):
    """Deterministic high-degree terminals within one component."""
    frozen = graph.freeze()
    component = bfs_distances_indexed(
        frozen, max(range(frozen.num_nodes), key=frozen.degree)
    ).keys()
    in_component = [frozen.id_of(i) for i in sorted(component)]
    return sorted(in_component, key=graph.degree, reverse=True)[:count]


def _best_seconds(fn, rounds=ENGINE_BENCH_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_speedups_artifact(emit):
    """Time every ported kernel on both engines, persist the trajectory
    as machine-readable JSON, and gate the 10k-node speedups."""
    unit = lambda _u, _v, _w: 1.0  # noqa: E731
    rows = []
    speedups_10k = {}
    for num_nodes in ENGINE_BENCH_SIZES:
        spec = SyntheticSpec(num_nodes, edges_per_node=8.0)
        graph = generate_random_kg(spec, np.random.default_rng(7))
        frozen = graph.freeze()
        terminals = _component_terminals(graph, ENGINE_BENCH_TERMINALS)
        prizes = {t: 1.0 for t in terminals}
        unit_costs = frozen.costs_from(unit)
        source = terminals[0]
        source_idx = frozen.index_of(source)

        timings = {
            ("dijkstra", "dict"): _best_seconds(
                lambda: dijkstra(graph, source)
            ),
            ("dijkstra", "csr"): _best_seconds(
                lambda: dijkstra_indexed(frozen, source_idx)
            ),
            ("mehlhorn", "dict"): _best_seconds(
                lambda: mehlhorn_steiner_tree(graph, terminals, cost_fn=unit)
            ),
            ("mehlhorn", "csr"): _best_seconds(
                lambda: mehlhorn_steiner_tree(
                    graph,
                    terminals,
                    cost_fn=unit,
                    frozen=frozen,
                    slot_costs=unit_costs,
                )
            ),
            ("pcst", "dict"): _best_seconds(
                lambda: paper_pcst(graph, prizes, seeds=terminals)
            ),
            ("pcst", "csr"): _best_seconds(
                lambda: paper_pcst(
                    graph, prizes, seeds=terminals, frozen=frozen
                )
            ),
        }
        for (method, engine), seconds in timings.items():
            rows.append(
                {
                    "method": method,
                    "engine": engine,
                    "graph_nodes": graph.num_nodes,
                    "graph_edges": graph.num_edges,
                    "seconds": seconds,
                    "ops_per_sec": 1.0 / seconds if seconds > 0 else None,
                }
            )
        if num_nodes == 10_000:
            for method in ("dijkstra", "mehlhorn", "pcst"):
                speedups_10k[method] = (
                    timings[(method, "dict")] / timings[(method, "csr")]
                )

    artifact = {
        "schema": "bench-engine/v1",
        "rounds": ENGINE_BENCH_ROUNDS,
        "terminals": ENGINE_BENCH_TERMINALS,
        "results": rows,
        "speedups_10k": speedups_10k,
    }
    artifact_path("BENCH_engine.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    emit(
        "engine_speedups",
        "\n".join(
            [
                "dict -> csr speedups (10k-node graph, best of "
                f"{ENGINE_BENCH_ROUNDS}):",
                *(
                    f"  {method:<9} {speedup:5.2f}x"
                    for method, speedup in speedups_10k.items()
                ),
                "full trajectory in .perfbench-work/tier1/BENCH_engine.json",
            ]
        ),
    )
    # The CI gate: each ported hot loop must beat its dict oracle.
    assert speedups_10k["mehlhorn"] >= MIN_ENGINE_SPEEDUP
    assert speedups_10k["pcst"] >= MIN_ENGINE_SPEEDUP


def test_batch_vs_single_task_loop(synthetic_graph, batch_tasks, emit):
    """The acceptance gate: a session batch beats the per-task loop."""
    single = Summarizer(synthetic_graph, method="ST")
    start = time.perf_counter()
    expected = [single.summarize(task) for task in batch_tasks]
    single_seconds = time.perf_counter() - start

    with ExplanationSession(synthetic_graph, default_method="ST") as session:
        report = session.run(batch_tasks)

    for exp, result in zip(expected, report.results):
        assert sorted(exp.subgraph.nodes()) == sorted(
            result.explanation.subgraph.nodes()
        )
        assert {e.key() for e in exp.subgraph.edges()} == {
            e.key() for e in result.explanation.subgraph.edges()
        }

    emit(
        "batch_throughput",
        "\n".join(
            [
                f"single-task loop: {single_seconds * 1000.0:9.1f} ms "
                f"({len(batch_tasks) / single_seconds:.1f} tasks/s)",
                report.summary(),
                f"speedup: {single_seconds / report.total_seconds:.2f}x",
            ]
        ),
    )
    assert report.cache_hits > 0
    assert report.total_seconds < single_seconds
