"""Work-stealing pool on a skewed mix: throughput and first-result latency.

The workload is the serving layer's worst case for a static schedule:
a 10k-node graph serving 64 tasks of which 4 are heavy group scenarios
(a dozen users x a pool of items, ~22 terminals each, each worth
dozens of singletons) sitting at the *end* of the batch, behind 60
singletons. The work-stealing pool spreads the stragglers one per
worker the moment they surface, and streams every result the moment
its worker finishes it.

Emits the ``BENCH_serving.json`` trajectory artifact (under
``.perfbench-work/tier1/``, git-ignored) and gates, on every machine,
that the first streamed result lands in under a quarter of the same
warm session's ``run()`` wall time on the mix — per-task streaming,
not a batch barrier — with the streamed results bit-identical to the
run's.
"""

import json
import os
import time

import numpy as np

from reporting import artifact_path

from repro.api import ExplanationSession, ParallelConfig, SchedulerConfig
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.generators import SyntheticSpec, generate_random_kg
from repro.graph.paths import Path as GraphPath
from repro.graph.shortest_paths import bfs_distances_indexed
from repro.graph.types import NodeType

NUM_NODES = 10_000
NUM_TASKS = 64
NUM_HEAVY = 4
HEAVY_USERS = 12
HEAVY_ITEMS = 10
LIGHT_ITEMS = 2
#: The first streamed result must land within this fraction of run()'s
#: wall time on the same warm session.
MAX_FIRST_RESULT_FRACTION = 0.25


def _skewed_workload():
    """10k nodes; 60 singletons followed by 4 heavy group tasks."""
    spec = SyntheticSpec(NUM_NODES, edges_per_node=8.0)
    graph = generate_random_kg(spec, np.random.default_rng(11))
    frozen = graph.freeze()
    component = bfs_distances_indexed(
        frozen, max(range(frozen.num_nodes), key=frozen.degree)
    ).keys()
    in_component = [frozen.id_of(i) for i in sorted(component)]
    items = sorted(
        (n for n in in_component if NodeType.of(n) is NodeType.ITEM),
        key=graph.degree,
        reverse=True,
    )[:40]
    users = [n for n in in_component if NodeType.of(n) is NodeType.USER]
    num_light = NUM_TASKS - NUM_HEAVY
    needed = num_light + NUM_HEAVY * HEAVY_USERS
    assert len(users) >= needed and len(items) >= HEAVY_ITEMS

    def boost_paths(user_pool, item_pool):
        return tuple(
            GraphPath(nodes=(user, item))
            for user in user_pool
            for item in item_pool
            if graph.has_edge(user, item)
        )

    tasks = []
    for index in range(num_light):
        user = users[index]
        chosen = tuple(
            items[(index * LIGHT_ITEMS + j) % len(items)]
            for j in range(LIGHT_ITEMS)
        )
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *chosen),
                paths=boost_paths([user], chosen),
                anchors=chosen,
                focus=(user,),
                k=LIGHT_ITEMS,
            )
        )
    # Every heavy task shares one popular-item pool (its cost comes from
    # its 12 unique users), so per-worker cache locality is identical
    # under any dispatch order — the schedulers race on scheduling
    # alone, not on which worker happens to have which items cached.
    heavy_items = tuple(items[:HEAVY_ITEMS])
    for heavy in range(NUM_HEAVY):
        group = users[
            num_light + heavy * HEAVY_USERS :
            num_light + (heavy + 1) * HEAVY_USERS
        ]
        chosen = heavy_items
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_GROUP,
                terminals=(*group, *chosen),
                paths=boost_paths(group, chosen),
                anchors=chosen,
                focus=tuple(group),
                k=HEAVY_ITEMS,
            )
        )
    assert len(tasks) == NUM_TASKS
    return graph, tasks


def _canonical(explanation):
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


def _timed(graph, tasks, workers: int):
    """Warm a pool, then time run() and stream() of the same batch."""
    session = ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=workers),
        # max_workers pinned to the worker count so the elastic pool
        # runs at the width the artifact records.
        scheduler=SchedulerConfig(max_workers=workers),
    )
    with session:
        session.run(tasks[:workers])  # spawn + attach + freeze, off-clock
        start = time.perf_counter()
        report = session.run(tasks)
        seconds = time.perf_counter() - start
        stream_start = time.perf_counter()
        iterator = session.stream(tasks)
        streamed = [next(iterator)]
        first_ms = (time.perf_counter() - stream_start) * 1000.0
        streamed.extend(iterator)
        stats = session.stats
        return report, streamed, {
            "scheduler": report.scheduler,
            "workers": workers,
            "seconds": seconds,
            "ops_per_sec": len(tasks) / seconds,
            "first_result_ms": first_ms,
            "latency_p50_ms": report.latency_p50_ms,
            "latency_p95_ms": report.latency_p95_ms,
            "steals": stats.steals,
            "grows": stats.grows,
            "peak_queue_depth": stats.peak_queue_depth,
        }


def test_serving_scheduler_artifact(emit):
    cpus = os.cpu_count() or 1
    workers = min(4, max(2, cpus))
    graph, tasks = _skewed_workload()

    report, streamed, row = _timed(graph, tasks, workers)

    # The stream covers the batch, bit-identical to the run.
    by_index = {result.index: result for result in streamed}
    assert sorted(by_index) == list(range(NUM_TASKS))
    for want in report.results:
        assert _canonical(by_index[want.index].explanation) == (
            _canonical(want.explanation)
        )

    first_fraction = row["first_result_ms"] / (row["seconds"] * 1000.0)
    artifact = {
        "schema": "bench-serving/v2",
        "cpu_count": cpus,
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "tasks": NUM_TASKS,
        "heavy_tasks": NUM_HEAVY,
        "heavy_terminals": HEAVY_USERS + HEAVY_ITEMS,
        "method": "ST",
        "results": [row],
        "first_result_fraction_of_run": first_fraction,
    }
    artifact_path("BENCH_serving.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    emit(
        "serving_scheduler",
        "\n".join(
            [
                f"skewed mix: {NUM_TASKS - NUM_HEAVY} singletons + "
                f"{NUM_HEAVY} group tasks, {workers} workers "
                f"({cpus} cpus):",
                f"  {row['scheduler']:<14} {row['seconds']:7.2f} s "
                f"{row['ops_per_sec']:7.1f} tasks/s | first result "
                f"{row['first_result_ms']:7.1f} ms | steals "
                f"{row['steals']}",
                f"first result at {first_fraction:.1%} of run() wall time",
                "trajectory in .perfbench-work/tier1/BENCH_serving.json",
            ]
        ),
    )

    # Per-task streaming: the first result never waits on the batch.
    assert first_fraction < MAX_FIRST_RESULT_FRACTION, artifact
