"""Resilience benchmark: batch completion under injected worker crashes.

The claim under test (ISSUE 7): supervised recovery degrades
*proportionally* — a worker crash costs roughly one task redo plus one
respawn, not a collapse of the whole batch to the serial fallback (the
pre-supervision behavior, where the first dead worker broke the pool
and the session re-ran everything locally).

The workload is the familiar 10k-node synthetic graph serving
singleton user-centric tasks. Three timed runs inject 0 / 1 / 2
crashes via seeded :class:`FaultPlan.scatter` plans — identical task
lists, identical crash sites per seed — and the gates assert:

- every run completes all tasks successfully (retry budget absorbs
  the crashes; zero typed failures, zero local fallbacks);
- ``SessionStats.worker_deaths`` equals the injected crash count;
- results stay bit-identical to the crash-free run;
- wall-clock degradation stays bounded (each crash costs at most a
  flush-grace + respawn + redo, far under a serial fallback).

Refreshes the ``BENCH_resilience.json`` trajectory artifact under
``.perfbench-work/tier1/`` (git-ignored; uploaded by the CI ``chaos``
job).
"""

import json
import os
import time
import warnings

import numpy as np

from reporting import artifact_path

from repro.api import ExplanationSession, ParallelConfig, SchedulerConfig
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.generators import SyntheticSpec, generate_random_kg
from repro.graph.paths import Path as GraphPath
from repro.graph.shortest_paths import bfs_distances_indexed
from repro.graph.types import NodeType
from repro.serving.config import ResilienceConfig
from repro.serving.faults import FaultPlan


NUM_NODES = 10_000
NUM_TASKS = 48
ITEMS_PER_TASK = 2
CRASH_COUNTS = (0, 1, 2)
SCATTER_SEED = 23
#: Per-crash overhead bound: the injected flush grace (0.2s) + a
#: worker respawn + one task redo, with headroom for one-core CI. A
#: serial-fallback collapse re-runs all NUM_TASKS and blows way past
#: this.
PER_CRASH_BUDGET_SECONDS = 2.5


def _singleton_workload():
    """10k nodes; NUM_TASKS user-centric singleton tasks."""
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
    assert len(users) >= NUM_TASKS and len(items) >= ITEMS_PER_TASK
    tasks = []
    for index in range(NUM_TASKS):
        user = users[index]
        chosen = tuple(
            items[(index * ITEMS_PER_TASK + j) % len(items)]
            for j in range(ITEMS_PER_TASK)
        )
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *chosen),
                paths=tuple(
                    GraphPath(nodes=(user, item))
                    for item in chosen
                    if graph.has_edge(user, item)
                ),
                anchors=chosen,
                focus=(user,),
                k=ITEMS_PER_TASK,
            )
        )
    return graph, tasks


def _canonical(explanation):
    subgraph = explanation.subgraph
    return (
        sorted(subgraph.nodes()),
        sorted((e.source, e.target, e.weight) for e in subgraph.edges()),
    )


def _timed_chaos_run(graph, tasks, crashes: int, workers: int):
    """One warm batch with ``crashes`` injected worker kills."""
    plan = FaultPlan.scatter(SCATTER_SEED, len(tasks), crashes=crashes)
    session = ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=workers),
        scheduler=SchedulerConfig(max_workers=workers),
        resilience=ResilienceConfig(max_task_retries=3),
        faults=plan if crashes else None,
    )
    with warnings.catch_warnings():
        # A silent local fallback would time the wrong code path.
        warnings.simplefilter("error", RuntimeWarning)
        with session:
            session.run(tasks[:workers])  # spawn + freeze, off-clock
            start = time.perf_counter()
            report = session.run(tasks)
            seconds = time.perf_counter() - start
            stats = session.stats
    assert len(report.results) == len(tasks)
    assert report.failed == 0
    assert all(result.ok for result in report.results)
    assert stats.worker_deaths == crashes
    assert stats.local_fallbacks == 0
    return report, {
        "crashes": crashes,
        "crash_sites": sorted(fault.at for fault in plan.faults),
        "workers": workers,
        "seconds": seconds,
        "ops_per_sec": len(tasks) / seconds,
        "worker_deaths": stats.worker_deaths,
        "task_retries": stats.task_retries,
        "retried": report.retried,
    }


def test_resilience_degradation_artifact(emit):
    cpus = os.cpu_count() or 1
    workers = min(4, max(2, cpus))
    graph, tasks = _singleton_workload()

    reports, rows = [], []
    for crashes in CRASH_COUNTS:
        report, row = _timed_chaos_run(graph, tasks, crashes, workers)
        reports.append(report)
        rows.append(row)

    # Crashes must not change a single bit of any successful result.
    baseline_report = reports[0]
    for report in reports[1:]:
        for want, got in zip(baseline_report.results, report.results):
            assert _canonical(got.explanation) == (
                _canonical(want.explanation)
            ), got.index

    # Proportional degradation: each crash buys one bounded redo, not
    # a fall back to re-running the whole batch serially.
    baseline = rows[0]["seconds"]
    for row in rows[1:]:
        budget = baseline + row["crashes"] * PER_CRASH_BUDGET_SECONDS
        assert row["seconds"] <= budget, (
            f"{row['crashes']} crash(es) took {row['seconds']:.2f}s; "
            f"budget {budget:.2f}s (baseline {baseline:.2f}s)"
        )

    artifact = {
        "schema": "bench-resilience/v1",
        "cpu_count": cpus,
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "tasks": NUM_TASKS,
        "method": "ST",
        "scatter_seed": SCATTER_SEED,
        "per_crash_budget_seconds": PER_CRASH_BUDGET_SECONDS,
        "results": rows,
    }
    artifact_path("BENCH_resilience.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    emit(
        "resilience",
        "\n".join(
            [
                f"{NUM_TASKS} singleton tasks, {workers} workers "
                f"({cpus} cpus), retry budget 3:",
                *(
                    f"  {row['crashes']} crash(es): "
                    f"{row['seconds']:6.2f} s "
                    f"{row['ops_per_sec']:7.1f} tasks/s | "
                    f"deaths={row['worker_deaths']} "
                    f"retried={row['retried']}"
                    for row in rows
                ),
            ]
        ),
    )
