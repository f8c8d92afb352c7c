"""Batch backend comparison: serial vs processes throughput.

Emits the ``BENCH_batch.json`` perf-trajectory artifact (ops/s by
backend, worker count and graph size; under ``.perfbench-work/tier1/``,
git-ignored) so the parallel-scaling story is machine-readable, and
gates the process backend's speedup over serial on the 10k-node /
64-task batch — the CI acceptance criterion for the shared-memory
process pool. The gate only fires on multi-core machines (a process
pool cannot beat physics on one core); the artifact records the core
count so single-core trajectory points are self-describing.
"""

import json
import os
import time

import numpy as np
import pytest

from reporting import artifact_path

from repro.api import EngineConfig, ExplanationSession, ParallelConfig
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.generators import SyntheticSpec, generate_random_kg
from repro.graph.paths import Path as GraphPath
from repro.graph.shortest_paths import bfs_distances_indexed
from repro.graph.types import NodeType

BENCH_SIZES = (2_500, 10_000)
NUM_TASKS = 64
ITEMS_PER_TASK = 5
POOL_SIZE = 40
MIN_PROCESS_SPEEDUP = 1.5  # CI gate, 10k nodes / 64 tasks, multi-core


def _workload(num_nodes: int):
    """A graph plus λ>0 user-centric tasks over a popular-item pool."""
    spec = SyntheticSpec(num_nodes, edges_per_node=8.0)
    graph = generate_random_kg(spec, np.random.default_rng(7))
    frozen = graph.freeze()
    component = bfs_distances_indexed(
        frozen, max(range(frozen.num_nodes), key=frozen.degree)
    ).keys()
    in_component = [frozen.id_of(i) for i in sorted(component)]
    items = sorted(
        (n for n in in_component if NodeType.of(n) is NodeType.ITEM),
        key=graph.degree,
        reverse=True,
    )[:POOL_SIZE]
    users = [
        n for n in in_component if NodeType.of(n) is NodeType.USER
    ][:NUM_TASKS]
    assert len(users) == NUM_TASKS and len(items) == POOL_SIZE
    tasks = []
    for index, user in enumerate(users):
        chosen = tuple(
            items[(index * ITEMS_PER_TASK + j) % len(items)]
            for j in range(ITEMS_PER_TASK)
        )
        # Boost the user's real rating edges, so each task has its own
        # λ>0 cost surface.
        paths = tuple(
            GraphPath(nodes=(user, item))
            for item in chosen
            if graph.has_edge(user, item)
        )
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_CENTRIC,
                terminals=(user, *chosen),
                paths=paths,
                anchors=chosen,
                focus=(user,),
                k=ITEMS_PER_TASK,
            )
        )
    return graph, tasks


def _timed(graph, tasks, backend: str, workers: int = 0):
    """One cold session batch, timed from construction through close."""
    start = time.perf_counter()
    with ExplanationSession(
        graph,
        engine=EngineConfig(lam=1.0),
        parallel=ParallelConfig(backend=backend, workers=workers),
        default_method="ST",
    ) as session:
        report = session.run(tasks)
    seconds = time.perf_counter() - start
    return report, seconds


def test_batch_parallel_artifact(emit):
    cpus = os.cpu_count() or 1
    pool_workers = min(4, max(2, cpus))
    rows = []
    speedups_10k = {}
    for num_nodes in BENCH_SIZES:
        graph, tasks = _workload(num_nodes)
        configs = [("serial", {"backend": "serial"})]
        if num_nodes == max(BENCH_SIZES) and pool_workers != 2:
            configs.append(
                ("processes[2]", {"backend": "processes", "workers": 2})
            )
        configs.append(
            (
                f"processes[{pool_workers}]",
                {"backend": "processes", "workers": pool_workers},
            )
        )
        timings = {}
        for label, kwargs in configs:
            report, seconds = _timed(graph, tasks, **kwargs)
            timings[label] = seconds
            rows.append(
                {
                    "backend": label,
                    "graph_nodes": graph.num_nodes,
                    "graph_edges": graph.num_edges,
                    "tasks": len(tasks),
                    "seconds": seconds,
                    "ops_per_sec": len(tasks) / seconds,
                    "freeze_seconds": report.freeze_seconds,
                }
            )
        if num_nodes == max(BENCH_SIZES):
            for label, seconds in timings.items():
                if label != "serial":
                    speedups_10k[label] = timings["serial"] / seconds

    artifact = {
        "schema": "bench-batch/v1",
        "cpu_count": cpus,
        "tasks": NUM_TASKS,
        "method": "ST",
        "results": rows,
        "speedups_10k_vs_serial": speedups_10k,
    }
    artifact_path("BENCH_batch.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    emit(
        "batch_parallel",
        "\n".join(
            [
                f"batch backends, {NUM_TASKS} ST tasks ({cpus} cpus):",
                *(
                    f"  {row['backend']:<14} {row['graph_nodes']:>6} nodes "
                    f"{row['ops_per_sec']:8.1f} tasks/s"
                    for row in rows
                ),
                "trajectory in .perfbench-work/tier1/BENCH_batch.json",
            ]
        ),
    )
    best_process = max(
        (v for k, v in speedups_10k.items() if k.startswith("processes")),
        default=0.0,
    )
    if cpus >= 2:
        # The CI acceptance gate; meaningless on a single core.
        assert best_process >= MIN_PROCESS_SPEEDUP, speedups_10k
    else:
        pytest.skip(
            f"single-core machine: process speedup {best_process:.2f}x "
            "recorded in BENCH_batch.json, gate skipped"
        )
