"""Shared-closure-store benchmark: hit rate and throughput.

Runs the same batch of group-summary tasks against a synthetic
10k-node knowledge graph on the processes backend, with the
cross-worker closure store on and off, for two request mixes:

- **skewed** — every task draws its terminals from a small hot set
  (a handful of users rotating over three popular items), the regime
  the store is built for: one worker computes a closure, its siblings
  fetch it.
- **uniform** — each task touches fresh users and items, so nearly
  every closure is a cold compute and the store can only add
  overhead. This leg bounds the worst case.

For every mix the store-on and store-off runs are checked
**bit-identical** (node lists and canonically sorted edge lists of
every summary subgraph), and the artifact records elapsed wall-clock,
tasks/s, and the store hit rate. Results land in the repo-root
``BENCH_cache.json`` trajectory artifact (joining
``BENCH_server.json`` et al.).

Not a pytest module (the ``bench_`` prefix keeps it out of
collection); run it directly::

    PYTHONPATH=src python benchmarks/bench_cache.py
    PYTHONPATH=src python benchmarks/bench_cache.py \\
        --nodes 10000 --tasks 64 --assert-speedup  # the CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    ClosureStoreConfig,
    ExplanationSession,
    ParallelConfig,
)
from repro.core.scenarios import Scenario, SummaryTask  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    SyntheticSpec,
    generate_random_kg,
)

SEED = 11


def build_graph(nodes: int):
    spec = SyntheticSpec(nodes, edges_per_node=8.0)
    return generate_random_kg(spec, np.random.default_rng(SEED))


def skewed_tasks(graph, count: int) -> list[SummaryTask]:
    """Hot-set mix: eight users rotating in pairs over three items."""
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    items = sorted(n for n in graph.nodes() if n.startswith("i:"))
    hot_items = tuple(items[:3])
    tasks = []
    for i in range(count):
        group = (users[i % 8], users[(i + 1) % 8])
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_GROUP,
                terminals=(*group, *hot_items),
                paths=(),
                anchors=hot_items,
                focus=group,
            )
        )
    return tasks


def uniform_tasks(graph, count: int) -> list[SummaryTask]:
    """Cold mix: every task touches fresh users and items."""
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    items = sorted(n for n in graph.nodes() if n.startswith("i:"))
    tasks = []
    for i in range(count):
        group = (
            users[(2 * i) % len(users)],
            users[(2 * i + 1) % len(users)],
        )
        picks = tuple(
            items[(3 * i + j) % len(items)] for j in range(3)
        )
        tasks.append(
            SummaryTask(
                scenario=Scenario.USER_GROUP,
                terminals=(*group, *picks),
                paths=(),
                anchors=picks,
                focus=group,
            )
        )
    return tasks


def warmup_tasks(graph) -> list[SummaryTask]:
    """Tiny sacrificial batch (terminals outside both mixes) that
    pays pool spawn + graph export before the clock starts."""
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    items = sorted(n for n in graph.nodes() if n.startswith("i:"))
    group = (users[-1], users[-2])
    picks = (items[-1], items[-2])
    return [
        SummaryTask(
            scenario=Scenario.USER_GROUP,
            terminals=(*group, *picks),
            paths=(),
            anchors=picks,
            focus=group,
        )
    ]


def canonical(report) -> list:
    out = []
    for result in report.results:
        if result.failure is not None:
            raise RuntimeError(f"task failed: {result.failure}")
        subgraph = result.explanation.subgraph
        out.append(
            (
                list(subgraph.nodes()),
                sorted(
                    (e.source, e.target, e.weight)
                    for e in subgraph.edges()
                ),
            )
        )
    return out


def run_leg(graph, tasks, *, store, workers: int) -> dict:
    session = ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=workers),
        store=store,
    )
    with session:
        session.run(warmup_tasks(graph))  # spawn pool, export graph
        start = time.perf_counter()
        report = session.run(tasks)
        elapsed = time.perf_counter() - start
        lookups = report.store_hits + report.store_misses
        return {
            "elapsed_seconds": elapsed,
            "tasks_per_second": len(tasks) / elapsed,
            "store_hits": report.store_hits,
            "store_misses": report.store_misses,
            "hit_rate": (
                report.store_hits / lookups if lookups else None
            ),
            "summaries": canonical(report),
        }


def run_mix(graph, tasks, *, workers: int, store_mb: float) -> dict:
    store = ClosureStoreConfig(
        enabled=True, capacity_bytes=int(store_mb * 2**20)
    )
    off = run_leg(graph, tasks, store=None, workers=workers)
    on = run_leg(graph, tasks, store=store, workers=workers)
    identical = on.pop("summaries") == off.pop("summaries")
    return {
        "tasks": len(tasks),
        "store_off": off,
        "store_on": on,
        "speedup": off["elapsed_seconds"] / on["elapsed_seconds"],
        "bit_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--tasks", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--store-mb", type=float, default=64.0)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_cache.json")
    )
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="exit 1 unless the skewed mix shows >= 1.5x speedup, "
        ">= 0.5 hit rate, and bit-identical summaries on both mixes",
    )
    args = parser.parse_args()

    graph = build_graph(args.nodes)
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges, "
        f"{args.tasks} tasks, {args.workers} process workers"
    )

    mixes = {}
    for name, maker in (
        ("skewed", skewed_tasks),
        ("uniform", uniform_tasks),
    ):
        point = run_mix(
            graph,
            maker(graph, args.tasks),
            workers=args.workers,
            store_mb=args.store_mb,
        )
        mixes[name] = point
        on, off = point["store_on"], point["store_off"]
        rate = on["hit_rate"]
        print(
            f"{name:8s} off {off['elapsed_seconds']:7.2f}s"
            f" ({off['tasks_per_second']:6.1f} tasks/s)"
            f"  on {on['elapsed_seconds']:7.2f}s"
            f" ({on['tasks_per_second']:6.1f} tasks/s)"
            f"  speedup {point['speedup']:.2f}x"
            f"  hit-rate {rate if rate is None else f'{rate:.2f}'}"
            f"  bit-identical {point['bit_identical']}"
        )

    artifact = {
        "schema": "bench-cache/v1",
        "cpu_count": os.cpu_count(),
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "workers": args.workers,
        "store_mb": args.store_mb,
        "mixes": mixes,
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if args.assert_speedup:
        skewed = mixes["skewed"]
        if skewed["speedup"] < 1.5:
            failures.append(
                f"skewed speedup {skewed['speedup']:.2f}x < 1.5x"
            )
        rate = skewed["store_on"]["hit_rate"]
        if rate is None or rate < 0.5:
            failures.append(f"skewed store hit rate {rate} < 0.5")
        for name, point in mixes.items():
            if not point["bit_identical"]:
                failures.append(
                    f"{name} mix: store-on summaries diverged"
                )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
