"""Observability overhead benchmark: the ≤3% tracing-disabled gate.

Runs the same skewed batch of group-summary tasks against a synthetic
10k-node knowledge graph on the processes backend under three
observability settings:

- **off** — ``ObservabilityConfig(metrics=False, trace=False)``: the
  baseline with every telemetry hook compiled down to one attribute
  check that fails.
- **default** — ``ObservabilityConfig()`` (metrics on, tracing off):
  what every session ships with. The CI gate lives here — the default
  configuration may cost at most 3% wall-clock over the fully-off
  baseline.
- **traced** — metrics + tracing on: informational only, recorded so
  the artifact shows what opting in costs.

Each leg pays pool spawn + graph export with a sacrificial warmup
batch before the clock starts, and runs the measured batch
``--repeats`` times taking the best (min) wall-clock, so scheduler
jitter does not fail the gate. Results land in the repo-root
``BENCH_obs.json`` trajectory artifact (joining ``BENCH_cache.json``
et al.).

Not a pytest module (the ``bench_`` prefix keeps it out of
collection); run it directly::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py \\
        --nodes 10000 --tasks 64 --assert-overhead  # the CI gate
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
    ExplanationSession,
    ObservabilityConfig,
    ParallelConfig,
)
from repro.core.scenarios import Scenario, SummaryTask  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    SyntheticSpec,
    generate_random_kg,
)

SEED = 11

#: The acceptance bound: default observability (metrics on, tracing
#: off) may cost at most this fraction of wall-clock over fully-off.
MAX_OVERHEAD = 0.03


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


def warmup_tasks(graph) -> list[SummaryTask]:
    """Tiny sacrificial batch (terminals outside the mix) that pays
    pool spawn + graph export before the clock starts."""
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


def run_leg(
    graph, tasks, *, obs: ObservabilityConfig, workers: int, repeats: int
) -> dict:
    session = ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=workers),
        obs=obs,
    )
    timings = []
    with session:
        session.run(warmup_tasks(graph))  # spawn pool, export graph
        for _ in range(repeats):
            start = time.perf_counter()
            report = session.run(tasks)
            timings.append(time.perf_counter() - start)
            if report.failed:
                raise RuntimeError(
                    f"{report.failed} tasks failed under obs={obs}"
                )
    best = min(timings)
    return {
        "elapsed_seconds": best,
        "tasks_per_second": len(tasks) / best,
        "all_runs_seconds": timings,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--tasks", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="measured runs per leg; the best (min) is compared",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_obs.json")
    )
    parser.add_argument(
        "--assert-overhead",
        action="store_true",
        help="exit 1 if default observability (metrics on, tracing "
        f"off) costs more than {MAX_OVERHEAD:.0%} over fully-off",
    )
    args = parser.parse_args()

    graph = build_graph(args.nodes)
    tasks = skewed_tasks(graph, args.tasks)
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges, "
        f"{args.tasks} tasks, {args.workers} process workers, "
        f"best of {args.repeats}"
    )

    legs = {}
    for name, obs in (
        ("off", ObservabilityConfig(metrics=False, trace=False)),
        ("default", ObservabilityConfig()),
        ("traced", ObservabilityConfig(metrics=True, trace=True)),
    ):
        legs[name] = run_leg(
            graph,
            tasks,
            obs=obs,
            workers=args.workers,
            repeats=args.repeats,
        )
        print(
            f"{name:8s} {legs[name]['elapsed_seconds']:7.3f}s"
            f" ({legs[name]['tasks_per_second']:6.1f} tasks/s)"
        )

    off = legs["off"]["elapsed_seconds"]
    overhead = (legs["default"]["elapsed_seconds"] - off) / off
    trace_overhead = (legs["traced"]["elapsed_seconds"] - off) / off
    print(
        f"default-vs-off overhead {overhead:+.2%} "
        f"(gate <= {MAX_OVERHEAD:.0%}), "
        f"traced-vs-off {trace_overhead:+.2%} (informational)"
    )

    artifact = {
        "schema": "bench-obs/v1",
        "cpu_count": os.cpu_count(),
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "tasks": args.tasks,
        "workers": args.workers,
        "repeats": args.repeats,
        "legs": legs,
        "default_overhead": overhead,
        "traced_overhead": trace_overhead,
        "max_overhead": MAX_OVERHEAD,
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.assert_overhead and overhead > MAX_OVERHEAD:
        print(
            f"GATE FAILED: default observability overhead "
            f"{overhead:+.2%} > {MAX_OVERHEAD:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
