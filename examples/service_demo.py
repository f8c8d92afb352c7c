"""Service API demo: one warm `ExplanationSession` serving traffic.

Shows the session facade end to end — typed configs, method routing
with per-request overrides, consecutive warm batches (no re-freeze for
an unchanged graph), automatic invalidation on mutation, the streaming
iterator, and the work-stealing scheduler's elastic worker pool
(`SchedulerConfig`: grow under queue pressure, steal accounting,
per-task result streaming). Runs in a few seconds::

    python examples/service_demo.py

This file is the deprecation canary: CI runs it under
``-W error::DeprecationWarning``, so it must stay on supported API.
"""

import time

import numpy as np

from repro.api import (
    EngineConfig,
    ExplanationSession,
    ParallelConfig,
    SchedulerConfig,
    SummaryRequest,
    available_methods,
)
from repro.core.scenarios import user_centric_task
from repro.data import (
    ExternalSchema,
    MovieLensSpec,
    attach_external_knowledge,
    generate_ml1m_like,
)
from repro.graph.build import build_interaction_graph
from repro.recommenders import PGPRRecommender


def main() -> None:
    # 1. A small ML1M-shaped knowledge graph plus PGPR explanations.
    dataset = generate_ml1m_like(MovieLensSpec(scale=0.03, seed=7))
    graph = build_interaction_graph(dataset.ratings)
    attach_external_knowledge(
        graph, ExternalSchema.movies(), np.random.default_rng(0)
    )
    recommender = PGPRRecommender().fit(graph, dataset.ratings)
    users = [u for u in list(graph.nodes())[:400] if u.startswith("u:")][:12]
    tasks = [
        user_centric_task(recommender.recommend(user, 5), 5)
        for user in users
    ]
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges; "
        f"{len(tasks)} user-centric tasks; methods: "
        f"{', '.join(available_methods())}"
    )

    # 2. One session owns the frozen view, caches and worker pool.
    session = ExplanationSession(
        graph,
        engine=EngineConfig(lam=1.0),
        parallel=ParallelConfig(workers=2),
        default_method="st",
    )
    with session:
        # One-off requests, routed by method name with per-request
        # overrides — no summarizer construction in sight.
        one = session.explain(tasks[0])
        pcst = session.explain(SummaryRequest(task=tasks[0], method="pcst"))
        sticky = session.explain(
            SummaryRequest(task=tasks[0], overrides={"lam": 100.0})
        )
        print(
            f"\nexplain(): st={one.subgraph.num_edges} edges, "
            f"pcst={pcst.subgraph.num_edges} edges, "
            f"st(λ=100)={sticky.subgraph.num_edges} edges"
        )

        # Two consecutive batches: the second reuses everything warm.
        first = session.run(tasks)
        second = session.run(tasks)
        print("\nfirst batch:")
        print(first.summary())
        print("\nsecond batch (warm — closures cached, no re-freeze):")
        print(second.summary())
        print(
            f"session stats after 2 batches: freezes={session.stats.freezes} "
            f"invalidations={session.stats.invalidations}"
        )

        # Mutating the graph invalidates derived state exactly once.
        some_user = users[0]
        neighbor = next(iter(graph.neighbors(some_user)))
        graph.set_weight(some_user, neighbor, 4.5)
        session.run(tasks)
        print(
            f"after a graph mutation + 1 batch: freezes="
            f"{session.stats.freezes} "
            f"invalidations={session.stats.invalidations}"
        )

        # Streaming: each result arrives the moment it is finished.
        print("\nstreaming the batch:")
        for done, result in enumerate(session.stream(tasks[:6]), start=1):
            print(
                f"  [{done}/6] task #{result.index}: "
                f"{result.explanation.subgraph.num_edges} edges "
                f"in {result.latency_ms:.2f} ms"
            )

    # 3. The work-stealing scheduler with an elastic process pool: one
    # shared task queue, per-task pulls (a slow task occupies exactly
    # one worker), pool growth under queue pressure, and per-task
    # result streaming straight out of the workers.
    print("\nwork-stealing scheduler (elastic process pool):")
    with ExplanationSession(
        graph,
        parallel=ParallelConfig(backend="processes", workers=1),
        scheduler=SchedulerConfig(min_workers=1, max_workers=3),
    ) as serving:
        start = time.perf_counter()
        for done, result in enumerate(serving.stream(tasks), start=1):
            if done == 1:
                first_ms = (time.perf_counter() - start) * 1000.0
                print(f"  first result streamed after {first_ms:.0f} ms")
        report = serving.run(tasks)  # warm pool, same results
        stats = serving.stats
        print(
            f"  warm batch: {report.throughput:.1f} tasks/s "
            f"(p50 {report.latency_p50_ms:.2f} ms / "
            f"p95 {report.latency_p95_ms:.2f} ms per task)"
        )
        print(
            f"  scheduler stats: steals={stats.steals} "
            f"grows={stats.grows} shrinks={stats.shrinks} "
            f"peak_queue_depth={stats.peak_queue_depth}"
        )


if __name__ == "__main__":
    main()
