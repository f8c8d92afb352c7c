"""Command-line entry point: regenerate any experiment by id.

Usage::

    repro-xsum table1
    repro-xsum table2
    repro-xsum fig2 --scale ci
    repro-xsum userstudy
    repro-xsum batch --tasks tasks.jsonl --method ST
    repro-xsum batch --demo 100 --method ST --parallel processes --workers 4
    repro-xsum batch --demo 100 --stream
    repro-xsum batch --demo 100 --parallel processes --min-workers 1 --max-workers 8
    repro-xsum batch --demo 100 --parallel processes --closure-store --store-mb 128
    repro-xsum batch --demo 100 --trace --slow-ms 50
    repro-xsum serve --port 7737 --max-pending 64 --idle-ttl 30
    repro-xsum serve --state-dir ./state --drain-timeout 15
    repro-xsum serve --trace --log-json
    repro-xsum metrics --port 7737
    repro-xsum list

The ``batch`` subcommand serves a batch through the service API
(:class:`repro.api.ExplanationSession`: freeze/export once, warm worker
pool, typed configs) over a JSONL task file (one :class:`SummaryTask`
per line, see ``repro.api.protocol.task_to_json`` for the schema) — or
over ``--demo N`` user-centric tasks drawn from the workbench
recommender when no file is given — and prints per-batch timing and
closure-cache statistics. ``--stream`` prints each result the moment
its worker finishes it. ``--parallel`` picks the serial or the
process backend (``auto`` by default); ``--min-workers`` /
``--max-workers`` bound the process backend's elastic pool.

The ``serve`` subcommand starts the network front door
(:class:`repro.serving.ExplanationServer`): the workbench graph hosted
as session ``"default"``, spoken to over the length-prefixed
:mod:`repro.api.protocol` envelopes by
:class:`repro.serving.ExplanationClient` (or anything that implements
the framing spec in the README). ``--max-pending`` bounds admission
per graph; ``--idle-ttl`` releases pooled resources of idle sessions;
``--state-dir`` makes mutations crash-safe (journaled before acked,
replayed on restart); SIGTERM/ctrl-c drains gracefully under
``--drain-timeout``.

Observability (batch and serve): ``--trace`` records a span tree per
request (printed after a traced batch; served via the ``trace`` op),
``--slow-ms`` logs any slower request with its span breakdown,
``--no-metrics`` disables the default-on Prometheus registry, and
``--log-json`` switches structured logs to JSON lines. The
``metrics`` subcommand probes a running server and prints its
Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_series_table, format_table
from repro.experiments.tables import table1_example, table2, table3
from repro.experiments.user_study import simulate_user_study
from repro.experiments.workbench import Workbench

_FIGURES = {
    f"fig{n}": getattr(figures, f"figure{n}") for n in range(2, 18)
}


def _config(args) -> ExperimentConfig:
    if args.scale == "paper":
        config = ExperimentConfig.paper_scale()
    elif args.scale == "test":
        config = ExperimentConfig.test_scale()
    else:
        config = ExperimentConfig.ci_scale()
    if args.dataset:
        config = config.with_dataset(args.dataset)
    return config


def _print_panels(name: str, panels) -> None:
    for panel, series in panels.items():
        print(format_series_table(f"{name} [{panel}]", series))
        print()


def _run_batch(parser: argparse.ArgumentParser, args) -> int:
    """The ``batch`` subcommand: one session, freeze once, serve tasks."""
    from repro.api import (
        ClosureStoreConfig,
        EngineConfig,
        ExplanationSession,
        ParallelConfig,
        SchedulerConfig,
    )
    from repro.core.batch import load_tasks_jsonl
    from repro.obs import ObservabilityConfig, format_trace
    from repro.serving.config import ResilienceConfig
    from repro.core.scenarios import Scenario

    bench = Workbench.get(_config(args))
    if args.tasks:
        try:
            tasks = load_tasks_jsonl(args.tasks)
        except OSError as error:
            parser.error(f"cannot read task file: {error}")
        except ValueError as error:
            parser.error(str(error))
    elif args.demo > 0:
        pool = list(
            bench.tasks(Scenario.USER_CENTRIC, "PGPR", args.k).values()
        )
        if not pool:
            parser.error("workbench produced no demo tasks")
        tasks = [pool[i % len(pool)] for i in range(args.demo)]
    else:
        parser.error("batch needs --tasks FILE or --demo N")
    session = ExplanationSession(
        bench.graph,
        engine=EngineConfig(engine=args.engine),
        parallel=ParallelConfig(
            backend=None if args.parallel == "auto" else args.parallel,
            workers=args.workers,
        ),
        scheduler=SchedulerConfig(
            min_workers=args.min_workers,
            max_workers=args.max_workers,
        ),
        default_method=args.method,
        resilience=ResilienceConfig(
            max_task_retries=args.max_task_retries,
            task_timeout_seconds=args.task_timeout,
        ),
        store=ClosureStoreConfig(
            enabled=args.closure_store,
            capacity_bytes=max(4096, int(args.store_mb * 2**20)),
        ),
        obs=ObservabilityConfig(
            metrics=args.metrics,
            trace=args.trace,
            slow_ms=args.slow_ms,
            log_json=args.log_json,
        ),
    )
    with session:
        if args.stream:
            done = 0
            for result in session.stream(tasks):
                done += 1
                if result.failure is not None:
                    print(
                        f"[{done}/{len(tasks)}] task #{result.index} "
                        f"FAILED: {result.failure}"
                    )
                    continue
                print(
                    f"[{done}/{len(tasks)}] task #{result.index} "
                    f"({result.latency_ms:.2f} ms, "
                    f"{result.explanation.subgraph.num_edges} edges)"
                )
        else:
            report = session.run(tasks)
            print(report.summary())
        for line in (
            session.stats.scheduler_line(),
            session.stats.resilience_line(),
            session.stats.cache_line(),
        ):
            if line:
                print(line)
        if args.trace:
            print(format_trace(session.last_trace()))
    return 0


def _run_serve(parser: argparse.ArgumentParser, args) -> int:
    """The ``serve`` subcommand: asyncio front door over the workbench.

    SIGTERM and SIGINT both trigger a graceful drain: the server stops
    admitting (typed ``shutting-down`` frames), in-flight dispatches
    finish and write their responses under ``--drain-timeout``, the
    mutation journal (with ``--state-dir``) is flushed, then the
    process exits.
    """
    import asyncio
    import signal

    from repro.api import ClosureStoreConfig, ParallelConfig, SchedulerConfig
    from repro.obs import ObservabilityConfig
    from repro.serving.config import ResilienceConfig
    from repro.serving.server import ExplanationServer, ServerConfig

    bench = Workbench.get(_config(args))
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            pool_idle_ttl_seconds=args.idle_ttl,
            drain_timeout_seconds=args.drain_timeout,
        )
    except ValueError as error:
        parser.error(str(error))
    server = ExplanationServer(
        bench.graph,
        config,
        parallel=ParallelConfig(
            backend=None if args.parallel == "auto" else args.parallel,
            workers=args.workers,
        ),
        scheduler=SchedulerConfig(
            min_workers=args.min_workers,
            max_workers=args.max_workers,
        ),
        default_method=args.method,
        resilience=ResilienceConfig(
            max_task_retries=args.max_task_retries,
            task_timeout_seconds=args.task_timeout,
        ),
        state_dir=args.state_dir or None,
        store=ClosureStoreConfig(
            enabled=args.closure_store,
            capacity_bytes=max(4096, int(args.store_mb * 2**20)),
        ),
        obs=ObservabilityConfig(
            metrics=args.metrics,
            trace=args.trace,
            slow_ms=args.slow_ms,
            log_json=args.log_json,
        ),
    )

    async def serve() -> int:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_stop)
        durable = " (durable)" if args.state_dir else ""
        print(
            f"serving graph 'default'{durable} "
            f"({bench.graph.num_nodes} nodes, {bench.graph.num_edges} "
            f"edges) on {config.host}:{server.port} — SIGTERM/ctrl-c "
            "drains and stops"
        )
        await server.wait_stop_requested()
        print("drain requested; refusing new work, finishing in-flight")
        drained = await server.stop(drain=True)
        print("server stopped" if drained else "drain deadline hit")
        return 0 if drained else 1

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        # Second ctrl-c during the drain: abandon it.
        print("\nserver stopped (drain interrupted)")
        return 1


def _run_metrics(parser: argparse.ArgumentParser, args) -> int:
    """The ``metrics`` subcommand: scrape a running server's exposition.

    Connects to ``--host``/``--port``, fetches the Prometheus text via
    the ``metrics`` op, validates it parses, and prints it — the same
    text a scrape endpoint would serve, usable with
    ``curl``-less monitoring and the CI liveness check.
    """
    from repro.obs import parse_prometheus
    from repro.serving.client import ExplanationClient

    try:
        with ExplanationClient(args.host, args.port) as client:
            text = client.metrics()
    except OSError as error:
        parser.error(
            f"cannot reach server at {args.host}:{args.port} ({error})"
        )
    try:
        parse_prometheus(text)
    except ValueError as error:
        print(f"warning: exposition failed to parse: {error}", file=sys.stderr)
        print(text, end="")
        return 1
    print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and regenerate the requested experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-xsum",
        description="Reproduce tables/figures from 'Path-based summary "
        "explanations for graph recommenders' (ICDE 2025).",
    )
    parser.add_argument(
        "experiment",
        help="table1|table2|table3|fig2..fig17|userstudy|batch|serve|"
        "metrics|list",
    )
    parser.add_argument(
        "--scale", choices=("test", "ci", "paper"), default="ci"
    )
    parser.add_argument("--dataset", choices=("ml1m", "lfm1m"), default="")
    batch_group = parser.add_argument_group("batch")
    batch_group.add_argument(
        "--tasks", default="", help="JSONL task file (one task per line)"
    )
    batch_group.add_argument(
        "--demo",
        type=int,
        default=0,
        help="generate N user-centric demo tasks from the workbench",
    )
    batch_group.add_argument(
        "--method",
        choices=("ST", "ST-fast", "PCST", "Union"),
        default="ST",
    )
    batch_group.add_argument("--workers", type=int, default=0)
    batch_group.add_argument(
        "--k", type=int, default=5, help="top-k for --demo tasks"
    )
    batch_group.add_argument(
        "--engine",
        choices=("frozen", "dict"),
        default="frozen",
        help="traversal backend: CSR fast path (frozen) or the "
        "dict-of-dicts oracle (applies to ST/ST-fast/PCST; Union has "
        "no traversal)",
    )
    batch_group.add_argument(
        "--parallel",
        choices=("auto", "serial", "processes"),
        default="auto",
        help="dispatch backend: processes = shared-memory multi-core "
        "work-stealing pool; auto picks processes on multi-core "
        "machines for big enough graphs/batches, serial otherwise",
    )
    batch_group.add_argument(
        "--stream",
        action="store_true",
        help="stream each result as its worker finishes it (service "
        "API ExplanationSession.stream) instead of printing one report "
        "at the end",
    )
    batch_group.add_argument(
        "--min-workers",
        type=int,
        default=1,
        help="elastic pool floor: idle shrink never goes below this",
    )
    batch_group.add_argument(
        "--max-workers",
        type=int,
        default=0,
        help="elastic pool ceiling; 0 = max(initial workers, cpu count)",
    )
    batch_group.add_argument(
        "--max-task-retries",
        type=int,
        default=2,
        help="process backend: times a crashed/timed-out task is "
        "re-queued onto a replacement worker before it fails "
        "individually as a typed TaskFailure (batch and serve)",
    )
    batch_group.add_argument(
        "--task-timeout",
        type=float,
        default=0.0,
        help="process backend: per-task deadline in seconds; a worker "
        "holding one task longer is terminated and replaced, the task "
        "retried or failed individually (0 = no deadline; batch and "
        "serve)",
    )
    batch_group.add_argument(
        "--closure-store",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="cross-worker shared closure store: workers publish "
        "computed terminal closures to a shared-memory slab and reuse "
        "each other's work (TinyLFU admission, segmented-LRU "
        "eviction); results stay bit-identical (batch and serve)",
    )
    batch_group.add_argument(
        "--store-mb",
        type=float,
        default=64.0,
        help="closure store slab capacity in MiB (with --closure-store)",
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="record a span tree per request (batch: printed after the "
        "run; serve: retrievable via the 'trace' op / "
        "client.trace()); default off — the disabled cost is one "
        "attribute check per request",
    )
    obs_group.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        help="log any request slower than this many milliseconds as "
        "one structured slow_request line with its span breakdown "
        "(0 = off)",
    )
    obs_group.add_argument(
        "--metrics",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="process-wide Prometheus metrics registry (task/batch "
        "latency histograms, journal + queue-wait counters); default "
        "on — --no-metrics turns every observe into a no-op",
    )
    obs_group.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured log events (worker_respawn, task_timeout, "
        "local_fallback, slow_request, ...) as JSON lines on stderr "
        "instead of key=value text",
    )
    serve_group = parser.add_argument_group("serve")
    serve_group.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address"
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=7737,
        help="serve: TCP port (0 = ephemeral, printed at startup)",
    )
    serve_group.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="serve: per-graph admission bound; past it requests get "
        "an immediate typed 'overloaded' error frame",
    )
    serve_group.add_argument(
        "--idle-ttl",
        type=float,
        default=0.0,
        help="serve: release a session's worker pool and shared-memory "
        "export after this many idle seconds (0 = never)",
    )
    serve_group.add_argument(
        "--state-dir",
        default="",
        help="serve: directory for crash-safe graph state — every "
        "mutation RPC is journaled (CRC write-ahead log) before it is "
        "acknowledged and replayed bit-identically on restart; empty "
        "(default) = in-memory only",
    )
    serve_group.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="serve: seconds SIGTERM/ctrl-c waits for in-flight "
        "requests to finish (and their responses to flush) before "
        "giving up on the drain",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        names = [
            "table1",
            "table2",
            "table3",
            *_FIGURES,
            "userstudy",
            "batch",
            "serve",
            "metrics",
        ]
        print("\n".join(names))
        return 0

    if args.experiment == "batch":
        return _run_batch(parser, args)

    if args.experiment == "serve":
        return _run_serve(parser, args)

    if args.experiment == "metrics":
        return _run_metrics(parser, args)

    if args.experiment == "table1":
        result = table1_example()
        for index, sentence in enumerate(result.path_sentences, start=1):
            print(f"P{index}: {sentence}")
        print(f"Summary: {result.summary_sentence}")
        print(
            f"Total path edges: {result.total_path_edges} -> "
            f"summary edges: {result.summary_edges}"
        )
        return 0

    if args.experiment == "table2":
        stats = table2(_config(args))
        print(
            format_table(
                "Table II: knowledge-graph statistics",
                ["property", "value"],
                [
                    ["users", stats.num_users],
                    ["items", stats.num_items],
                    ["external", stats.num_external],
                    ["nodes", stats.num_nodes],
                    ["interaction edges", stats.num_interaction_edges],
                    ["knowledge edges", stats.num_knowledge_edges],
                    ["edges", stats.num_edges],
                    ["average degree", stats.average_degree],
                    ["density", stats.density],
                    ["average path length", stats.average_path_length],
                    ["diameter", stats.diameter],
                ],
            )
        )
        return 0

    if args.experiment == "table3":
        rows = [
            [
                f"G{i}",
                spec.num_users,
                spec.num_items,
                spec.num_external,
                stats.num_nodes,
                stats.num_edges,
            ]
            for i, (spec, stats) in enumerate(table3(), start=1)
        ]
        print(
            format_table(
                "Table III: synthetic graph statistics",
                ["graph", "users", "items", "external", "nodes", "edges"],
                rows,
            )
        )
        return 0

    if args.experiment == "userstudy":
        bench = Workbench.get(_config(args))
        result = simulate_user_study(bench)
        print(
            f"{result.preference_share:.2%} of {result.num_participants} "
            f"simulated participants preferred the summary "
            f"({result.num_pairs} pairs)"
        )
        for metric, rating in result.metric_ratings.items():
            print(f"  {metric}: {rating:.2f}/5")
        return 0

    builder = _FIGURES.get(args.experiment)
    if builder is None:
        parser.error(f"unknown experiment {args.experiment!r}")

    if args.experiment == "fig11":
        _print_panels("Fig 11", builder())
    elif args.experiment == "fig16":
        _print_panels("Fig 16", builder(_config(args)))
    elif args.experiment in ("fig14", "fig15"):
        config = _config(args).with_dataset("lfm1m")
        _print_panels(args.experiment, builder(Workbench.get(config)))
    else:
        _print_panels(args.experiment, builder(Workbench.get(_config(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
