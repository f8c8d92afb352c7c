"""Open-loop load harness for the network serving tier.

Drives :class:`repro.serving.server.ExplanationServer` the way a
latency benchmark should: **open loop** — request arrivals follow a
seeded Poisson process at a fixed offered rate, each arrival fires
from its own thread with its own connection, and arrivals never wait
for completions (a closed loop would let a slow server throttle its
own load and flatter its tail latencies). Per-request latencies
aggregate into p50/p95/p99, swept over several offered rates to map
the saturation knee into the repo-root ``BENCH_server.json``
trajectory artifact.

Per-task stream framing over TCP is pinned by the test suite
(``tests/serving/test_server.py::TestStreaming``), not here.

Not a pytest module (the ``bench_`` prefix keeps it out of
collection); run it directly::

    PYTHONPATH=src python benchmarks/bench_server.py
    PYTHONPATH=src python benchmarks/bench_server.py \\
        --rates 4 --requests 40 --assert-zero-drops  # the CI server-job gate

By default the harness self-hosts a server on an ephemeral port;
``--connect HOST:PORT`` points it at an external one instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import SummaryRequest  # noqa: E402
from repro.core.scenarios import Scenario  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.workbench import Workbench  # noqa: E402
from repro.serving.client import ExplanationClient, OverloadedError  # noqa: E402
from repro.serving.server import (  # noqa: E402
    ExplanationServer,
    ServerConfig,
    ServerThread,
)


def percentile(latencies: list[float], q: float) -> float:
    """Same aggregation BatchReport pins: sorted, floor-indexed."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def build_requests(bench: Workbench, mix: str, count: int):
    """A request mix drawn from the workbench recommender's tasks.

    ``uniform`` cycles user-centric singletons; ``skewed`` interleaves
    one heavy user-group task per seven singletons — the straggler
    pattern the work-stealing scheduler exists for.
    """
    singles = [
        SummaryRequest(task=task)
        for task in bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values()
    ]
    if not singles:
        raise SystemExit("workbench produced no tasks")
    if mix == "uniform":
        pool = singles
    else:
        groups = [
            SummaryRequest(task=task)
            for task in bench.tasks(Scenario.USER_GROUP, "PGPR", 4).values()
        ]
        pool = []
        for i in range(8):
            pool.extend(singles[i * 7 % len(singles):][:7])
            pool.append(groups[i % len(groups)])
    return [pool[i % len(pool)] for i in range(count)]


def run_open_loop(
    host: str,
    port: int,
    requests,
    rate: float,
    seed: int,
    timeout: float,
) -> dict:
    """Fire ``requests`` at ``rate``/s with Poisson arrivals.

    Every arrival gets its own thread + connection and starts on
    schedule regardless of how many predecessors are still in flight —
    queueing shows up as latency (and, past the admission bound, as
    ``overloaded`` counts), never as reduced offered load.
    """
    rng = random.Random(seed)
    lock = threading.Lock()
    latencies: list[float] = []
    overloaded = 0
    errors: list[str] = []

    def fire(request) -> None:
        nonlocal overloaded
        start = time.perf_counter()
        try:
            with ExplanationClient(
                host, port, timeout=timeout, reconnect=False
            ) as client:
                client.explain(request)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
        except OverloadedError:
            with lock:
                overloaded += 1
        except Exception as error:  # any drop/corruption is a failure
            with lock:
                errors.append(f"{type(error).__name__}: {error}")

    threads = []
    began = time.perf_counter()
    for request in requests:
        thread = threading.Thread(target=fire, args=(request,))
        thread.start()
        threads.append(thread)
        time.sleep(rng.expovariate(rate))
    for thread in threads:
        thread.join(timeout=timeout + 30)
    wall = time.perf_counter() - began
    return {
        "offered_rate": rate,
        "requests": len(requests),
        "completed": len(latencies),
        "overloaded": overloaded,
        "errors": errors,
        "achieved_rate": len(latencies) / wall if wall > 0 else 0.0,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[2.0, 5.0, 10.0, 20.0],
        help="offered request rates (req/s) for the saturation sweep",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=40,
        help="requests fired per swept rate",
    )
    parser.add_argument(
        "--mix", choices=("uniform", "skewed"), default="skewed"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-request timeout"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound of the self-hosted server",
    )
    parser.add_argument(
        "--connect",
        default="",
        metavar="HOST:PORT",
        help="benchmark an external server instead of self-hosting",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_server.json"),
        help="artifact path",
    )
    parser.add_argument(
        "--assert-zero-drops",
        action="store_true",
        help="CI gate: fail if any request errored (dropped frames)",
    )
    args = parser.parse_args(argv)

    bench = Workbench.get(ExperimentConfig.test_scale())
    requests = build_requests(bench, args.mix, args.requests)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        host, port = host or "127.0.0.1", int(port)
        server_thread = None
    else:
        server_thread = ServerThread(
            ExplanationServer(
                bench.graph,
                ServerConfig(max_pending=args.max_pending),
            )
        )
        host, port = "127.0.0.1", server_thread.port

    sweep = []
    try:
        for rate in args.rates:
            point = run_open_loop(
                host, port, requests, rate, args.seed, args.timeout
            )
            sweep.append(point)
            print(
                f"rate {rate:6.1f}/s -> achieved {point['achieved_rate']:6.1f}/s"
                f"  p50 {point['latency_p50_ms']:8.2f} ms"
                f"  p95 {point['latency_p95_ms']:8.2f} ms"
                f"  p99 {point['latency_p99_ms']:8.2f} ms"
                f"  overloaded {point['overloaded']}"
                f"  errors {len(point['errors'])}"
            )
    finally:
        if server_thread is not None:
            server_thread.stop()

    artifact = {
        "schema": "bench-server/v1",
        "cpu_count": os.cpu_count(),
        "graph_nodes": bench.graph.num_nodes,
        "graph_edges": bench.graph.num_edges,
        "mix": args.mix,
        "requests_per_rate": args.requests,
        "max_pending": args.max_pending,
        "sweep": sweep,
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if args.assert_zero_drops:
        dropped = [e for point in sweep for e in point["errors"]]
        if dropped:
            failures.append(f"dropped/errored frames: {dropped[:5]}")
        short = [
            point
            for point in sweep
            if point["completed"] + point["overloaded"] != point["requests"]
        ]
        if short:
            failures.append(f"unaccounted requests at rates {short}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
