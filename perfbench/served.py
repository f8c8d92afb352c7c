"""The ``served-read`` workload: open-loop traffic against the TCP server.

The server is ``python -m repro.cli serve --scale ci --port 0`` in its
own process with default flags plus ``--state-dir`` on a fresh
directory, so the mutation journal is on (WAL, ``fsync=always``). It
serves the ML1M-like workbench graph; ``explain`` runs on the per-graph
session thread.

Inputs, all generated from the seed before the server launches:

- 680 request types: the workbench's PGPR/CAFE/PLM tasks for all four
  scenarios at k ∈ {5, 10}, times {ST λ=0.01, 1, 100; PCST; Union}.
- A popularity ranking of the types: one fixed shuffle, the same for
  every seed. Zipf(1) sends about 40% of the reads to the ten hottest
  types, so a seeded ranking made the mix, and with it the latency
  percentiles, follow the seed rather than the code.
- Reads until the write tail, at a constant rate: ``1 / rate_per_s``
  apart from a seeded phase, kinds drawn Zipf(1) over the ranks by
  systematic sampling (one uniform offset, evenly spaced quantiles)
  and shuffled into random order. With Poisson times, a run now and
  then queued a string of light reads behind a heavy one, which moved
  p90 by half.
- The write tail, the window's last ``2 × writes × tail_gap_s``
  seconds: ``writes`` new interactions, ``client.add_edge(user, item,
  rating)`` on user/item pairs not yet adjacent, each followed by a
  read of the hottest type, which finds the graph re-versioned. Its
  operations are ``tail_gap_s`` apart, so no backlog builds behind the
  cold reads.

An untraced run plays the schedule in ``servers`` consecutive legs,
each on a freshly launched server: the reads split evenly, the write
tail with the last leg. Before its leg a server serves each of the
leg's read types once, so the leg measures a warm server. The latency
percentiles pool every leg's requests. The load generator is one
process with ``load_threads`` threads, each with its own connection.
Every request is timed from its *scheduled* send time, so a stall also
charges the requests queued behind it.

Set-up time is the median over the legs' servers, whose launches are
spread through the run.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import common

#: Seed of the fixed popularity ranking of request types. It is not the
#: run seed: the ranking is identical for every run. Of the rankings
#: measured, this one gave the steadiest p90, which falls inside the
#: cluster of its 3rd and 4th hottest types (both PCST), not on the
#: edge between a light and a heavy request class.
RANKING_SEED = 39
_STARTUP = re.compile(r"^serving graph .* on \S+:(\d+) ")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Everything one served run sends, fixed before the server starts."""

    seconds: float  # length of the schedule
    offsets: list[float]  # scheduled send times, seconds from start
    ops: list[tuple]  # ("read", request) or ("write", user, item, rating)
    sample: list  # SummaryRequests checked against the in-process oracle
    warmup: object  # the SummaryRequest each setup's readiness probe sends
    fill: list  # one request per distinct read type, sent before the window


def _workbench(spec: dict):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.workbench import Workbench

    if spec["scale"] != "ci":
        raise ValueError("served workloads are defined on the ci workbench")
    return Workbench.get(ExperimentConfig.ci_scale())


def request_types(bench, spec: dict) -> list[tuple]:
    """(task, method, overrides, class) for every request type."""
    from repro.core.scenarios import Scenario

    types = []
    for recommender in spec["recommenders"]:
        for scenario in Scenario:
            for k in spec["k"]:
                tasks = bench.tasks(scenario, recommender, k)
                for subject in sorted(tasks):
                    for index, (method, overrides) in enumerate(spec["methods"]):
                        klass = (recommender, scenario.value, k, index)
                        types.append((tasks[subject], method, overrides, klass))
    return types


def rank_types(types: list) -> list:
    """Popularity order, hottest first: one fixed shuffle of the types."""
    import numpy as np

    order = np.random.default_rng(RANKING_SEED).permutation(len(types))
    return [types[i] for i in order]


def zipf_draws(count: int, kinds: int, exponent: float, rng) -> list[int]:
    """``count`` Zipf ranks by systematic sampling, in random order."""
    import numpy as np

    weights = 1.0 / np.arange(1, kinds + 1, dtype=float) ** exponent
    cdf = np.cumsum(weights) / weights.sum()
    quantiles = (np.arange(count) + rng.random()) / count
    ranks = np.minimum(np.searchsorted(cdf, quantiles, side="right"), kinds - 1)
    rng.shuffle(ranks)
    return ranks.tolist()


def _mutations(graph, count: int, rng) -> list[tuple]:
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    items = sorted(n for n in graph.nodes() if n.startswith("i:"))
    chosen: set = set()
    out = []
    while len(out) < count:
        user = users[int(rng.integers(len(users)))]
        item = items[int(rng.integers(len(items)))]
        if (user, item) in chosen or graph.has_edge(user, item):
            continue
        chosen.add((user, item))
        out.append(("write", user, item, float(rng.integers(1, 6))))
    return out


def make_plan(seed: int, seconds: float, spec: dict, legs: int = 1) -> list[Plan]:
    """Generate one run's full schedule (no server involved).

    The schedule comes in ``legs`` consecutive parts, one per server:
    the reads split evenly, the write tail with the last part. Each
    part's offsets start at zero and it fills only its own read types.
    """
    import numpy as np

    from repro.api import SummaryRequest

    bench = _workbench(spec)
    types = request_types(bench, spec)

    def request(entry) -> SummaryRequest:
        task, method, overrides, _klass = entry
        return SummaryRequest(task=task, method=method, overrides=overrides)

    rng = np.random.default_rng(seed)
    ranked = rank_types(types)
    writes, gap = spec["writes"], spec["tail_gap_s"]
    reads_s = seconds - 2 * writes * gap
    count = round(spec["rate_per_s"] * reads_s)
    # A constant-rate open loop: evenly spaced sends, seeded phase.
    offsets = ((np.arange(count) + rng.random()) / spec["rate_per_s"]).tolist()
    draws = zipf_draws(count, len(ranked), spec["zipf_exponent"], rng)
    ops: list[tuple] = [("read", request(ranked[rank])) for rank in draws]
    # The window ends with writes alternating with reads: each write is
    # journaled and fsynced before its ack, and the read after it pays a
    # re-freeze and a cold closure cache. Writes spread over the whole
    # window, or a tail at the read rate, let a seed-dependent backlog
    # of cold reads set the latency percentiles.
    hottest = request(ranked[0])
    for number, mutation in enumerate(_mutations(bench.graph, writes, rng)):
        offsets += [reads_s + 2 * number * gap, reads_s + (2 * number + 1) * gap]
        ops += [mutation, ("read", hottest)]
    # A fixed check sample: the first type of every (scenario, method)
    # class of the first recommender at the largest k.
    sample, seen = [], set()
    for entry in types:
        recommender, scenario, k, method = entry[3]
        key = (scenario, method)
        if recommender == spec["recommenders"][0] and k == max(spec["k"]):
            if key not in seen:
                seen.add(key)
                sample.append(request(entry))
    warmup_method = spec["methods"].index(spec["warmup_method"])
    warmup = next(
        request(entry) for entry in types if entry[3][3] == warmup_method
    )
    bounds = [round(count * j / legs) for j in range(legs)] + [len(ops)]
    parts = []
    for start, end in zip(bounds, bounds[1:]):
        origin = offsets[start]
        finish = offsets[end] if end < len(ops) else seconds
        fill = [request(ranked[rank]) for rank in dict.fromkeys(draws[start:end])]
        parts.append(Plan(
            finish - origin,
            [offset - origin for offset in offsets[start:end]],
            ops[start:end],
            sample,
            warmup,
            fill,
        ))
    return parts


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One server process: launch, readiness from stdout, clean stop."""

    def __init__(self, argv: list[str], stderr_path: Path, timeout: float):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "w")
        self.proc = subprocess.Popen(
            argv,
            cwd=common.ROOT,
            env=common.program_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            self.port = self._await_startup(timeout)
        except BaseException:
            self.kill()
            raise

    def _await_startup(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server printed no startup line in time")
            ready, _w, _x = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before startup (code {self.proc.wait()})"
                )
            match = _STARTUP.match(line)
            if match:
                return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 30.0) -> dict:
        """SIGTERM (graceful drain), wait, and return the exit record."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        stdout = self.proc.stdout.read()
        self.proc.stdout.close()
        self._stderr.close()
        stderr = self.stderr_path.read_text()
        return {
            "exit_code": code,
            "stdout_tail": stdout[-500:],
            "stderr": stderr[-4000:],
            "stderr_tracebacks": stderr.count("Traceback"),
        }

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()


def server_argv(spec: dict, state_dir: Path, traced_marks=None) -> list:
    """``serve`` with default flags and a WAL; the traced launcher when asked."""
    serve = ["serve", "--scale", spec["scale"], "--port", "0",
             "--state-dir", str(state_dir)]
    if traced_marks is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    launcher = common.HERE / "traced_server.py"
    return [sys.executable, str(launcher), str(traced_marks), *serve, "--trace"]


def launch(spec: dict, work: Path, label: str, plan: Plan, traced=False):
    """Start a server and send its warm-up request.

    Returns ``(server, client, setup_seconds)``: setup is timed from
    the launch until the warm-up request returns.
    """
    from repro.serving.client import ExplanationClient

    state_dir = work / f"{label}-state"
    state_dir.mkdir()
    marks = work / f"{label}-marks" if traced else None
    if marks is not None:
        marks.mkdir()
    start = time.perf_counter()
    server = Server(
        server_argv(spec, state_dir, marks),
        work / f"{label}.stderr",
        spec["startup_timeout_s"],
    )
    client = ExplanationClient("127.0.0.1", server.port, timeout=30.0)
    try:
        client.explain(plan.warmup)
    except BaseException:
        client.close()
        server.kill()
        raise
    return server, client, time.perf_counter() - start


def fill_caches(client, plan: Plan) -> float:
    """Serve every read type of the plan once; returns the seconds taken.

    A long-running server has seen its popular request types before,
    so the window measures a warm server: caches fill here, before the
    clock starts. The time is recorded, not counted as set-up.
    """
    start = time.perf_counter()
    for request in plan.fill:
        client.explain(request)
    return time.perf_counter() - start


def mark(server: Server, marks: Path, number: int, timeout: float = 10.0) -> dict:
    """Ask the traced launcher for a timer snapshot and wait for it."""
    path = marks / f"mark-{number}.json"
    os.kill(server.pid, signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced server wrote no {path.name}")
        time.sleep(0.002)
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
def drive(port: int, plan: Plan, threads: int, request_timeout: float,
          give_up_s: float) -> dict:
    """Send the plan open-loop; one connection per thread.

    Returns per-request ``due``/``sent``/``done`` offsets (seconds from
    the schedule origin), success flags, write versions and errors.
    """
    from repro.serving.client import ExplanationClient, ServerError
    from repro.serving.frames import FrameError

    count = len(plan.ops)
    due = plan.offsets
    sent = [0.0] * count
    done = [0.0] * count
    ok = [False] * count
    versions: dict = {}
    errors: list = []
    clients = [
        ExplanationClient("127.0.0.1", port, timeout=request_timeout)
        for _ in range(threads)
    ]
    try:
        for client in clients:
            client.ping()  # connect before the clock starts
        cursor = itertools.count()
        origin = time.perf_counter() + 0.05
        deadline = origin + give_up_s

        def loop(client) -> None:
            while True:
                index = next(cursor)
                if index >= count:
                    return
                wait = origin + due[index] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                sent[index] = start - origin
                if start > deadline:
                    done[index] = sent[index]
                    errors.append((index, "not sent: run over time"))
                    continue
                op = plan.ops[index]
                try:
                    if op[0] == "write":
                        versions[index] = client.add_edge(op[1], op[2], op[3])
                    else:
                        client.explain(op[1])
                    ok[index] = True
                except (ServerError, FrameError, OSError) as error:
                    errors.append((index, repr(error)))
                done[index] = time.perf_counter() - origin

        workers = [
            threading.Thread(target=loop, args=(c,), daemon=True)
            for c in clients
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        for client in clients:
            client.close()
    return {
        "due": list(due),
        "sent": sent,
        "done": done,
        "window_s": max(done),
        "ok": ok,
        "writes": [i for i, op in enumerate(plan.ops) if op[0] == "write"],
        "versions": versions,
        "errors": errors[:20],
        "error_count": len(errors),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check(client, graph, sample: list, label: str) -> list[str]:
    """Served summaries vs in-process ``ExplanationSession.explain``."""
    from repro.api import ExplanationSession

    problems = []
    with ExplanationSession(graph) as oracle:
        for number, request in enumerate(sample):
            served = common.canonical(client.explain(request))
            local = common.canonical(oracle.explain(request))
            if served != local:
                problems.append(
                    f"{label}: sample {number} ({request.method} "
                    f"{dict(request.overrides)}, {request.task.scenario.value})"
                    " differs from the in-process session"
                )
    return problems


def replay_writes(graph, plan: Plan, run: dict) -> None:
    """Apply the run's acked writes in the order the server applied them."""
    from repro.serving.journal import apply_mutations

    for index in sorted(run["versions"], key=run["versions"].get):
        _kind, user, item, rating = plan.ops[index]
        apply_mutations(
            graph, [{"op": "add_edge", "args": [user, item, rating, ""]}]
        )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _histogram(parsed: dict, name: str) -> tuple[float, int]:
    """(sum, count) of one Prometheus histogram family, all labels."""
    total = sum(value for _labels, value in parsed.get(f"{name}_sum", []))
    count = sum(value for _labels, value in parsed.get(f"{name}_count", []))
    return total, int(count)


def _server_view(port: int) -> dict:
    """The server's own counters: ``stats`` and ``metrics`` ops."""
    from repro.obs.registry import parse_prometheus
    from repro.serving.client import ExplanationClient

    with ExplanationClient("127.0.0.1", port, timeout=30.0) as probe:
        stats = probe.stats()
        parsed = parse_prometheus(probe.metrics())
    task_s, task_n = _histogram(parsed, "repro_task_seconds")
    wait_s, wait_n = _histogram(parsed, "repro_queue_wait_seconds")
    fsync_s, fsync_n = _histogram(parsed, "repro_journal_fsync_seconds")
    appends = sum(v for _l, v in parsed.get("repro_journal_appends_total", []))
    return {
        "session": stats.get("session", {}),
        "server": stats.get("server", {}),
        "task_seconds": {"sum": task_s, "count": task_n},
        "queue_wait_seconds": {"sum": wait_s, "count": wait_n},
        "journal_fsync_seconds": {"sum": fsync_s, "count": fsync_n},
        "journal_appends": int(appends),
    }


def _latencies(run: dict) -> dict:
    """Scheduled-send and actual-send latencies (ms), lateness (ms)."""
    return {
        "scheduled_ms": [
            (d - s) * 1000.0 for d, s in zip(run["done"], run["due"])
        ],
        "sent_ms": [(d - s) * 1000.0 for d, s in zip(run["done"], run["sent"])],
        "late_ms": [(s - d) * 1000.0 for s, d in zip(run["sent"], run["due"])],
    }


def _end_to_end(run: dict, spec: dict) -> dict:
    lat = _latencies(run)["scheduled_ms"]
    attempted = len(run["ok"])
    ok = sum(run["ok"])
    limit = spec["latency_limit_ms"]
    return {
        "tasks_per_s": ok / run["window_s"],
        "latency_p50_ms": common.percentile(lat, 50),
        "latency_p90_ms": common.percentile(lat, 90),
        "slo_met_frac": sum(
            1 for good, ms in zip(run["ok"], lat) if good and ms <= limit
        ) / attempted,
        "ok_frac": ok / attempted,
    }


def _generator_record(run: dict, spec: dict) -> dict:
    lat = _latencies(run)
    late = lat["late_ms"]
    writes = [lat["sent_ms"][i] for i in run["writes"] if run["ok"][i]]
    threshold = spec["late_threshold_ms"]
    return {
        "sent": len(run["ok"]),
        "ok": sum(run["ok"]),
        "failed": len(run["ok"]) - sum(run["ok"]),
        "late_p99_ms": common.percentile(late, 99),
        "late_frac": sum(1 for ms in late if ms > threshold) / len(late),
        "latency_p99_ms": common.percentile(lat["scheduled_ms"], 99),
        "latency_max_ms": max(lat["scheduled_ms"]),
        "journal_ack_p50_ms": common.percentile(writes, 50) if writes else None,
        "samples": len(lat["scheduled_ms"]),
        "errors": run["errors"],
    }


def _window(spec: dict, work: Path, label: str, plan: Plan,
            check_first: bool = True, traced: bool = False) -> dict:
    """One measured server: launch, check, fill, drive the plan, check.

    The served summaries are checked against an in-process session: on
    the fresh server before any write (when ``check_first``), and, when
    the plan writes, after the window with its acked writes replayed in
    the order the server applied them. A traced window runs the traced
    launcher and brackets the plan with its timer snapshots.
    """
    from repro.serving.client import ExplanationClient

    graph = _workbench(spec).graph.copy()
    threads = min(spec["load_threads"], os.cpu_count() or 1)
    server, client, setup_s = launch(spec, work, label, plan, traced)
    out: dict = {"setup_s": setup_s, "threads": threads}
    problems: list = []
    try:
        try:
            if check_first:
                problems += check(client, graph, plan.sample, "before writes")
            out["fill_s"] = fill_caches(client, plan)
        finally:
            client.close()
        if traced:
            out["before"] = mark(server, work / f"{label}-marks", 0)
            timers = _client_timers()
        try:
            out["run"] = drive(
                server.port, plan, threads, spec["request_timeout_s"],
                plan.seconds + spec["overrun_s"],
            )
        finally:
            if traced:
                timers.restore()
        if traced:
            out["after"] = mark(server, work / f"{label}-marks", 1)
            out["client"] = timers.snapshot()
        out["peak_rss_mb"] = common.vm_hwm_mb(server.pid)
        out["view"] = _server_view(server.port)
        if out["run"]["writes"]:
            replay_writes(graph, plan, out["run"])
            with ExplanationClient("127.0.0.1", server.port, timeout=30.0) as probe:
                problems += check(probe, graph, plan.sample, "after writes")
    finally:
        out["stop"] = server.stop()
    if out["stop"]["exit_code"] != 0:
        problems.append(f"server exited with code {out['stop']['exit_code']}")
    out["problems"] = problems
    return out


def _pooled(runs: list[dict]) -> dict:
    """Several legs' requests as one sample; their windows add up."""
    listed = ("due", "sent", "done", "ok", "errors")
    pooled: dict = {key: [] for key in (*listed, "writes")}
    pooled["window_s"] = 0.0
    for run in runs:
        base = len(pooled["ok"])
        for key in listed:
            pooled[key] += run[key]
        pooled["writes"] += [base + index for index in run["writes"]]
        pooled["window_s"] += run["window_s"]
    return pooled


def run(seed: int, seconds: float, spec: dict, work: Path) -> dict:
    """An untraced run: the schedule in legs, each on a fresh server.

    Latency on a shared machine drifts in phases of seconds to a minute
    and differs from one server process to the next; legs on several
    servers, spread through the run, sample more of both than one
    window on one server.
    """
    legs = [
        _window(spec, work, f"leg{number}", plan, check_first=number == 0)
        for number, plan in enumerate(
            make_plan(seed, seconds, spec, spec["servers"])
        )
    ]
    run = _pooled([leg["run"] for leg in legs])
    problems = [problem for leg in legs for problem in leg["problems"]]
    metrics = _end_to_end(run, spec)
    metrics["setup_s"] = statistics.median(leg["setup_s"] for leg in legs)
    metrics["peak_rss_mb"] = statistics.median(leg["peak_rss_mb"] for leg in legs)
    return {
        "attempted": len(run["ok"]),
        "failed": len(run["ok"]) - sum(run["ok"]),
        "problems": problems,
        "metrics": metrics,
        "record": {
            "setup_s": [leg["setup_s"] for leg in legs],
            "fill_s": [leg["fill_s"] for leg in legs],
            "threads": legs[0]["threads"],
            "generator": _generator_record(run, spec),
            "server": [leg["view"] for leg in legs],
            "stops": [leg["stop"] for leg in legs],
        },
    }


def _rows_delta(after: dict, before: dict) -> dict:
    """Window-only timer rows: the launcher's snapshot difference."""
    rows = {}
    for row, data in after["rows"].items():
        base = before["rows"].get(row, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rows[row] = {key: data[key] - base[key] for key in data}
    counters = {
        key: value - before["counters"].get(key, 0)
        for key, value in after["counters"].items()
    }
    closure = {
        key: value - before["closure"].get(key, 0)
        for key, value in after["closure"].items()
    }
    return {"rows": rows, "counters": counters, "closure": closure}


def _client_timers():
    """Time the client-side protocol codecs and count response bytes."""
    from repro.api import protocol
    from repro.serving import frames

    from perfbench.layers import LayerTimers

    timers = LayerTimers()
    timers.patch_function(protocol.request_to_json, "protocol.encode")
    timers.patch_function(protocol.explanation_from_json, "protocol.decode")
    timers.patch_function(
        frames.read_frame,
        "client.read_frame",
        lambda payload: timers.count("response_bytes", len(payload)),
    )
    return timers


def run_traced(seed: int, seconds: float, spec: dict, work: Path) -> dict:
    """Untraced then traced window on the same plan, plus the breakdown."""
    from perfbench import layers

    [plan] = make_plan(seed, seconds, spec)
    untraced = _window(spec, work, "untraced", plan)
    traced = _window(spec, work, "traced", plan, traced=True)
    problems = untraced["problems"] + traced["problems"]
    run, view = traced["run"], traced["view"]

    server_side = _rows_delta(traced["after"], traced["before"])
    client_side = traced["client"]
    lat = _latencies(run)
    base_ms = sum(lat["sent_ms"])
    mean_untraced = (
        sum(_latencies(untraced["run"])["sent_ms"]) / len(untraced["run"]["ok"])
    )
    compute_ms = layers.compute_self_ms(server_side["rows"])

    def total_ms(snapshot_rows: dict, row: str) -> float:
        return snapshot_rows.get(row, {}).get("total_s", 0.0) * 1000.0

    parts = {
        "protocol.encode": total_ms(client_side["rows"], "protocol.encode")
        + total_ms(server_side["rows"], "protocol.encode"),
        "protocol.decode": total_ms(client_side["rows"], "protocol.decode")
        + total_ms(server_side["rows"], "protocol.decode"),
        "server.queue_wait": total_ms(server_side["rows"], "server.queue_wait"),
        "journal": total_ms(server_side["rows"], "journal"),
        **compute_ms,
    }
    span_compute_ms = total_ms(server_side["rows"], "server.compute")
    requests = len(run["ok"])
    reads = requests - len(run["writes"])
    window_ms = max(run["done"]) * 1000.0
    gen = _generator_record(run, spec)
    responses = client_side["rows"].get("client.read_frame", {}).get("calls", 0)
    per_layer = layers.kernel_metrics(server_side, compute_ms)
    per_layer.update(layers.shares(parts, base_ms))
    per_layer.update({
        "trace.e2e_ms": base_ms,
        "obs.trace_overhead_frac": (base_ms / requests) / mean_untraced - 1.0,
        "protocol.response_bytes": (
            client_side["counters"].get("response_bytes", 0) / responses
            if responses else 0.0
        ),
        "server.busy_frac": span_compute_ms / window_ms,
        "server.rejected": view["server"].get("rejected", 0),
        "server.invalidations": view["session"].get("invalidations", 0),
        "journal.appends": view["journal_appends"],
        "gen.sent": gen["sent"],
        "gen.ok": gen["ok"],
        "gen.failed": gen["failed"],
        "gen.late_frac": gen["late_frac"],
    })
    queue_wait_ms = parts["server.queue_wait"]
    fsync = view["journal_fsync_seconds"]
    detail_ms = {
        "protocol.encode.ms": parts["protocol.encode"],
        "protocol.decode.ms": parts["protocol.decode"],
        "server.compute.mean_ms": span_compute_ms / reads,
        "server.queue_wait.mean_ms": queue_wait_ms / reads,
        "server.front_door.mean_ms": (
            base_ms - queue_wait_ms - span_compute_ms
        ) / requests,
        "journal.fsync.mean_ms": (
            fsync["sum"] * 1000.0 / fsync["count"] if fsync["count"] else 0.0
        ),
        "journal.ack.p50_ms": gen["journal_ack_p50_ms"],
        "gen.late_p99_ms": gen["late_p99_ms"],
    }
    legs = (untraced["run"], run)
    return {
        "attempted": sum(len(leg["ok"]) for leg in legs),
        "failed": sum(len(leg["ok"]) - sum(leg["ok"]) for leg in legs),
        "problems": problems,
        "metrics": per_layer,
        "record": {
            "setup_s": [traced["setup_s"]],
            "fill_s": traced["fill_s"],
            "threads": traced["threads"],
            "generator": gen,
            "untraced_mean_sent_ms": mean_untraced,
            "breakdown_ms": {**parts, "unattributed": base_ms - sum(parts.values())},
            "detail_ms": detail_ms,
            "server_rows": server_side,
            "client_rows": client_side,
            "server": view,
            "stops": [untraced["stop"], traced["stop"]],
        },
    }
