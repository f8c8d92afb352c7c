"""The ``batch-sweep`` workload: an offline batch job on a warm session.

Inputs (generated from the seed before any clock starts): a 10,000-node
Table III graph written with ``save_graph_json``, and a list of
subjects — single users (user-centric) and 4-user groups (user-group)
in a 3:1 ratio, each with Fig 11's ``random_three_hop_paths(k=10)``,
no user in two subjects. Each subject is asked for the paper's Fig 9
sweep (ST at λ ∈ {0.01, 1, 100} and PCST) plus ST-fast and Union.

The measured part runs in its own process (this file's ``__main__``),
so its peak RSS covers only graph load, session and pool — not input
generation. The number of batches is fixed by ``--seconds`` (one per
``seconds_per_batch``), never by how fast the program runs, so every
run measures the same work. Each batch gets a session of its own: the
process loads the graph, builds an ``ExplanationSession`` with default
configs, warms it on subjects outside the measured set (the timed
set-up), runs the batch as one ``session.run`` and closes the session;
one more set-up ends the run. So set-ups are spread through the run
instead of back to back, and no batch inherits another's caches.

A traced run replaces the window with three passes over the same
batches: untraced pooled, traced pooled (the program's own session and
worker spans), and an in-process serial replay under the benchmark's
layer timers (pool workers cannot be wrapped from outside).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


# ----------------------------------------------------------------------
# Input generation (parent process, untimed)
# ----------------------------------------------------------------------
def _synthetic_task(scenario, users, paths):
    """Fig 11's task shape: users plus the items their paths reach."""
    from repro.core.scenarios import SummaryTask

    items = tuple(dict.fromkeys(p.item for p in paths))
    present = tuple(
        u for u in dict.fromkeys(users) if any(p.user == u for p in paths)
    )
    return SummaryTask(
        scenario=scenario,
        terminals=tuple(dict.fromkeys((*present, *items))),
        paths=tuple(paths),
        anchors=items,
        focus=present,
    )


def batch_count(seconds: float, spec: dict) -> int:
    """Batches one run measures: set by ``--seconds``, not by speed."""
    return max(1, round(seconds / spec["seconds_per_batch"]))


def make_inputs(seed: int, work: Path, spec: dict, count: int) -> dict:
    """Write ``graph.json`` and ``inputs.json`` (``count`` batches)."""
    import numpy as np

    from repro.api import protocol
    from repro.core.scenarios import Scenario
    from repro.graph.generators import (
        SyntheticSpec,
        generate_random_kg,
        random_three_hop_paths,
    )
    from repro.graph.io import save_graph_json

    rng = np.random.default_rng(seed)
    shape = spec["graph"]
    graph = generate_random_kg(
        SyntheticSpec(shape["nodes"], edges_per_node=shape["edges_per_node"]),
        rng,
    )
    save_graph_json(graph, work / "graph.json")
    users = sorted(n for n in graph.nodes() if n.startswith("u:"))
    order = iter(rng.permutation(len(users)).tolist())
    tasks: list[dict] = []

    def subject(scenario: Scenario, size: int, k: int) -> int:
        """Draw fresh users until every member has at least one path."""
        members: list[str] = []
        paths: list = []
        while len(members) < size:
            user = users[next(order)]
            found = random_three_hop_paths(
                graph, [user], paths_per_user=k, rng=rng
            )
            if found:
                members.append(user)
                paths.extend(found)
        tasks.append(
            protocol.task_to_json(_synthetic_task(scenario, members, paths))
        )
        return len(tasks) - 1

    sizes = {"user-centric": 1, "user-group": spec["group_size"]}
    methods = spec["methods"]
    warm = spec["warmup"]
    warm_method = methods.index(warm["method"])
    warmup = [
        [subject(Scenario.USER_CENTRIC, 1, warm["paths_per_user"]), warm_method]
        for _ in range(warm["subjects"])
    ]
    batches = []
    for _ in range(count):
        batch = []
        for kind in spec["batch_pattern"]:
            index = subject(Scenario(kind), sizes[kind], spec["paths_per_user"])
            batch.extend([index, m] for m in range(len(methods)))
        batches.append(batch)
    inputs = {
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "methods": methods,
        "tasks": tasks,
        "warmup": warmup,
        "batches": batches,
    }
    (work / "inputs.json").write_text(json.dumps(inputs))
    return inputs


def _requests(inputs: dict, pairs) -> list:
    from repro.api import SummaryRequest, protocol

    tasks = {}
    out = []
    for task_index, method_index in pairs:
        task = tasks.get(task_index)
        if task is None:
            task = tasks[task_index] = protocol.task_from_json(
                inputs["tasks"][task_index]
            )
        method, overrides = inputs["methods"][method_index]
        out.append(SummaryRequest(task=task, method=method, overrides=overrides))
    return out


# ----------------------------------------------------------------------
# The measured process
# ----------------------------------------------------------------------
def _setup(graph_path: Path, warmup: list, obs=None):
    """load_graph_json + session + warm-up run; returns timings too."""
    from repro.api import ExplanationSession
    from repro.graph.io import load_graph_json

    start = time.perf_counter()
    graph = load_graph_json(graph_path)
    loaded = time.perf_counter()
    session = ExplanationSession(graph, obs=obs)
    try:
        report = session.run(warmup)
        done = time.perf_counter()
        if report.failed or report.parallel != "processes":
            raise RuntimeError(
                f"warm-up ran parallel={report.parallel} with "
                f"{report.failed} failure(s); expected a healthy process pool"
            )
    except BaseException:
        session.close()
        raise
    return session, done - start, loaded - start


def _pool_rss_mb() -> float:
    """VmHWM of this (session) process plus every live pool worker."""
    total = common.vm_hwm_mb()
    for child in multiprocessing.active_children():
        total += common.vm_hwm_mb(child.pid)
    return total


def _report_counters(report) -> dict:
    return {
        "hits": report.cache_hits,
        "misses": report.cache_misses,
        "patched": report.cache_patched,
        "base_hits": report.cache_base_hits,
        "base_misses": report.cache_base_misses,
        "store_hits": report.store_hits,
        "store_misses": report.store_misses,
    }


def _add(into: dict, counters: dict) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0) + value


def _sample(report, spec: dict) -> list:
    """Canonical forms of the check sample: batch 0's first requests."""
    return [
        None if result.failure is not None else common.canonical(
            result.explanation
        )
        for result in report.results[: spec["check_first"]]
    ]


def child_measure(work: Path, spec: dict) -> dict:
    """Per batch: set up a session, run the batch, close; then set up once more."""
    inputs = json.loads((work / "inputs.json").read_text())
    warmup = _requests(inputs, inputs["warmup"])
    batches = inputs["batches"]
    setups, loads, walls, rss, reports, stats = [], [], [], [], [], []
    counters: dict = {}
    for number in range(len(batches) + 1):
        session, setup_s, load_s = _setup(work / "graph.json", warmup)
        setups.append(setup_s)
        loads.append(load_s)
        try:
            if number < len(batches):
                requests = _requests(inputs, batches[number])
                began = time.perf_counter()
                report = session.run(requests)
                walls.append(time.perf_counter() - began)
                rss.append(_pool_rss_mb())
                reports.append(report)
                stats.append(session.stats.to_dict())
                _add(counters, _report_counters(report))
        finally:
            session.close()
        gc.collect()
    return {
        "setup_s": setups,
        "load_s": loads,
        "batch_walls_s": walls,
        "batch_sizes": [len(r.results) for r in reports],
        "failed": sum(r.failed for r in reports),
        "workers": [r.workers for r in reports],
        "parallel": sorted({r.parallel for r in reports}),
        "task_ok": [r.ok for report in reports for r in report.results],
        "peak_rss_mb": rss,
        "counters": counters,
        "session_stats": stats,
        "sample": _sample(reports[0], spec),
    }


def child_measure_traced(work: Path, spec: dict) -> dict:
    """Untraced pooled, traced pooled and serial-replay passes."""
    from repro.api import ExplanationSession, ObservabilityConfig, ParallelConfig
    from repro.serving import wire

    from perfbench.layers import (
        LayerTimers,
        closure_counters,
        install_compute_timers,
        walk_spans,
    )

    inputs = json.loads((work / "inputs.json").read_text())
    warmup = _requests(inputs, inputs["warmup"])
    batches = [_requests(inputs, pairs) for pairs in inputs["batches"]]
    tasks = sum(len(b) for b in batches)
    out: dict = {"tasks": tasks}

    # Pass 1: untraced pooled, exactly as measured runs do it.
    session, setup_s, load_s = _setup(work / "graph.json", warmup)
    out["setup_s"], out["load_s"] = setup_s, load_s
    try:
        start = time.perf_counter()
        reports = [session.run(b) for b in batches]
        out["untraced_wall_s"] = time.perf_counter() - start
        out["sample"] = _sample(reports[0], spec)
        out["failed"] = sum(r.failed for r in reports)
    finally:
        session.close()
    gc.collect()

    # Pass 2: traced pooled; its set-up freeze and the parent's payload
    # decode are timed too.
    from repro.graph.csr import FrozenGraph
    from repro.graph.knowledge_graph import KnowledgeGraph

    timers = LayerTimers()
    timers.patch_method(KnowledgeGraph, "freeze", "graph.freeze")
    timers.patch_method(FrozenGraph, "from_knowledge_graph", "graph.freeze.build")
    try:
        session, _setup_s, _load_s = _setup(
            work / "graph.json", warmup, obs=ObservabilityConfig(trace=True)
        )
    finally:
        timers.restore()
    rows = timers.snapshot()["rows"]
    out["setup_freeze"] = {
        "total_s": rows["graph.freeze"]["total_s"],
        "builds": rows.get("graph.freeze.build", {}).get("calls", 0),
    }
    timers = LayerTimers()
    spans: dict = {}
    queue_waits: list = []
    counters: dict = {}
    try:
        timers.patch_function(wire.decode_explanation, "wire.decode")
        before = session.stats.to_dict()
        start = time.perf_counter()
        for batch in batches:
            report = session.run(batch)
            _add(counters, _report_counters(report))
            out["failed"] += report.failed
            for span in walk_spans(session.last_trace()["root"]):
                seconds = (span["duration_ms"] or 0.0) / 1000.0
                slot = spans.setdefault(span["name"], [0, 0.0])
                slot[0] += 1
                slot[1] += seconds
                if span["name"] == "queue_wait":
                    queue_waits.append(seconds)
        out["traced_wall_s"] = time.perf_counter() - start
        out["workers"] = report.workers
        after = session.stats.to_dict()
    finally:
        timers.restore()
        session.close()
    out["pool"] = {
        "spans": {k: {"count": c, "total_s": s} for k, (c, s) in spans.items()},
        "queue_wait_s": queue_waits,
        "decode": timers.snapshot()["rows"].get("wire.decode"),
        "counters": counters,
        "stats_delta": {k: after[k] - before[k] for k in after},
    }
    gc.collect()

    # Pass 3: in-process serial replay under the layer timers.
    graph = session.graph
    replay = ExplanationSession(
        graph, parallel=ParallelConfig(backend="serial")
    )
    timers = LayerTimers()
    caches = install_compute_timers(timers)
    try:
        start = time.perf_counter()
        for batch in batches:
            replay.run(batch)
        out["replay_wall_s"] = time.perf_counter() - start
    finally:
        timers.restore()
        replay.close()
    out["replay"] = timers.snapshot()
    out["replay"]["closure"] = closure_counters(caches)
    return out


def check(work: Path, inputs: dict, spec: dict, observed: list) -> list:
    """Compare the sample with an in-process serial dict-engine run.

    Returns one message per mismatch (empty when all match).
    """
    from repro.api import EngineConfig, ExplanationSession, ParallelConfig
    from repro.graph.io import load_graph_json

    requests = _requests(inputs, inputs["batches"][0][: spec["check_first"]])
    oracle = ExplanationSession(
        load_graph_json(work / "graph.json"),
        engine=EngineConfig(engine="dict"),
        parallel=ParallelConfig(backend="serial"),
    )
    problems = []
    with oracle:
        for position, (request, got) in enumerate(zip(requests, observed)):
            want = common.canonical(oracle.explain(request))
            if got != want:
                problems.append(
                    f"batch 0 request {position} "
                    f"({request.method} {dict(request.overrides)}) differs "
                    "from the serial dict-engine summary"
                )
    return problems


# ----------------------------------------------------------------------
# One run (parent side)
# ----------------------------------------------------------------------
def _spawn(work: Path, trace: bool, timeout: float) -> dict:
    """Run the measured process and return what it wrote."""
    import subprocess

    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), str(work),
         "1" if trace else "0"],
        cwd=common.ROOT,
        env=common.program_env(),
        stdout=sys.stderr,
    )
    try:
        code = child.wait(timeout)
    except BaseException:
        # SIGTERM lets the child close its session, and so its pool.
        child.terminate()
        try:
            child.wait(30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    if code != 0:
        raise RuntimeError(f"measured process exited with code {code}")
    return json.loads((work / "child.json").read_text())


def run(seed: int, seconds: float, spec: dict, work: Path) -> dict:
    """An untraced run: the measured batches, their set-ups, the check."""
    inputs = make_inputs(seed, work, spec, batch_count(seconds, spec))
    child = _spawn(work, False, spec["child_timeout_s"])
    problems = check(work, inputs, spec, child["sample"])
    tasks = sum(child["batch_sizes"])
    # An offline job delivers every result of a batch when run() returns,
    # so each request's latency is its batch's wall time.
    latencies = [
        wall * 1000.0
        for wall, size in zip(child["batch_walls_s"], child["batch_sizes"])
        for _ in range(size)
    ]
    limit = spec["latency_limit_ms"]
    ok = tasks - child["failed"]
    metrics = {
        "setup_s": statistics.median(child["setup_s"]),
        "tasks_per_s": ok / sum(child["batch_walls_s"]),
        "latency_p50_ms": common.percentile(latencies, 50),
        "latency_p90_ms": common.percentile(latencies, 90),
        "slo_met_frac": sum(
            1 for good, ms in zip(child["task_ok"], latencies)
            if good and ms <= limit
        ) / tasks,
        "ok_frac": ok / tasks,
        "peak_rss_mb": statistics.median(child["peak_rss_mb"]),
    }
    record = {k: v for k, v in child.items() if k not in ("sample", "task_ok")}
    record["graph"] = inputs["graph"]
    return {
        "attempted": tasks,
        "failed": child["failed"],
        "problems": problems,
        "metrics": metrics,
        "record": record,
    }


def run_traced(seed: int, seconds: float, spec: dict, work: Path) -> dict:
    """The traced run: pooled spans plus the serial-replay breakdown."""
    from perfbench import layers

    inputs = make_inputs(seed, work, spec, spec["traced_batches"])
    child = _spawn(work, True, spec["child_timeout_s"])
    problems = check(work, inputs, spec, child["sample"])
    pool = child["pool"]
    spans = pool["spans"]

    def span_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    workers = child["workers"]
    wall = child["traced_wall_s"]
    capacity_ms = workers * wall * 1000.0
    compute_s = span_s("worker.compute")
    encode_s = span_s("worker.encode")
    replay = child["replay"]
    replay_ms = child["replay_wall_s"] * 1000.0
    compute_ms = layers.compute_self_ms(replay["rows"])
    summarize_ms = sum(
        data["total_s"] * 1000.0
        for row, data in replay["rows"].items()
        if row.startswith("core.summarize.")
    )
    # Worker compute is split in the serial replay's proportions: pool
    # workers cannot be wrapped from outside.
    scale = compute_s * 1000.0 / replay_ms
    parts = {row: ms * scale for row, ms in compute_ms.items()}
    parts["pool.encode"] = encode_s * 1000.0
    parts["pool.idle"] = capacity_ms - (compute_s + encode_s) * 1000.0
    decode_s = (pool["decode"] or {}).get("total_s", 0.0)
    session_s = sum(
        span_s(name)
        for name in ("session.freeze_export", "session.pool", "session.dispatch")
    )
    counters = pool["counters"]
    snapshot = {
        "rows": replay["rows"],
        "counters": replay["counters"],
        "closure": {
            key: counters[key]
            for key in ("hits", "misses", "patched", "base_hits", "base_misses")
        },
    }
    per_layer = layers.kernel_metrics(snapshot, compute_ms)
    # The traced session's set-up freeze, not the replay's memo hits.
    per_layer["graph.freeze.ms"] = child["setup_freeze"]["total_s"] * 1000.0
    per_layer["graph.freeze.calls"] = child["setup_freeze"]["builds"]
    per_layer.update(layers.shares(parts, capacity_ms))
    stats = pool["stats_delta"]
    per_layer.update({
        "trace.e2e_ms": capacity_ms,
        "obs.trace_overhead_frac": wall / child["untraced_wall_s"] - 1.0,
        "core.closure.base_misses_serial": replay["closure"]["base_misses"],
        "graph.load.setup_share": child["load_s"] / child["setup_s"],
        "pool.busy_frac": compute_s / (workers * wall),
        "pool.serial_speedup": child["replay_wall_s"] / wall,
        "pool.compute_inflation": compute_s * 1000.0 / summarize_ms,
        "pool.steals": stats["steals"],
        "pool.grows": stats["grows"],
        "pool.retries": stats["task_retries"],
        "session.overhead_frac": session_s / wall,
        "wire.decode_frac": decode_s / wall,
    })
    waits_ms = [s * 1000.0 for s in pool["queue_wait_s"]]
    detail_ms = {
        "session.freeze_export.ms": span_s("session.freeze_export") * 1000.0,
        "session.pool.ms": span_s("session.pool") * 1000.0,
        "session.dispatch.ms": span_s("session.dispatch") * 1000.0,
        "pool.queue_wait.p50_ms": common.percentile(waits_ms, 50),
        "pool.queue_wait.p90_ms": common.percentile(waits_ms, 90),
        "pool.compute.ms": compute_s * 1000.0,
        "pool.encode.ms": encode_s * 1000.0,
        "wire.decode.ms": decode_s * 1000.0,
        "graph.load.ms": child["load_s"] * 1000.0,
        "graph.mehlhorn.ms": compute_ms["graph.mehlhorn"],
        "core.summarize.st-fast.ms": replay["rows"]
        .get("core.summarize.st-fast", {})
        .get("total_s", 0.0) * 1000.0,
        "replay.wall_ms": replay_ms,
        "pooled.wall_ms": wall * 1000.0,
        "pooled.untraced_wall_ms": child["untraced_wall_s"] * 1000.0,
    }
    # The pooled speedup over the serial replay, from the parts alone:
    # wall = compute / (workers * busy), so speedup = workers * busy *
    # (replay wall / replay compute) / (pooled compute / replay compute).
    busy = per_layer["pool.busy_frac"]
    inflation = per_layer["pool.compute_inflation"]
    overhead = replay_ms / summarize_ms
    explain = [
        f"pooled {wall:.2f} s vs serial replay {replay_ms / 1000:.2f} s: "
        f"speedup {per_layer['pool.serial_speedup']:.2f}x on {workers} workers",
        f"  = workers {workers} x busy {busy:.3f} x replay wall/compute "
        f"{overhead:.3f} / compute inflation {inflation:.3f} "
        f"= {workers * busy * overhead / inflation:.2f}x",
        f"  inflation: base-run misses pooled {counters['base_misses']} vs "
        f"serial {replay['closure']['base_misses']} (each worker's cache "
        "repeats base runs); idle share "
        f"{per_layer['share.pool.idle']:.3f} of worker capacity",
    ]
    return {
        "attempted": child["tasks"],
        "failed": child["failed"],
        "problems": problems,
        "metrics": per_layer,
        "record": {
            "explain": explain,
            "workers": workers,
            "breakdown_ms": {
                **parts,
                "unattributed": capacity_ms - sum(parts.values()),
            },
            "detail_ms": detail_ms,
            "pool": {k: v for k, v in pool.items() if k != "queue_wait_s"},
            "replay": replay,
        },
    }


def _child(argv: list[str]) -> int:
    import signal

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work, trace = Path(argv[0]), argv[1] == "1"
    common.require_program()
    spec = common.load_spec()["workloads"]["batch-sweep"]
    measure = child_measure_traced if trace else child_measure
    result = measure(work, spec)
    (work / "child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1:]))
