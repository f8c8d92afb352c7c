"""Versioned over-the-wire codecs for the service API.

Before the network tier existed, every surface serialized ad hoc:
``repro.core.batch`` had its own ``task_to_json``, reports printed but
never round-tripped, and explanations only traveled as pickles or the
worker-pipe wire format (:mod:`repro.serving.wire`), which needs a
shared frozen view on both ends. A TCP server and a client that share
nothing but bytes need one canonical, versioned schema — this module
is that schema, and the server (:mod:`repro.serving.server`), the
client (:mod:`repro.serving.client`) and the CLI ``batch``
subcommand's JSONL loader all route through it.

Every payload is a plain-JSON-compatible dict. Top-level frames are
*envelopes* — ``{"protocol_version": 1, "kind": "...", ...body}`` —
so both peers can reject traffic from a future protocol before
touching the body. Decoding is strict: wrong types, missing fields and
unknown enum values raise :class:`ProtocolError` with a stable
machine-readable ``code`` that the server maps onto typed error frames
(see :data:`ERROR_CODES`).

Codecs come in to/from pairs and are lossless:

- :func:`task_to_json` / :func:`task_from_json` — the canonical
  :class:`~repro.core.scenarios.SummaryTask` schema.
- :func:`request_to_json` / :func:`request_from_json` — a
  :class:`~repro.api.requests.SummaryRequest` envelope: task + method
  routing + per-request :class:`~repro.api.config.EngineConfig`
  overrides (``prize_policy`` travels as its enum value).
- :func:`explanation_to_json` / :func:`explanation_from_json` — a
  :class:`~repro.core.explanation.SubgraphExplanation` as positional
  node/edge lists in insertion order, so the decoded subgraph is
  bit-identical to the original (same node order, same per-row
  neighbor order, same name/relation tables — the same contract
  :mod:`repro.serving.wire` pins, without needing a frozen view).
- :func:`result_to_json` / :func:`result_from_json` — one
  :class:`~repro.core.batch.BatchResult`, self-contained (carries its
  task) so streamed frames need no out-of-band context.
- :func:`report_to_json` / :func:`report_from_json` — a whole
  :class:`~repro.core.batch.BatchReport` including the scheduler field
  and every cache counter; ``latency_p50_ms`` / ``latency_p95_ms`` /
  ``throughput`` are included for artifact consumers but re-derived on
  decode (they are properties of the results). ``BatchReport.to_dict``
  / ``from_dict`` delegate here, so server responses and bench
  artifacts share one schema.

Floats survive exactly: ``json`` emits ``repr``-shortest forms that
parse back bit-equal, which is what lets the server promise summaries
bit-identical to an in-process session.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.api.config import EngineConfig
from repro.api.requests import SummaryRequest
from repro.core.batch import (
    FAILURE_CAUSES,
    BatchReport,
    BatchResult,
    TaskFailure,
)
from repro.core.explanation import SubgraphExplanation
from repro.core.pcst_summary import PrizePolicy
from repro.core.scenarios import Scenario, SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path

#: The protocol generation this module encodes/decodes. Bump on any
#: incompatible schema change; peers reject mismatches up front.
PROTOCOL_VERSION = 1

#: Stable machine-readable error codes used in ``error`` frames.
ERROR_CODES = (
    "bad-frame",        # payload not decodable as an envelope at all
    "unknown-version",  # envelope protocol_version != PROTOCOL_VERSION
    "frame-too-large",  # declared frame length exceeds the peer's bound
    "bad-request",      # envelope fine, body malformed for its kind
    "unknown-graph",    # request names a graph the server doesn't host
    "overloaded",       # admission control rejected the request
    "task-error",       # the summarization itself raised
    "deadline-exceeded",  # the client's deadline expired before the work ran
    "shutting-down",    # the server is draining; retry elsewhere/later
    "too-many-connections",  # the per-server connection bound is full
    "internal",         # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A frame that violates the protocol schema.

    ``code`` is one of :data:`ERROR_CODES`; the server echoes it in the
    typed error frame so clients can branch without string-matching
    messages. ``extra`` keyword hints (e.g. ``retry_after_ms`` on
    ``overloaded``) travel into the frame via :func:`error_frame`.
    """

    def __init__(self, code: str, message: str, **extra) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.extra = extra


def _expect(data, key: str, kind, what: str):
    """Fetch ``data[key]`` requiring type ``kind``; ProtocolError else."""
    if not isinstance(data, dict):
        raise ProtocolError(
            "bad-request", f"{what} must be an object, got {type(data).__name__}"
        )
    if key not in data:
        raise ProtocolError("bad-request", f"{what} is missing {key!r}")
    value = data[key]
    # bool is an int subclass; a numeric field must still reject True.
    if not isinstance(value, kind) or (
        (kind is int or isinstance(kind, tuple))
        and isinstance(value, bool)
    ):
        names = (
            "/".join(k.__name__ for k in kind)
            if isinstance(kind, tuple)
            else kind.__name__
        )
        raise ProtocolError(
            "bad-request",
            f"{what}[{key!r}] must be {names}, "
            f"got {type(value).__name__}",
        )
    return value


def _string_list(data, key: str, what: str) -> list[str]:
    values = _expect(data, key, list, what)
    for value in values:
        if not isinstance(value, str):
            raise ProtocolError(
                "bad-request",
                f"{what}[{key!r}] must contain only strings",
            )
    return values


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def envelope(kind: str, body: dict | None = None) -> dict:
    """Wrap a body in a versioned frame envelope."""
    frame = {"protocol_version": PROTOCOL_VERSION, "kind": kind}
    if body:
        frame.update(body)
    return frame


def open_envelope(data) -> tuple[str, dict]:
    """Strictly validate an inbound envelope; returns ``(kind, frame)``.

    The version check comes first so a peer speaking a future protocol
    gets ``unknown-version`` even if the rest of its frame is alien.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            "bad-frame",
            f"frame must be an object, got {type(data).__name__}",
        )
    version = data.get("protocol_version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unknown-version",
            f"unsupported protocol_version {version!r}; "
            f"this peer speaks {PROTOCOL_VERSION}",
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("bad-request", "envelope is missing 'kind'")
    return kind, data


def error_frame(code: str, message: str, **extra) -> dict:
    """A typed error response frame.

    ``extra`` carries optional machine-readable hints alongside the
    code — e.g. ``retry_after_ms`` on ``overloaded`` frames, which
    backoff-aware clients honor as a floor on their next attempt.
    Unknown hints are ignored by older clients (they only read
    ``code``/``message``), so adding one is not a version bump.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    return envelope("error", {"code": code, "message": message, **extra})


# ----------------------------------------------------------------------
# SummaryTask
# ----------------------------------------------------------------------
def _path_to_json(path: Path):
    """One explanation path: a bare node list when every non-node field
    is derivable (the historical JSONL form), a small object otherwise —
    recommender-emitted paths carry a ``score`` that participates in
    task equality, so the codec must not drop it."""
    if (
        path.user == path.nodes[0]
        and path.item == path.nodes[-1]
        and path.score == 0.0
    ):
        return list(path.nodes)
    data: dict = {"nodes": list(path.nodes)}
    if path.user != path.nodes[0]:
        data["user"] = path.user
    if path.item != path.nodes[-1]:
        data["item"] = path.item
    if path.score != 0.0:
        data["score"] = path.score
    return data


def _path_from_json(entry) -> Path:
    if isinstance(entry, list):
        return Path(nodes=tuple(entry))
    if not isinstance(entry, dict):
        raise ProtocolError(
            "bad-request",
            "task path entries must be node lists or path objects",
        )
    nodes = _string_list(entry, "nodes", "path")
    score = entry.get("score", 0.0)
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise ProtocolError("bad-request", "path['score'] must be a number")
    user = entry.get("user", "")
    item = entry.get("item", "")
    if not isinstance(user, str) or not isinstance(item, str):
        raise ProtocolError(
            "bad-request", "path['user']/['item'] must be strings"
        )
    return Path(
        nodes=tuple(nodes), user=user, item=item, score=float(score)
    )


def task_to_json(task: SummaryTask) -> dict:
    """Plain-JSON form of a task (inverse of :func:`task_from_json`)."""
    return {
        "scenario": task.scenario.value,
        "terminals": list(task.terminals),
        "paths": [_path_to_json(p) for p in task.paths],
        "anchors": list(task.anchors),
        "focus": list(task.focus),
        "k": task.k,
    }


def task_from_json(data: dict) -> SummaryTask:
    """Build a task from its JSON form; :class:`ProtocolError` on junk."""
    scenario_value = _expect(data, "scenario", str, "task")
    try:
        scenario = Scenario(scenario_value)
    except ValueError as error:
        raise ProtocolError(
            "bad-request", f"unknown scenario {scenario_value!r}"
        ) from error
    paths = data.get("paths", [])
    if not isinstance(paths, list):
        raise ProtocolError(
            "bad-request", "task['paths'] must be a list"
        )
    k = data.get("k", 0)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ProtocolError("bad-request", "task['k'] must be an int")
    try:
        return SummaryTask(
            scenario=scenario,
            terminals=tuple(_string_list(data, "terminals", "task")),
            paths=tuple(_path_from_json(entry) for entry in paths),
            anchors=tuple(data.get("anchors", [])),
            focus=tuple(data.get("focus", [])),
            k=k,
        )
    except ValueError as error:  # SummaryTask/Path invariants
        raise ProtocolError("bad-request", str(error)) from error


# ----------------------------------------------------------------------
# SummaryRequest
# ----------------------------------------------------------------------
def request_to_json(request: SummaryRequest) -> dict:
    """Plain-JSON form of one request envelope."""
    overrides = {
        key: value.value if isinstance(value, PrizePolicy) else value
        for key, value in request.overrides.items()
    }
    data: dict = {"task": task_to_json(request.task)}
    if request.method is not None:
        data["method"] = request.method
    if overrides:
        data["overrides"] = overrides
    return data


def request_from_json(data: dict) -> SummaryRequest:
    """Build a request from its JSON form, coercing enum overrides."""
    task = task_from_json(_expect(data, "task", dict, "request"))
    method = data.get("method")
    if method is not None and not isinstance(method, str):
        raise ProtocolError("bad-request", "request['method'] must be a string")
    overrides = data.get("overrides", {})
    if not isinstance(overrides, Mapping):
        raise ProtocolError(
            "bad-request", "request['overrides'] must be an object"
        )
    overrides = dict(overrides)
    if "prize_policy" in overrides and not isinstance(
        overrides["prize_policy"], PrizePolicy
    ):
        try:
            overrides["prize_policy"] = PrizePolicy(
                overrides["prize_policy"]
            )
        except ValueError as error:
            raise ProtocolError(
                "bad-request",
                f"unknown prize_policy {overrides['prize_policy']!r}",
            ) from error
    valid = {f for f in EngineConfig.__dataclass_fields__}
    unknown = set(overrides) - valid
    if unknown:
        raise ProtocolError(
            "bad-request",
            f"unknown engine override(s) {sorted(unknown)}; "
            f"valid fields: {sorted(valid)}",
        )
    return SummaryRequest(task=task, method=method, overrides=overrides)


# ----------------------------------------------------------------------
# SubgraphExplanation
# ----------------------------------------------------------------------
def explanation_to_json(explanation: SubgraphExplanation) -> dict:
    """Positional-list form of a summary (lossless, order-preserving).

    Node ids are stored once in insertion order; adjacency rows,
    display names and relations reference them by position, with
    relation strings deduplicated through a small vocabulary — the same
    layout :mod:`repro.serving.wire` uses, in JSON-native lists and
    with string ids instead of parent-CSR slots (the receiving peer
    has no frozen view).
    """
    subgraph = explanation.subgraph
    positions = {node: i for i, node in enumerate(subgraph.nodes())}
    rows = [
        [[positions[neighbor], weight] for neighbor, weight in row.items()]
        for row in (subgraph.neighbors(node) for node in subgraph.nodes())
    ]
    vocab: dict[str, int] = {}
    relations = [
        [positions[a], positions[b], vocab.setdefault(rel, len(vocab))]
        for (a, b), rel in subgraph._relations.items()
    ]
    return {
        "nodes": list(positions),
        "rows": rows,
        "names": [
            [positions[node], name]
            for node, name in subgraph._names.items()
        ],
        "relations": relations,
        "relation_vocab": list(vocab),
        "num_edges": subgraph.num_edges,
        "version": subgraph.version,
        "method": explanation.method,
        "params": dict(explanation.params),
    }


def explanation_from_json(data: dict, task: SummaryTask) -> SubgraphExplanation:
    """Rehydrate a summary; bit-identical iteration orders.

    The adjacency dict is rebuilt row by row in the encoded order —
    same node insertion order, same neighbor order inside every row,
    same name/relation table order as the encoder saw.
    """
    nodes = _string_list(data, "nodes", "explanation")
    rows = _expect(data, "rows", list, "explanation")
    if len(rows) != len(nodes):
        raise ProtocolError(
            "bad-request", "explanation rows do not match its nodes"
        )
    try:
        adjacency = {
            node: {nodes[pos]: weight for pos, weight in row}
            for node, row in zip(nodes, rows)
        }
        names = {nodes[pos]: name for pos, name in data.get("names", [])}
        vocab = data.get("relation_vocab", [])
        relations = {
            (nodes[pa], nodes[pb]): vocab[r]
            for pa, pb, r in data.get("relations", [])
        }
    except (IndexError, TypeError, ValueError) as error:
        raise ProtocolError(
            "bad-request", f"malformed explanation body ({error})"
        ) from error
    subgraph = KnowledgeGraph()
    subgraph._adjacency = adjacency
    subgraph._names = names
    subgraph._relations = relations
    subgraph._num_edges = _expect(data, "num_edges", int, "explanation")
    subgraph._version = _expect(data, "version", int, "explanation")
    return SubgraphExplanation(
        subgraph=subgraph,
        task=task,
        method=_expect(data, "method", str, "explanation"),
        params=dict(data.get("params", {})),
    )


# ----------------------------------------------------------------------
# Whole-graph state (durability snapshots)
# ----------------------------------------------------------------------
def graph_state_to_json(graph: KnowledgeGraph) -> dict:
    """Positional-list form of a *whole* mutable graph, order-preserving.

    The durability layer (:mod:`repro.serving.journal`) snapshots hosted
    graphs with this codec rather than :func:`repro.graph.io.graph_to_dict`
    because the latter sorts nodes and edges for diff-friendly files —
    a graph rebuilt from it has a different insertion order, so its
    frozen CSR arrays (and every downstream tie-break) differ from the
    pre-snapshot live graph. This codec keeps the same positional
    layout as :func:`explanation_to_json` and additionally carries the
    mutation ``version`` counter, so a recovered graph is bit-identical:
    same node order, same per-row neighbor order, same name/relation
    tables, same version.
    """
    positions = {node: i for i, node in enumerate(graph.nodes())}
    rows = [
        [[positions[neighbor], weight] for neighbor, weight in row.items()]
        for row in (graph.neighbors(node) for node in graph.nodes())
    ]
    vocab: dict[str, int] = {}
    relations = [
        [positions[a], positions[b], vocab.setdefault(rel, len(vocab))]
        for (a, b), rel in graph._relations.items()
    ]
    return {
        "nodes": list(positions),
        "rows": rows,
        "names": [
            [positions[node], name] for node, name in graph._names.items()
        ],
        "relations": relations,
        "relation_vocab": list(vocab),
        "num_edges": graph.num_edges,
        "version": graph.version,
    }


def graph_state_from_json(data: dict) -> KnowledgeGraph:
    """Rehydrate a snapshot; bit-identical iteration orders and version."""
    nodes = _string_list(data, "nodes", "graph-state")
    rows = _expect(data, "rows", list, "graph-state")
    if len(rows) != len(nodes):
        raise ProtocolError(
            "bad-request", "graph-state rows do not match its nodes"
        )
    try:
        adjacency = {
            node: {nodes[pos]: weight for pos, weight in row}
            for node, row in zip(nodes, rows)
        }
        names = {nodes[pos]: name for pos, name in data.get("names", [])}
        vocab = data.get("relation_vocab", [])
        relations = {
            (nodes[pa], nodes[pb]): vocab[r]
            for pa, pb, r in data.get("relations", [])
        }
    except (IndexError, TypeError, ValueError) as error:
        raise ProtocolError(
            "bad-request", f"malformed graph-state body ({error})"
        ) from error
    graph = KnowledgeGraph()
    graph._adjacency = adjacency
    graph._names = names
    graph._relations = relations
    graph._num_edges = _expect(data, "num_edges", int, "graph-state")
    graph._version = _expect(data, "version", int, "graph-state")
    return graph


# ----------------------------------------------------------------------
# BatchResult / BatchReport
# ----------------------------------------------------------------------
def result_to_json(result: BatchResult) -> dict:
    """One streamed result frame body — self-contained (task included).

    A failed result (typed :class:`~repro.core.batch.TaskFailure`
    instead of an explanation) travels as a ``failure`` object in
    place of the ``explanation`` key, so a streaming client still
    receives exactly one frame per submitted task and can branch on
    which key is present.

    ``trace`` (the task's span list, present only when the serving
    session traces) is an *optional* field — absent means not traced —
    so it rides inside ``protocol_version: 1`` like ``deadline_ms``
    and ``failure`` before it.
    """
    data = {
        "index": result.index,
        "seconds": result.seconds,
        "task": task_to_json(result.task),
    }
    if result.trace is not None:
        data["trace"] = result.trace
    if result.failure is not None:
        data["failure"] = {
            "cause": result.failure.cause,
            "message": result.failure.message,
            "retries": result.failure.retries,
        }
    else:
        data["explanation"] = explanation_to_json(result.explanation)
    return data


def result_from_json(data: dict) -> BatchResult:
    """Rebuild one result; the explanation reuses the decoded task."""
    task = task_from_json(_expect(data, "task", dict, "result"))
    seconds = _expect(data, "seconds", (int, float), "result")
    index = _expect(data, "index", int, "result")
    trace = data.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise ProtocolError(
            "bad-request", "result 'trace' must be an object when present"
        )
    if "failure" in data:
        body = _expect(data, "failure", dict, "result")
        cause = _expect(body, "cause", str, "failure")
        if cause not in FAILURE_CAUSES:
            raise ProtocolError(
                "bad-request",
                f"unknown failure cause {cause!r}; expected one of "
                f"{FAILURE_CAUSES}",
            )
        return BatchResult(
            index=index,
            task=task,
            explanation=None,
            seconds=float(seconds),
            failure=TaskFailure(
                cause=cause,
                message=_expect(body, "message", str, "failure"),
                retries=_expect(body, "retries", int, "failure"),
            ),
            trace=trace,
        )
    return BatchResult(
        index=index,
        task=task,
        explanation=explanation_from_json(
            _expect(data, "explanation", dict, "result"), task
        ),
        seconds=float(seconds),
        trace=trace,
    )


#: BatchReport scalar fields carried verbatim through the codec.
_REPORT_FIELDS = (
    ("method", str),
    ("freeze_seconds", (int, float)),
    ("total_seconds", (int, float)),
    ("cache_hits", int),
    ("cache_misses", int),
    # The next three are always 0; protocol_version 1 decoders require them.
    ("cache_patched", int),
    ("cache_base_hits", int),
    ("cache_base_misses", int),
    ("workers", int),
    ("parallel", str),
    ("scheduler", str),
)


def report_to_json(report: BatchReport) -> dict:
    """Whole-batch report, lossless (see :meth:`BatchReport.to_dict`).

    The latency percentiles and throughput are *derived* properties of
    the results; they are emitted so artifacts (``BENCH_server.json``)
    and log scrapers can read them without re-deriving, and are
    recomputed — not trusted — on decode.
    """
    data = {name: getattr(report, name) for name, _kind in _REPORT_FIELDS}
    data["results"] = [result_to_json(result) for result in report.results]
    data["retried"] = report.retried
    data["store_hits"] = report.store_hits
    data["store_misses"] = report.store_misses
    data["failed"] = report.failed  # derived; recomputed on decode
    data["latency_p50_ms"] = report.latency_p50_ms
    data["latency_p95_ms"] = report.latency_p95_ms
    data["throughput"] = report.throughput
    return data


def report_from_json(data: dict) -> BatchReport:
    """Rebuild a report from :func:`report_to_json` output."""
    results = _expect(data, "results", list, "report")
    kwargs = {}
    for name, kind in _REPORT_FIELDS:
        value = _expect(data, name, kind, "report")
        kwargs[name] = float(value) if kind == (int, float) else value
    # Optional on decode: reports written before the resilience layer
    # (retried) or the shared closure store (store_*) existed — old
    # BENCH artifacts — simply lack these fields.
    for name in ("retried", "store_hits", "store_misses"):
        value = data.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "bad-request", f"report[{name!r}] must be an int"
            )
        kwargs[name] = value
    return BatchReport(
        results=tuple(result_from_json(result) for result in results),
        **kwargs,
    )

