"""The versioned wire schema: lossless codecs + strict validation.

``repro.api.protocol`` is the single serialization authority for the
network tier, the CLI's JSONL task files, and ``BatchReport.to_dict``.
These tests pin the three contracts that make it trustworthy:

- every codec round-trips losslessly *through real JSON text* (float
  repr round-trips exactly; iteration orders survive — the
  bit-identity the server's parity guarantee is built on);
- decoding is strict: junk raises :class:`ProtocolError` with a stable
  machine-readable ``code``, never a KeyError three layers deep;
- reports written by older peers keep decoding, including ones that
  name a retired backend or scheduler.
"""

import json

import pytest

from repro.api import protocol
from repro.api.requests import SummaryRequest
from repro.core.batch import BatchReport, BatchResult
from repro.core.explanation import SubgraphExplanation
from repro.core.pcst_summary import PrizePolicy
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.summarizer import Summarizer
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path

from tests.serving.test_wire import assert_bit_identical


def through_json(data: dict) -> dict:
    """Force a real text round trip (what the socket actually does)."""
    return json.loads(json.dumps(data))


def make_task(**overrides) -> SummaryTask:
    fields = dict(
        scenario=Scenario.USER_CENTRIC,
        terminals=("u:0", "i:1", "i:2"),
        paths=(Path(nodes=("u:0", "i:1")), Path(nodes=("u:0", "e:0", "i:2"))),
        anchors=("i:1", "i:2"),
        focus=("u:0",),
        k=2,
    )
    fields.update(overrides)
    return SummaryTask(**fields)


class TestTaskCodec:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_round_trip_every_scenario(self, scenario, test_bench):
        task = next(iter(test_bench.tasks(scenario, "PGPR", 4).values()))
        assert protocol.task_from_json(
            through_json(protocol.task_to_json(task))
        ) == task

    def test_schema_is_pinned(self):
        data = protocol.task_to_json(make_task())
        assert data == {
            "scenario": "user-centric",
            "terminals": ["u:0", "i:1", "i:2"],
            "paths": [["u:0", "i:1"], ["u:0", "e:0", "i:2"]],
            "anchors": ["i:1", "i:2"],
            "focus": ["u:0"],
            "k": 2,
        }

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("scenario"),
            lambda d: d.update(scenario="no-such-scenario"),
            lambda d: d.update(terminals="not-a-list"),
            lambda d: d.update(terminals=[1, 2]),
            lambda d: d.update(paths=[["u:0"], "oops"]),
            lambda d: d.update(k="many"),
            lambda d: d.update(k=True),
            lambda d: d.update(anchors=["never-a-terminal"]),
        ],
    )
    def test_malformed_task_raises_typed_error(self, mangle):
        data = protocol.task_to_json(make_task())
        mangle(data)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.task_from_json(data)
        assert excinfo.value.code == "bad-request"


class TestRequestCodec:
    def test_round_trip_with_enum_override(self):
        request = SummaryRequest(
            task=make_task(),
            method="pcst",
            overrides={
                "lam": 2.5,
                "prize_policy": PrizePolicy.PAGERANK,
                "use_edge_weights": True,
            },
        )
        decoded = protocol.request_from_json(
            through_json(protocol.request_to_json(request))
        )
        assert decoded.task == request.task
        assert decoded.method == "pcst"
        assert dict(decoded.overrides) == dict(request.overrides)
        assert decoded.overrides["prize_policy"] is PrizePolicy.PAGERANK

    def test_bare_request_omits_optional_fields(self):
        data = protocol.request_to_json(SummaryRequest(task=make_task()))
        assert set(data) == {"task"}
        decoded = protocol.request_from_json(through_json(data))
        assert decoded.method is None and not decoded.overrides

    @pytest.mark.parametrize(
        ("mangle", "code"),
        [
            (lambda d: d.pop("task"), "bad-request"),
            (lambda d: d.update(method=7), "bad-request"),
            (lambda d: d.update(overrides=[1]), "bad-request"),
            (
                lambda d: d.update(overrides={"no_such_knob": 1}),
                "bad-request",
            ),
            (
                lambda d: d.update(overrides={"prize_policy": "bogus"}),
                "bad-request",
            ),
        ],
    )
    def test_malformed_request_raises_typed_error(self, mangle, code):
        data = protocol.request_to_json(SummaryRequest(task=make_task()))
        mangle(data)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.request_from_json(data)
        assert excinfo.value.code == code


class TestExplanationCodec:
    @pytest.mark.parametrize("method", ["ST", "ST-fast", "PCST", "Union"])
    def test_real_summaries_round_trip_bit_identical(
        self, method, test_bench
    ):
        task = next(
            iter(test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 4).values())
        )
        explanation = Summarizer(
            test_bench.graph, method=method
        ).summarize(task)
        decoded = protocol.explanation_from_json(
            through_json(protocol.explanation_to_json(explanation)), task
        )
        assert_bit_identical(decoded, explanation)

    def test_names_relations_and_isolated_nodes_survive(self, toy_graph):
        toy_graph.set_name("i:0", "The Matrix")
        from repro.graph.subgraph import edge_subgraph

        sub = edge_subgraph(toy_graph, [("i:0", "u:0"), ("i:0", "e:genre:0")])
        sub.add_node("u:99")  # isolated — no adjacency row entries
        task = make_task()
        explanation = SubgraphExplanation(
            subgraph=sub, task=task, method="X", params={"lam": 2.0}
        )
        decoded = protocol.explanation_from_json(
            through_json(protocol.explanation_to_json(explanation)), task
        )
        assert_bit_identical(decoded, explanation)
        assert decoded.subgraph.name("i:0") == "The Matrix"
        assert decoded.subgraph.relation("i:0", "e:genre:0") == "genre"
        assert "u:99" in list(decoded.subgraph.nodes())

    def test_rows_must_match_nodes(self):
        task = make_task()
        sub = KnowledgeGraph()
        sub.add_node("u:0")
        data = protocol.explanation_to_json(
            SubgraphExplanation(subgraph=sub, task=task, method="X")
        )
        data["rows"] = []
        with pytest.raises(protocol.ProtocolError):
            protocol.explanation_from_json(data, task)


@pytest.fixture()
def sample_report(test_bench):
    tasks = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values()
    )[:4]
    from repro.api import ExplanationSession

    with ExplanationSession(test_bench.graph) as session:
        return session.run(tasks)


class TestReportCodec:
    def test_to_dict_from_dict_is_lossless(self, sample_report):
        report = sample_report
        decoded = BatchReport.from_dict(through_json(report.to_dict()))
        for name in (
            "method",
            "freeze_seconds",
            "total_seconds",
            "cache_hits",
            "cache_misses",
            "cache_patched",
            "cache_base_hits",
            "cache_base_misses",
            "workers",
            "parallel",
            "scheduler",
        ):
            assert getattr(decoded, name) == getattr(report, name), name
        # Derived metrics re-derive identically because per-result
        # seconds survive the JSON text round trip bit-exactly.
        assert decoded.latency_p50_ms == report.latency_p50_ms
        assert decoded.latency_p95_ms == report.latency_p95_ms
        assert decoded.throughput == report.throughput
        assert len(decoded.results) == len(report.results)
        for got, want in zip(decoded.results, report.results):
            assert got.index == want.index
            assert got.seconds == want.seconds
            assert got.task == want.task
            assert list(got.explanation.subgraph.nodes()) == (
                list(want.explanation.subgraph.nodes())
            )

    def test_scheduler_and_counters_survive(self, test_bench):
        tasks = list(
            test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 3).values()
        )[:4]
        from repro.api import ExplanationSession, ParallelConfig

        with ExplanationSession(
            test_bench.graph,
            parallel=ParallelConfig(backend="processes", workers=2),
        ) as session:
            report = session.run(tasks)
        assert report.scheduler == "work-stealing"
        decoded = BatchReport.from_dict(through_json(report.to_dict()))
        assert decoded.scheduler == "work-stealing"
        assert decoded.parallel == "processes"
        assert decoded.workers == report.workers

    def test_v1_retired_backend_and_scheduler_still_decode(self):
        """A literal protocol-v1 report from a peer that still ran the
        thread backend and the chunked scheduler decodes verbatim."""
        legacy = {
            "method": "ST",
            "freeze_seconds": 0.0,
            "total_seconds": 0.5,
            "cache_hits": 1,
            "cache_misses": 2,
            "cache_patched": 0,
            "cache_base_hits": 0,
            "cache_base_misses": 0,
            "workers": 2,
            "parallel": "threads",
            "scheduler": "chunked",
            "results": [],
        }
        decoded = BatchReport.from_dict(through_json(legacy))
        assert decoded.parallel == "threads"
        assert decoded.scheduler == "chunked"
        assert (decoded.cache_hits, decoded.cache_misses) == (1, 2)
        assert decoded.workers == 2 and decoded.results == ()

    def test_result_codec_is_self_contained(self, sample_report):
        result = sample_report.results[0]
        decoded = protocol.result_from_json(
            through_json(protocol.result_to_json(result))
        )
        assert isinstance(decoded, BatchResult)
        assert decoded.task == result.task
        assert decoded.explanation.task == result.task
        assert decoded.seconds == result.seconds

    def test_v1_derived_closure_counters_still_decode(self, sample_report):
        """Reports from peers that still derived closures carry nonzero
        ``cache_patched``/``cache_base_*`` counters: they decode
        verbatim, while reports built here always encode them as 0."""
        names = ("cache_patched", "cache_base_hits", "cache_base_misses")
        encoded = sample_report.to_dict()
        assert [encoded[name] for name in names] == [0, 0, 0]
        legacy = dict(encoded, cache_patched=12, cache_base_hits=30)
        legacy["cache_base_misses"] = 9
        decoded = BatchReport.from_dict(through_json(legacy))
        assert [getattr(decoded, name) for name in names] == [12, 30, 9]
        assert decoded.cache_hits == sample_report.cache_hits
        assert decoded.cache_misses == sample_report.cache_misses
        assert len(decoded.results) == len(sample_report.results)

    def test_missing_counter_is_rejected(self, sample_report):
        data = sample_report.to_dict()
        del data["cache_base_hits"]
        with pytest.raises(protocol.ProtocolError):
            BatchReport.from_dict(data)


class TestEnvelopes:
    def test_envelope_round_trip(self):
        kind, frame = protocol.open_envelope(
            through_json(protocol.envelope("ping", {"x": 1}))
        )
        assert kind == "ping" and frame["x"] == 1

    @pytest.mark.parametrize(
        ("data", "code"),
        [
            ("not-a-dict", "bad-frame"),
            ({}, "unknown-version"),
            ({"protocol_version": 999, "kind": "ping"}, "unknown-version"),
            ({"protocol_version": protocol.PROTOCOL_VERSION}, "bad-request"),
        ],
    )
    def test_bad_envelopes_are_typed(self, data, code):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.open_envelope(data)
        assert excinfo.value.code == code

    def test_error_frame_codes_are_closed_set(self):
        frame = protocol.error_frame("overloaded", "busy")
        assert frame["kind"] == "error" and frame["code"] == "overloaded"
        with pytest.raises(ValueError):
            protocol.error_frame("made-up-code", "nope")


class TestLegacyAliases:
    def test_jsonl_helpers_do_not_warn(self, tmp_path):
        import warnings

        from repro.core.batch import dump_tasks_jsonl, load_tasks_jsonl

        tasks = [make_task(), make_task(k=3)]
        path = tmp_path / "tasks.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            dump_tasks_jsonl(tasks, path)
            assert load_tasks_jsonl(path) == tasks
