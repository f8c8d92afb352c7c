"""Summarizer facade: dispatch and disconnected-terminal fallback."""

import pytest

from repro.core.pcst_summary import PCSTSummarizer
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.steiner_summary import SteinerSummarizer
from repro.core.summarizer import Summarizer, summarize
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path


class TestDispatch:
    def test_st(self, core_graph, toy_task):
        assert Summarizer(core_graph, "ST").summarize(toy_task).method == "ST"

    def test_pcst(self, core_graph, toy_task):
        summary = Summarizer(core_graph, "PCST").summarize(toy_task)
        assert summary.method == "PCST"

    def test_union(self, core_graph, toy_task):
        summary = Summarizer(core_graph, "Union").summarize(toy_task)
        assert summary.method == "Union"

    def test_unknown_method_rejected(self, core_graph):
        with pytest.raises(ValueError):
            Summarizer(core_graph, "MAGIC")

    def test_engine_knob_reaches_every_method(self, core_graph, toy_task):
        """engine= selects the backend for ST, ST-fast and PCST alike;
        outputs agree."""
        for method in ("ST", "ST-fast", "PCST"):
            outputs = []
            for engine in ("frozen", "dict"):
                summary = Summarizer(
                    core_graph, method=method, engine=engine
                ).summarize(toy_task)
                outputs.append(
                    (
                        sorted(summary.subgraph.nodes()),
                        sorted(e.key() for e in summary.subgraph.edges()),
                    )
                )
            assert outputs[0] == outputs[1]

    def test_unknown_engine_rejected(self, core_graph):
        for method in ("ST", "ST-fast", "PCST", "Union"):
            with pytest.raises(ValueError, match="unknown engine"):
                Summarizer(core_graph, method=method, engine="gpu")

    @pytest.mark.parametrize(
        "cls", [Summarizer, SteinerSummarizer, PCSTSummarizer]
    )
    def test_csr_engine_alias_is_gone(self, core_graph, cls):
        """The CSR engine is named "frozen" only; the old "csr" alias
        is rejected like any other unknown engine."""
        with pytest.raises(ValueError, match="unknown engine 'csr'"):
            cls(core_graph, engine="csr")

    def test_one_shot_helper(self, core_graph, toy_task):
        summary = summarize(core_graph, toy_task, method="ST", lam=2.0)
        assert summary.params["lam"] == 2.0


class TestDisconnectedFallback:
    @pytest.fixture
    def split_graph(self):
        graph = KnowledgeGraph()
        graph.add_edge("u:0", "i:0", 5.0)
        graph.add_edge("i:0", "e:g:0", 0.0, "g")
        graph.add_edge("e:g:0", "i:1", 0.0, "g")
        # Disconnected island holding i:9.
        graph.add_edge("u:9", "i:9", 1.0)
        return graph

    @pytest.fixture
    def split_task(self):
        return SummaryTask(
            scenario=Scenario.USER_CENTRIC,
            terminals=("u:0", "i:1", "i:9"),
            paths=(Path(nodes=("u:0", "i:0", "e:g:0", "i:1")),),
            anchors=("i:1", "i:9"),
            focus=("u:0",),
        )

    def test_st_narrows_to_connected_component(self, split_graph, split_task):
        summary = Summarizer(split_graph, "ST").summarize(split_task)
        assert "u:0" in summary.subgraph
        assert "i:1" in summary.subgraph
        assert "i:9" not in summary.subgraph

    def test_pcst_relaxes_connectivity(self, split_graph, split_task):
        """PCST keeps the island terminal but never connects it — the
        prize-collecting relaxation in action."""
        from repro.graph.shortest_paths import bfs_shortest_path

        summary = Summarizer(split_graph, "PCST").summarize(split_task)
        assert "u:0" in summary.subgraph
        if "i:9" in summary.subgraph:
            assert bfs_shortest_path(summary.subgraph, "u:0", "i:9") is None

    def test_narrowed_task_keeps_focus(self, split_graph, split_task):
        summary = Summarizer(split_graph, "ST").summarize(split_task)
        assert summary.task.focus == ("u:0",)
        assert "i:9" not in summary.task.terminals
