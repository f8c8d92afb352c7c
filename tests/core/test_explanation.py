"""Explanation counting views (path sets vs subgraphs)."""

import pytest

from repro.core.explanation import PathSetExplanation
from repro.core.steiner_summary import SteinerSummarizer
from repro.graph.paths import Path
from repro.graph.types import NodeType


class TestPathSetExplanation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PathSetExplanation(paths=())

    def test_node_mentions_with_multiplicity(self):
        paths = (
            Path(nodes=("u:0", "i:0", "e:g:0", "i:1")),
            Path(nodes=("u:0", "i:2", "e:g:0", "i:3")),
        )
        explanation = PathSetExplanation(paths=paths)
        mentions = explanation.node_mentions()
        assert mentions["u:0"] == 2
        assert mentions["e:g:0"] == 2
        assert explanation.total_node_mentions == 8

    def test_size_counts_edge_multiplicity(self):
        paths = (
            Path(nodes=("u:0", "i:0")),
            Path(nodes=("u:0", "i:0", "e:g:0"), item="e:g:0"),
        )
        explanation = PathSetExplanation(paths=paths)
        assert explanation.size_in_edges == 3  # u-i twice + i-e once
        assert len(explanation.unique_edges()) == 2

    def test_count_nodes_of_type(self):
        explanation = PathSetExplanation(
            paths=(Path(nodes=("u:0", "i:0", "e:g:0", "i:1")),)
        )
        assert explanation.count_nodes_of_type(NodeType.ITEM) == 2
        assert explanation.count_nodes_of_type(NodeType.USER) == 1


class TestSubgraphExplanation:
    @pytest.fixture
    def summary(self, core_graph, toy_task):
        return SteinerSummarizer(core_graph, lam=1.0).summarize(toy_task)

    def test_nodes_unique(self, summary):
        mentions = summary.node_mentions()
        assert all(count == 1 for count in mentions.values())

    def test_size_is_subgraph_edges(self, summary):
        assert summary.size_in_edges == summary.subgraph.num_edges

    def test_terminal_coverage_full(self, summary):
        assert summary.terminal_coverage == 1.0
        assert summary.covered_terminals == set(summary.task.terminals)

    def test_connection_paths_reach_anchors(self, summary):
        targets = {p.nodes[-1] for p in summary.connection_paths}
        assert targets == {"i:1", "i:3"}
        for route in summary.connection_paths:
            assert route.nodes[0] == "u:0"

    def test_connection_paths_live_in_subgraph(self, summary):
        for route in summary.connection_paths:
            assert route.is_valid_in(summary.subgraph)

    def test_method_and_params_recorded(self, summary):
        assert summary.method == "ST"
        assert summary.params["lam"] == 1.0
