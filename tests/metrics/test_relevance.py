"""Relevance: Σ w_M over explanation edges."""

from repro.core.explanation import PathSetExplanation
from repro.graph.paths import Path
from repro.metrics import relevance


class TestRelevance:
    def test_path_set_sums_interaction_weights(
        self, metric_graph, path_explanation
    ):
        # Paths: u:0-i:0 (5) + u:0-i:2 (3); knowledge edges contribute 0.
        assert relevance(path_explanation, metric_graph) == 8.0

    def test_summary_sums_subgraph_weights(
        self, metric_graph, summary_explanation
    ):
        expected = sum(
            e.weight for e in summary_explanation.subgraph.edges()
        )
        assert relevance(summary_explanation, metric_graph) == expected

    def test_repeated_edges_count_twice_for_paths(self, metric_graph):
        explanation = PathSetExplanation(
            paths=(Path(nodes=("u:0", "i:0")), Path(nodes=("u:0", "i:0")))
        )
        assert relevance(explanation, metric_graph) == 10.0

    def test_hallucinated_edges_contribute_zero(self, metric_graph):
        explanation = PathSetExplanation(
            paths=(Path(nodes=("u:0", "i:3")),)  # not a real edge
        )
        assert relevance(explanation, metric_graph) == 0.0

    def test_non_negative(self, metric_graph, path_explanation):
        assert relevance(path_explanation, metric_graph) >= 0.0
