"""ST summaries."""

from repro.core.steiner_summary import SteinerSummarizer
from repro.graph.subgraph import is_tree


class TestSteinerSummarizer:
    def test_summary_is_tree_spanning_terminals(self, core_graph, toy_task):
        summary = SteinerSummarizer(core_graph, lam=1.0).summarize(toy_task)
        assert is_tree(summary.subgraph)
        for terminal in toy_task.terminals:
            assert terminal in summary.subgraph

    def test_smaller_than_input_paths(self, core_graph, toy_task):
        """The point of the paper: the summary beats the union in size."""
        total_path_edges = sum(len(p) for p in toy_task.paths)
        summary = SteinerSummarizer(core_graph, lam=100.0).summarize(toy_task)
        assert summary.subgraph.num_edges < total_path_edges

    def test_high_lambda_reuses_path_edges(self, core_graph, toy_task):
        summary = SteinerSummarizer(core_graph, lam=100.0).summarize(toy_task)
        path_edges = {
            key for path in toy_task.paths for key in path.edge_keys()
        }
        summary_edges = {e.key() for e in summary.subgraph.edges()}
        # At λ=100 the tree overwhelmingly reuses input-path edges.
        assert summary_edges & path_edges

    def test_lambda_zero_still_spans(self, core_graph, toy_task):
        summary = SteinerSummarizer(core_graph, lam=0.0).summarize(toy_task)
        assert is_tree(summary.subgraph)
        for terminal in toy_task.terminals:
            assert terminal in summary.subgraph

    def test_params_recorded(self, core_graph, toy_task):
        summary = SteinerSummarizer(
            core_graph, lam=2.0, weight_influence=0.5
        ).summarize(toy_task)
        assert summary.params == {
            "lam": 2.0,
            "weight_influence": 0.5,
            "algorithm": "kmb",
        }

    def test_on_real_graph(self, small_kg, test_bench):
        """Summaries on the generated KG span the requested terminals."""
        from repro.core.scenarios import user_centric_task

        per_user = test_bench.recommendations("PGPR")
        user = test_bench.eval_users[0]
        task = user_centric_task(per_user[user], 4)
        summary = SteinerSummarizer(test_bench.graph, lam=1.0).summarize(task)
        assert is_tree(summary.subgraph)
        assert summary.terminal_coverage == 1.0
