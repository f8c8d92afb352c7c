"""Table reproductions."""

from repro.experiments.tables import (
    angelopoulos_example,
    table1_example,
    table2,
    table3,
)


class TestTable1:
    def test_paper_numbers_reproduced(self):
        """Paper: 'the original explanations had a total length of 13,
        the summarization achieves a length of 6 edges'."""
        result = table1_example()
        assert result.total_path_edges == 13
        assert result.summary_edges == 6

    def test_summary_keeps_key_connectors(self):
        result = table1_example()
        assert "Theo Angelopoulos" in result.summary_sentence
        assert "Drama" in result.summary_sentence

    def test_summary_names_all_three_movies(self):
        result = table1_example()
        for title in (
            "Eternity and a Day",
            "The Beekeeper",
            "The Suspended Step of the Stork",
        ):
            assert title in result.summary_sentence

    def test_three_path_sentences(self):
        result = table1_example()
        assert len(result.path_sentences) == 3

    def test_example_graph_paths_valid(self):
        graph, paths = angelopoulos_example()
        for path in paths:
            assert path.is_valid_in(graph)


class TestTable2:
    def test_stats_shape(self, test_config):
        stats = table2(test_config, approx_pairs=16)
        assert stats.num_users > 0
        assert stats.num_items > 0
        assert stats.num_external > 0
        assert stats.num_edges > stats.num_nodes  # dense like ML1M
        assert stats.diameter >= 2


class TestTable3:
    def test_five_graphs(self):
        rows = table3(scale=0.004)
        assert len(rows) == 5

    def test_sizes_increase(self):
        rows = table3(scale=0.004)
        nodes = [stats.num_nodes for _spec, stats in rows]
        assert nodes == sorted(nodes)
        edges = [stats.num_edges for _spec, stats in rows]
        assert edges == sorted(edges)

    def test_realized_close_to_spec(self):
        rows = table3(scale=0.004)
        for spec, stats in rows:
            assert stats.num_nodes == spec.total_nodes
            assert stats.num_edges <= spec.num_edges
