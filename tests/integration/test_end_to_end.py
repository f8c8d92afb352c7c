"""End-to-end integration: dataset -> KG -> recommender -> summary ->
metrics, across scenarios and methods."""

import pytest

from repro.core.explanation import PathSetExplanation
from repro.core.scenarios import (
    item_centric_task,
    item_group_task,
    user_centric_task,
    user_group_task,
)
from repro.core.summarizer import Summarizer
from repro.core.verbalize import verbalize_summary
from repro.graph.subgraph import is_forest
from repro.metrics import evaluate_explanation
from repro.recommenders.base import invert_recommendations


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, test_bench):
        per_user = test_bench.recommendations("PGPR")
        by_item = invert_recommendations(per_user, test_bench.config.k_max)
        return test_bench, per_user, by_item

    def test_user_centric_all_methods(self, pipeline):
        bench, per_user, _ = pipeline
        user = bench.eval_users[0]
        task = user_centric_task(per_user[user], 5)
        for method in ("ST", "PCST", "Union"):
            summary = Summarizer(bench.graph, method=method).summarize(task)
            report = evaluate_explanation(summary, bench.graph)
            assert report.comprehensibility > 0
            assert 0 <= report.privacy <= 1

    def test_item_centric_summary(self, pipeline):
        bench, _, by_item = pipeline
        item = next(i for i, recs in by_item.items() if len(recs) >= 2)
        task = item_centric_task(item, by_item[item])
        summary = Summarizer(bench.graph, method="ST").summarize(task)
        assert item in summary.subgraph
        assert is_forest(summary.subgraph)

    def test_user_group_summary(self, pipeline):
        bench, per_user, _ = pipeline
        group = bench.eval_users[:3]
        task = user_group_task(group, per_user, 4)
        summary = Summarizer(bench.graph, method="PCST").summarize(task)
        present = [u for u in group if u in summary.subgraph]
        assert len(present) == len(group)

    def test_item_group_summary(self, pipeline):
        bench, _, by_item = pipeline
        items = [i for i, recs in by_item.items() if recs][:3]
        task = item_group_task(items, by_item)
        summary = Summarizer(bench.graph, method="ST").summarize(task)
        assert summary.terminal_coverage == 1.0

    def test_summary_beats_baseline_size(self, pipeline):
        """The core claim end-to-end: ST summaries are smaller than the
        baseline path sets they summarize."""
        bench, per_user, _ = pipeline
        k = bench.config.k_max
        wins = 0
        for user in bench.eval_users:
            task = user_centric_task(per_user[user], k)
            baseline = PathSetExplanation(paths=task.paths)
            summary = Summarizer(bench.graph, method="ST", lam=1.0).summarize(
                task
            )
            if summary.size_in_edges < baseline.size_in_edges:
                wins += 1
        assert wins >= 0.75 * len(bench.eval_users)

    def test_verbalization_round_trip(self, pipeline):
        bench, per_user, _ = pipeline
        user = bench.eval_users[1]
        task = user_centric_task(per_user[user], 3)
        summary = Summarizer(bench.graph, method="ST").summarize(task)
        text = verbalize_summary(summary, bench.graph, include_routes=True)
        assert user in text

    def test_all_recommenders_summarizable(self, test_bench):
        for name in ("PGPR", "CAFE", "PLM", "PEARLM"):
            per_user = test_bench.recommendations(name)
            user = next(
                u for u, lst in per_user.items() if len(lst) >= 2
            )
            task = user_centric_task(per_user[user], 2)
            summary = Summarizer(test_bench.graph, method="ST").summarize(
                task
            )
            assert summary.subgraph.num_nodes >= 2

    def test_posthoc_adapter_pipeline(self, test_bench):
        """The paper's 'recommenders without paths' extension works."""
        per_user = test_bench.recommender("MF+posthoc").recommend_many(
            test_bench.eval_users[:2], 3
        )
        user = test_bench.eval_users[0]
        if len(per_user[user]) == 0:
            pytest.skip("posthoc found no reachable items at this scale")
        task = user_centric_task(per_user[user], min(3, len(per_user[user])))
        summary = Summarizer(test_bench.graph, method="ST").summarize(task)
        assert summary.terminal_coverage == 1.0


class TestCrossDataset:
    def test_lfm1m_pipeline(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.workbench import Workbench

        config = ExperimentConfig.test_scale().with_dataset("lfm1m")
        bench = Workbench.get(config)
        per_user = bench.recommendations("PGPR")
        user = next(u for u, lst in per_user.items() if len(lst) >= 2)
        task = user_centric_task(per_user[user], 2)
        summary = Summarizer(bench.graph, method="ST").summarize(task)
        assert summary.terminal_coverage == 1.0
