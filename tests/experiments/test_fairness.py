"""Fairness slicing."""

from repro.experiments.fairness import (
    FairnessReport,
    item_fairness,
    user_fairness,
)


class TestUserFairness:
    def test_groups_by_gender(self, test_bench):
        report = user_fairness(
            test_bench, "PGPR", "comprehensibility", "PCST", k=3
        )
        assert set(report.groups) <= {"M", "F"}
        assert report.group_means

    def test_gap_non_negative(self, test_bench):
        report = user_fairness(
            test_bench, "PGPR", "privacy", "PCST", k=3
        )
        assert report.max_gap >= 0.0

    def test_baseline_method(self, test_bench):
        report = user_fairness(
            test_bench, "PGPR", "comprehensibility", "baseline", k=3
        )
        assert report.group_means


class TestItemFairness:
    def test_popularity_buckets(self, test_bench):
        report = item_fairness(
            test_bench, "PGPR", "comprehensibility", "baseline", k=3
        )
        assert set(report.groups) <= {"popular", "unpopular"}

    def test_single_group_gap_zero(self):
        report = FairnessReport(
            metric="x", group_means={"only": 1.0}, max_gap=0.0
        )
        assert report.max_gap == 0.0
