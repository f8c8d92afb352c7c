"""CAFE simulator: meta-path regularity."""

import pytest

from repro.graph.types import NodeType
from repro.recommenders.cafe import (
    DEFAULT_PATTERNS,
    USER_ITEM_ENTITY_ITEM,
    CAFERecommender,
    MetaPath,
)


@pytest.fixture(scope="module")
def cafe(small_kg, small_dataset, fitted_mf):
    return CAFERecommender(mf=fitted_mf).fit(small_kg, small_dataset.ratings)


class TestMetaPath:
    def test_str(self):
        assert str(USER_ITEM_ENTITY_ITEM) == "user-item-external-item"

    def test_pattern_must_start_at_user(self):
        bad = MetaPath((NodeType.ITEM, NodeType.ITEM))
        with pytest.raises(ValueError):
            CAFERecommender(patterns=(bad,))

    def test_pattern_must_end_at_item(self):
        bad = MetaPath((NodeType.USER, NodeType.ITEM, NodeType.USER))
        with pytest.raises(ValueError):
            CAFERecommender(patterns=(bad,))

    def test_empty_patterns_rejected(self):
        with pytest.raises(ValueError):
            CAFERecommender(patterns=())


class TestCAFEContract:
    def test_paths_follow_some_pattern(self, cafe):
        allowed = {p.node_types for p in DEFAULT_PATTERNS}
        for rec in cafe.recommend("u:0", 8):
            assert rec.path.node_types() in allowed

    def test_returns_recommendations(self, cafe):
        assert len(cafe.recommend("u:1", 5)) == 5

    def test_paths_faithful(self, cafe, small_kg):
        for rec in cafe.recommend("u:2", 6):
            assert rec.path.is_valid_in(small_kg)

    def test_no_rated_items(self, cafe, small_dataset):
        rated = set(small_dataset.ratings.user_items(3))
        for rec in cafe.recommend("u:3", 6):
            assert int(rec.item.split(":")[1]) not in rated

    def test_scores_descending(self, cafe):
        scores = [r.score for r in cafe.recommend("u:4", 8)]
        assert scores == sorted(scores, reverse=True)

    def test_single_pattern_restriction(self, small_kg, small_dataset, fitted_mf):
        only_entity = CAFERecommender(
            patterns=(USER_ITEM_ENTITY_ITEM,), mf=fitted_mf
        ).fit(small_kg, small_dataset.ratings)
        for rec in only_entity.recommend("u:5", 5):
            assert rec.path.node_types() == USER_ITEM_ENTITY_ITEM.node_types

    def test_coarse_profile_is_distribution(self, cafe):
        profile = cafe._coarse_pattern_profile("u:0")
        assert pytest.approx(sum(profile.values())) == 1.0
        assert all(v >= 0 for v in profile.values())

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CAFERecommender().recommend("u:0", 3)
