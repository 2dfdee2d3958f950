"""Tests for AUC, TAUC/CAUC, NDCG, LogLoss, CTR counters and the metric report."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    CTRCounter,
    auc,
    calibration_ratio,
    city_auc,
    dcg_at_k,
    evaluate_predictions,
    grouped_auc,
    logloss,
    ndcg_at_k,
    per_group_auc,
    relative_improvement,
    session_ndcg,
    time_period_auc,
)


class TestAUC:
    def test_perfect_ranking(self):
        assert auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_ranking(self):
        assert auc(np.array([0, 0, 1, 1]), np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=5000)
        scores = rng.random(5000)
        assert abs(auc(labels, scores) - 0.5) < 0.03

    def test_ties_use_midrank(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.isclose(auc(labels, scores), 0.5)

    def test_single_class_is_nan(self):
        assert np.isnan(auc(np.zeros(10), np.random.default_rng(0).random(10)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            auc(np.zeros(3), np.zeros(4))

    @given(st.integers(min_value=10, max_value=200))
    @settings(max_examples=20)
    def test_auc_invariant_to_monotone_transform(self, size):
        rng = np.random.default_rng(size)
        labels = rng.integers(0, 2, size=size)
        if labels.sum() in (0, size):
            labels[0] = 1 - labels[0]
        scores = rng.random(size)
        base = auc(labels, scores)
        transformed = auc(labels, 1.0 / (1.0 + np.exp(-5 * scores)))
        assert abs(base - transformed) < 1e-9


class TestGroupedAUC:
    def test_weighted_average_formula(self):
        labels = np.array([1, 0, 1, 0, 1, 0, 0, 0])
        scores = np.array([0.9, 0.1, 0.2, 0.8, 0.7, 0.3, 0.6, 0.4])
        groups = np.array([0, 0, 1, 1, 1, 1, 1, 1])
        breakdown = per_group_auc(labels, scores, groups)
        expected = (
            breakdown[0]["auc"] * breakdown[0]["impressions"]
            + breakdown[1]["auc"] * breakdown[1]["impressions"]
        ) / (breakdown[0]["impressions"] + breakdown[1]["impressions"])
        assert np.isclose(grouped_auc(labels, scores, groups), expected)

    def test_single_class_groups_are_excluded(self):
        labels = np.array([1, 1, 1, 0, 1, 0])
        scores = np.array([0.5, 0.6, 0.7, 0.1, 0.9, 0.2])
        groups = np.array([0, 0, 0, 1, 1, 1])   # group 0 has only positives
        value = grouped_auc(labels, scores, groups)
        assert np.isclose(value, auc(labels[groups == 1], scores[groups == 1]))

    def test_all_single_class_returns_nan(self):
        assert np.isnan(grouped_auc(np.ones(4), np.arange(4), np.array([0, 0, 1, 1])))

    def test_tauc_cauc_are_grouped_auc(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=300)
        scores = rng.random(300)
        periods = rng.integers(0, 5, size=300)
        cities = rng.integers(0, 6, size=300)
        assert np.isclose(time_period_auc(labels, scores, periods), grouped_auc(labels, scores, periods))
        assert np.isclose(city_auc(labels, scores, cities), grouped_auc(labels, scores, cities))

    def test_grouped_auc_equals_auc_with_one_group(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=200)
        scores = rng.random(200)
        assert np.isclose(grouped_auc(labels, scores, np.zeros(200)), auc(labels, scores))

    @given(st.integers(min_value=30, max_value=120))
    @settings(max_examples=15)
    def test_grouped_auc_bounded(self, size):
        rng = np.random.default_rng(size)
        labels = rng.integers(0, 2, size=size)
        scores = rng.random(size)
        groups = rng.integers(0, 4, size=size)
        value = grouped_auc(labels, scores, groups)
        if not np.isnan(value):
            assert 0.0 <= value <= 1.0


class TestNDCG:
    def test_dcg_known_value(self):
        # relevances [1, 0, 1] -> 1/log2(2) + 0 + 1/log2(4) = 1.5
        assert np.isclose(dcg_at_k(np.array([1, 0, 1]), 3), 1.5)

    def test_perfect_ranking_is_one(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        assert np.isclose(ndcg_at_k(labels, scores, 10), 1.0)

    def test_worse_ranking_is_lower(self):
        labels = np.array([1, 0, 0, 0])
        good = ndcg_at_k(labels, np.array([0.9, 0.1, 0.2, 0.3]), 3)
        bad = ndcg_at_k(labels, np.array([0.1, 0.9, 0.8, 0.7]), 3)
        assert good > bad

    def test_no_positive_returns_nan(self):
        assert np.isnan(ndcg_at_k(np.zeros(4), np.arange(4), 3))

    def test_session_ndcg_averages_over_sessions(self):
        labels = np.array([1, 0, 0, 1])
        scores = np.array([0.9, 0.1, 0.9, 0.1])
        sessions = np.array([0, 0, 1, 1])
        value = session_ndcg(labels, scores, sessions, k=2)
        first = ndcg_at_k(labels[:2], scores[:2], 2)
        second = ndcg_at_k(labels[2:], scores[2:], 2)
        assert np.isclose(value, (first + second) / 2)

    def test_session_ndcg_skips_clickless_sessions(self):
        labels = np.array([1, 0, 0, 0])
        scores = np.array([0.9, 0.1, 0.5, 0.6])
        sessions = np.array([0, 0, 1, 1])
        assert np.isclose(session_ndcg(labels, scores, sessions, k=3), 1.0)

    @given(st.integers(min_value=2, max_value=20))
    @settings(max_examples=20)
    def test_ndcg_bounded_property(self, size):
        rng = np.random.default_rng(size)
        labels = rng.integers(0, 2, size=size)
        labels[0] = 1
        value = ndcg_at_k(labels, rng.random(size), 10)
        assert 0.0 < value <= 1.0


class TestLoglossAndCTR:
    def test_logloss_known_value(self):
        value = logloss(np.array([1, 0]), np.array([0.8, 0.3]))
        assert np.isclose(value, -(np.log(0.8) + np.log(0.7)) / 2)

    def test_logloss_clips_extremes(self):
        assert np.isfinite(logloss(np.array([1.0]), np.array([0.0])))

    def test_calibration_ratio(self):
        labels = np.array([1, 0, 0, 1])
        assert np.isclose(calibration_ratio(labels, np.full(4, 0.5)), 1.0)

    def test_ctr_counter_groups(self):
        counter = CTRCounter()
        counter.update(10, 2, group="lunch")
        counter.update(10, 1, group="night")
        assert counter.ctr == 0.15
        assert counter.group_ctr("lunch") == 0.2
        assert np.isclose(counter.group_exposure_share("night"), 0.5)

    def test_ctr_counter_validation(self):
        counter = CTRCounter()
        with pytest.raises(ValueError):
            counter.update(2, 5)

    def test_relative_improvement(self):
        assert np.isclose(relative_improvement(4.91, 4.61), 0.0651, atol=1e-3)
        assert np.isnan(relative_improvement(1.0, 0.0))


class TestMetricReport:
    def test_report_fields(self):
        rng = np.random.default_rng(0)
        size = 400
        labels = rng.integers(0, 2, size=size)
        scores = np.clip(labels * 0.4 + rng.random(size) * 0.6, 0.001, 0.999)
        report = evaluate_predictions(
            labels, scores,
            time_periods=rng.integers(0, 5, size=size),
            cities=rng.integers(0, 4, size=size),
            sessions=np.repeat(np.arange(size // 8), 8),
        )
        as_dict = report.as_dict()
        assert set(as_dict) == {"AUC", "TAUC", "CAUC", "NDCG3", "NDCG10", "Logloss"}
        assert 0.5 < report.auc <= 1.0
        assert "AUC=" in str(report)
