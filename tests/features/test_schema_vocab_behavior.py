"""Tests for schema layout, vocabularies, buckets, crosses and behaviour sequences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    BehaviorEvent,
    BehaviorSequence,
    FeatureSchema,
    FeatureSpec,
    FieldName,
    HashingVocabulary,
    Vocabulary,
    bucketize,
    cross_activity_time_period,
    cross_category_match,
    cross_distance_time_period,
    eleme_schema,
    log_bucketize,
    public_schema,
    quantile_buckets,
    spatiotemporal_match_mask,
)


class TestSchema:
    def test_eleme_schema_field_layout(self):
        schema = eleme_schema()
        assert schema.num_fields == 5
        assert schema.field_names == [
            FieldName.USER,
            FieldName.USER_BEHAVIOR,
            FieldName.CANDIDATE_ITEM,
            FieldName.CONTEXT,
            FieldName.COMBINE,
        ]
        description = schema.describe()
        assert "ctx_geohash" in description[FieldName.CONTEXT]
        assert "seq_item_id" in description[FieldName.USER_BEHAVIOR]

    def test_public_schema_is_leaner(self):
        eleme = eleme_schema()
        public = public_schema()
        eleme_count = len(eleme.features) + len(eleme.sequence_features)
        public_count = len(public.features) + len(public.sequence_features)
        assert public_count < eleme_count

    def test_offsets_are_contiguous_and_disjoint(self):
        schema = eleme_schema()
        cursor = 0
        for spec in schema.features + schema.sequence_features:
            assert schema.offset(spec.name) == cursor
            cursor += spec.vocab_size
        assert schema.total_vocab_size == cursor

    def test_global_ids_shift_and_validate(self):
        schema = eleme_schema()
        ids = schema.global_ids("item_category", np.array([0, 1, 2]))
        assert np.all(ids == schema.offset("item_category") + np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            schema.global_ids("ctx_is_weekend", np.array([99]))

    def test_duplicate_feature_name_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(
                [FeatureSpec("a", FieldName.USER, 5), FeatureSpec("a", FieldName.USER, 5)],
                [],
            )

    def test_sequence_feature_must_be_behavior_field(self):
        with pytest.raises(ValueError):
            FeatureSchema(
                [FeatureSpec("a", FieldName.USER, 5)],
                [FeatureSpec("seq_a", FieldName.USER, 5)],
            )

    def test_vocab_size_validation(self):
        with pytest.raises(ValueError):
            FeatureSpec("bad", FieldName.USER, 1)

    def test_unknown_feature_raises(self):
        schema = public_schema()
        with pytest.raises(KeyError):
            schema.spec("nonexistent")


class TestVocabulary:
    def test_ids_start_at_one(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 1
        assert vocab.add("b") == 2
        assert vocab.add("a") == 1
        assert len(vocab) == 3  # two values + padding slot

    def test_lookup_unknown_is_padding(self):
        vocab = Vocabulary()
        vocab.add("a")
        assert vocab.lookup("missing") == 0

    def test_freeze_stops_growth(self):
        vocab = Vocabulary()
        vocab.add("a")
        vocab.freeze()
        assert vocab.add("b") == 0
        assert vocab.frozen

    def test_value_of_inverse(self):
        vocab = Vocabulary()
        vocab.add_all(["x", "y"])
        assert vocab.value_of(2) == "y"
        with pytest.raises(KeyError):
            vocab.value_of(0)

    def test_hashing_vocabulary_is_deterministic_and_in_range(self):
        vocab = HashingVocabulary(100)
        first = vocab.lookup_array(["a", "b", "c"])
        second = vocab.lookup_array(["a", "b", "c"])
        assert np.array_equal(first, second)
        assert np.all(first >= 1) and np.all(first < 100)

    def test_hashing_vocabulary_minimum_size(self):
        with pytest.raises(ValueError):
            HashingVocabulary(1)

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_hashing_never_returns_padding(self, values):
        vocab = HashingVocabulary(17)
        ids = vocab.lookup_array(values)
        assert np.all(ids > 0)
        assert np.all(ids < 17)


class TestBuckets:
    def test_bucketize_boundaries(self):
        buckets = bucketize(np.array([0.0, 0.5, 1.5, 3.0]), [1.0, 2.0])
        assert list(buckets) == [1, 1, 2, 3]

    def test_quantile_buckets_are_balanced(self):
        values = np.random.default_rng(0).normal(size=1000)
        buckets = quantile_buckets(values, 4)
        counts = np.bincount(buckets)[1:]
        assert len(counts) == 4
        assert counts.min() > 200

    def test_quantile_buckets_validation(self):
        with pytest.raises(ValueError):
            quantile_buckets(np.arange(10), 1)

    def test_log_bucketize_monotone_and_clipped(self):
        values = np.array([0, 1, 3, 7, 100, 10_000])
        buckets = log_bucketize(values, 6)
        assert np.all(np.diff(buckets) >= 0)
        assert buckets.max() <= 6
        assert buckets.min() >= 1

    def test_log_bucketize_rejects_negative(self):
        with pytest.raises(ValueError):
            log_bucketize(np.array([-1.0]), 5)


class TestCrosses:
    def test_activity_period_cross_is_unique_per_pair(self):
        values = set()
        for level in range(1, 6):
            for period in range(5):
                values.add(int(cross_activity_time_period(np.array([level]), np.array([period]))[0]))
        assert len(values) == 25
        assert min(values) >= 1

    def test_category_match(self):
        result = cross_category_match(np.array([3, 4]), np.array([3, 7]))
        assert list(result) == [2, 1]

    def test_distance_period_cross_range_checks(self):
        with pytest.raises(ValueError):
            cross_distance_time_period(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            cross_activity_time_period(np.array([9]), np.array([0]))


class TestBehaviorSequence:
    def _event(self, period=1, geohash="wtw3s5", item=7):
        return BehaviorEvent(
            item_id=item, category=2, brand=3, time_period=period, hour=12,
            city_id=1, geohash=geohash,
        )

    def test_append_and_recent(self):
        sequence = BehaviorSequence()
        for index in range(5):
            sequence.append(self._event(item=index))
        recent = sequence.recent(2)
        assert len(recent) == 2
        assert recent.events[-1].item_id == 4

    def test_spatiotemporal_filter_matches_period_and_prefix(self):
        sequence = BehaviorSequence(
            [
                self._event(period=1, geohash="wtw3s5"),
                self._event(period=1, geohash="wtw9zz"),
                self._event(period=3, geohash="wtw3s5"),
            ]
        )
        filtered = sequence.filter_spatiotemporal(time_period=1, geohash="wtw3s1", geohash_prefix_length=4)
        assert len(filtered) == 1

    def test_to_arrays_padding_and_shift(self):
        sequence = BehaviorSequence([self._event(item=0)])
        ids, mask = sequence.to_arrays(max_length=4)
        assert ids.shape == (4, 6)
        assert mask.tolist() == [1.0, 0.0, 0.0, 0.0]
        # time-period is shifted by one so 0 stays the padding id
        assert ids[0, 3] == 2
        assert np.all(ids[1:] == 0)

    def test_to_arrays_truncates_to_most_recent(self):
        sequence = BehaviorSequence([self._event(item=index) for index in range(10)])
        ids, mask = sequence.to_arrays(max_length=3)
        assert mask.sum() == 3
        assert ids[-1, 0] == 10  # item 9 shifted by +1

    def test_vectorised_match_mask(self):
        periods = np.array([[1, 2, 1], [3, 3, 0]])
        cells = np.array([[5, 5, 6], [7, 8, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float32)
        request_period = np.array([1, 3])
        request_cell = np.array([5, 8])
        result = spatiotemporal_match_mask(periods, cells, mask, request_period, request_cell)
        assert result.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
