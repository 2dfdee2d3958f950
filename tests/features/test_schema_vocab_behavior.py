"""Tests for schema layout, vocabularies, buckets, crosses and behaviour sequences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    BEHAVIOR_COLUMNS,
    BehaviorHistory,
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


class TestBehaviorHistory:
    """The one history type: append, copy and the request-time snapshot."""

    @staticmethod
    def _history(events):
        history = BehaviorHistory()
        for item, period, prefix in events:
            history.append(item, 2, 3, period, 12, 1, prefix)
        return history

    @staticmethod
    def _reference_snapshot(history, time_period, prefix, max_length):
        """Row by row, as the log generator built it before the merge."""
        ids = np.zeros((max_length, 6), dtype=np.int64)
        mask = np.zeros(max_length, dtype=np.float32)
        st_mask = np.zeros(max_length, dtype=np.float32)
        start = max(0, len(history) - max_length)
        for row, source in enumerate(range(start, len(history))):
            ids[row] = [getattr(history, name)[source] + 1 for name in history.ID_COLUMNS]
            mask[row] = 1.0
            if (history.periods[source] == time_period
                    and history.geohash_prefixes[source] == prefix):
                st_mask[row] = 1.0
        return ids, mask, st_mask

    def test_columns_follow_the_sequence_feature_names(self):
        assert len(BEHAVIOR_COLUMNS) == len(BehaviorHistory.ID_COLUMNS) == 6
        assert {spec.name for spec in eleme_schema().sequence_features} == set(BEHAVIOR_COLUMNS)
        assert {spec.name for spec in public_schema().sequence_features} <= set(BEHAVIOR_COLUMNS)

    def test_copy_is_independent(self):
        history = self._history([(0, 1, "wtw3"), (1, 2, "wtw3")])
        copied = history.copy()
        copied.append(9, 9, 9, 9, 9, 9, "zzzz")
        assert len(history) == 2 and len(copied) == 3
        assert copied.items[:2] == history.items

    def test_st_mask_matches_period_and_prefix(self):
        history = self._history([(7, 1, "wtw3"), (7, 1, "wtw9"), (7, 3, "wtw3")])
        ids, mask, st_mask = history.snapshot(1, "wtw3", max_length=4)
        assert mask.tolist() == [1.0, 1.0, 1.0, 0.0]
        assert st_mask.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_padding_and_shift(self):
        ids, mask, st_mask = self._history([(0, 1, "wtw3")]).snapshot(1, "wtw3", 4)
        assert ids.shape == (4, 6) and ids.dtype == np.int64
        assert mask.dtype == st_mask.dtype == np.float32
        # every column is shifted by one so 0 stays the padding id
        assert ids[0].tolist() == [1, 3, 4, 2, 13, 2]
        assert np.all(ids[1:] == 0)
        empty = BehaviorHistory().snapshot(1, "wtw3", 4)
        assert [array.sum() for array in empty] == [0, 0.0, 0.0]

    def test_truncates_to_most_recent(self):
        history = self._history([(index, 1, "wtw3") for index in range(10)])
        ids, mask, _ = history.snapshot(1, "wtw3", max_length=3)
        assert mask.sum() == 3
        assert ids[:, 0].tolist() == [8, 9, 10]  # items 7..9 shifted by +1

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 4), st.sampled_from(["wtw3", "wtw9"])),
            max_size=40,
        ),
        period=st.integers(0, 4),
        prefix=st.sampled_from(["wtw3", "wtw9"]),
        max_length=st.integers(1, 30),
    )
    def test_snapshot_equals_row_by_row_reference(self, events, period, prefix, max_length):
        history = self._history(events)
        got = history.snapshot(period, prefix, max_length)
        want = self._reference_snapshot(history, period, prefix, max_length)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)
