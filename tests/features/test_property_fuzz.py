"""Property-based / fuzz tests for the feature layer.

The feature layer is the part of the system every other layer trusts
blindly — the encoders, the serving cache keys, the recall grid and the
global id space all assume geohashes round-trip, buckets are total functions
over the reals, and vocabularies never emit an id outside their range.
These tests pin those contracts down with generated rather than
hand-picked inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    HashingVocabulary,
    Vocabulary,
    bucketize,
    geohash_decode,
    geohash_encode,
    log_bucketize,
    quantile_buckets,
)
from repro.features.geohash import _cell_size

LATITUDES = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
LONGITUDES = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


class TestGeohashProperties:
    @given(LATITUDES, LONGITUDES, st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_roundtrip_within_cell_at_every_precision(self, lat, lon, precision):
        """Decoding returns the cell centre, so the error is bounded by half
        the cell size — at *every* supported precision, poles included."""
        cell = geohash_encode(lat, lon, precision)
        assert len(cell) == precision
        decoded_lat, decoded_lon = geohash_decode(cell)
        lat_step, lon_step = _cell_size(precision)
        assert abs(decoded_lat - lat) <= lat_step / 2 + 1e-9
        lon_error = abs(decoded_lon - lon)
        assert min(lon_error, 360.0 - lon_error) <= lon_step / 2 + 1e-9

    @given(LATITUDES, LONGITUDES,
           st.integers(min_value=1, max_value=11), st.integers(min_value=1, max_value=11))
    @settings(max_examples=100)
    def test_precision_refinement_is_prefix(self, lat, lon, p_short, p_long):
        """The recall grid's degradation path: a coarser geohash is always a
        prefix of a finer one for the same point."""
        short, long = sorted((p_short, p_long))
        assert geohash_encode(lat, lon, long).startswith(geohash_encode(lat, lon, short))

    @given(LATITUDES, LONGITUDES, st.integers(min_value=1, max_value=12))
    @settings(max_examples=100)
    def test_reencoding_cell_centre_is_idempotent(self, lat, lon, precision):
        cell = geohash_encode(lat, lon, precision)
        assert geohash_encode(*geohash_decode(cell), precision) == cell


class TestBucketizeEdges:
    def test_empty_values(self):
        assert bucketize(np.array([]), [0.5]).shape == (0,)
        assert log_bucketize(np.array([]), 5).shape == (0,)

    def test_singleton_boundary(self):
        np.testing.assert_array_equal(
            bucketize(np.array([-1.0, 0.5, 2.0]), [0.5]), [1, 2, 2]
        )

    def test_duplicate_boundaries_collapse(self):
        """Repeated boundaries must not create unreachable intermediate
        buckets for values on either side of the split point."""
        ids = bucketize(np.array([0.0, 1.0, 2.0]), [1.0, 1.0, 1.0])
        assert ids[0] == 1
        assert ids[2] == 4
        assert (np.diff(ids) >= 0).all()

    def test_unsorted_boundaries_are_sorted(self):
        np.testing.assert_array_equal(
            bucketize(np.array([0.1, 0.35, 0.9]), [0.7, 0.2]),
            bucketize(np.array([0.1, 0.35, 0.9]), [0.2, 0.7]),
        )

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50),
           st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_ids_in_range_and_monotone(self, values, boundaries):
        ids = bucketize(np.array(values), boundaries)
        assert ids.min() >= 1
        assert ids.max() <= len(boundaries) + 1
        order = np.argsort(values, kind="stable")
        assert (np.diff(ids[order]) >= 0).all(), "bucket id must be monotone in value"

    def test_quantile_buckets_constant_input(self):
        """All-identical values land in one bucket instead of crashing."""
        ids = quantile_buckets(np.full(10, 3.14), num_buckets=4)
        assert len(np.unique(ids)) == 1

    def test_quantile_buckets_validation(self):
        with pytest.raises(ValueError):
            quantile_buckets(np.arange(10.0), num_buckets=1)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=100)
    def test_log_bucketize_range(self, counts, num_buckets):
        ids = log_bucketize(np.array(counts), num_buckets)
        assert ids.min() >= 1 and ids.max() <= num_buckets

    def test_log_bucketize_rejects_negative(self):
        with pytest.raises(ValueError):
            log_bucketize(np.array([1.0, -0.5]), 5)


ADVERSARIAL_IDS = st.one_of(
    st.text(max_size=30),                                   # includes "", NULs, emoji
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
    st.tuples(st.integers(), st.text(max_size=5)),
    st.booleans(),
    st.none(),
)


class TestVocabularyOOV:
    @given(st.lists(ADVERSARIAL_IDS, min_size=1, max_size=40, unique=True))
    @settings(max_examples=100)
    def test_roundtrip_then_frozen_oov(self, values):
        vocab = Vocabulary("fuzz")
        ids = [vocab.add(value) for value in values]
        assert len(set(ids)) == len(values), "distinct values get distinct ids"
        assert 0 not in ids, "id 0 stays reserved for padding/unknown"
        for value, assigned in zip(values, ids):
            assert vocab.lookup(value) == assigned
            assert vocab.value_of(assigned) == value
        vocab.freeze()
        probe = ("never", "seen", object())
        assert vocab.lookup(probe) == 0
        assert vocab.add(probe) == 0, "frozen vocab must not admit new values"
        assert len(vocab) == len(values) + 1

    def test_value_of_padding_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().value_of(0)

    @given(st.lists(ADVERSARIAL_IDS, min_size=1, max_size=60),
           st.integers(min_value=2, max_value=97))
    @settings(max_examples=100)
    def test_hashing_vocab_ids_always_in_range(self, values, num_buckets):
        vocab = HashingVocabulary(num_buckets, seed=3)
        ids = vocab.lookup_array(values)
        assert ids.min() >= 1, "hashing may never emit the padding id"
        assert ids.max() < num_buckets

    @given(ADVERSARIAL_IDS)
    @settings(max_examples=100)
    def test_hashing_vocab_deterministic_across_instances(self, value):
        left = HashingVocabulary(64, seed=17).lookup(value)
        right = HashingVocabulary(64, seed=17).lookup(value)
        assert left == right

    def test_hashing_vocab_validation(self):
        with pytest.raises(ValueError):
            HashingVocabulary(1)
