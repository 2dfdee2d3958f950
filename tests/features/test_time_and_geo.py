"""Tests for time-period bucketing and geohash encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    TimePeriod,
    cyclical_hour_encoding,
    geohash_decode,
    geohash_distance_km,
    geohash_encode,
    geohash_neighbors,
    haversine_km,
    hour_to_time_period,
    hours_of_time_period,
    is_mealtime,
)


class TestTimePeriods:
    def test_known_hours(self):
        assert hour_to_time_period(8) == TimePeriod.BREAKFAST
        assert hour_to_time_period(12) == TimePeriod.LUNCH
        assert hour_to_time_period(15) == TimePeriod.AFTERNOON_TEA
        assert hour_to_time_period(19) == TimePeriod.DINNER
        assert hour_to_time_period(23) == TimePeriod.NIGHT
        assert hour_to_time_period(2) == TimePeriod.NIGHT

    def test_vectorised(self):
        result = hour_to_time_period(np.arange(24))
        assert result.shape == (24,)
        assert set(np.unique(result)) == {0, 1, 2, 3, 4}

    def test_every_hour_belongs_to_exactly_one_period(self):
        covered = []
        for period in TimePeriod:
            covered.extend(hours_of_time_period(period))
        assert sorted(covered) == list(range(24))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            hour_to_time_period(24)
        with pytest.raises(ValueError):
            hour_to_time_period(-1)

    def test_period_display_names(self):
        assert TimePeriod.AFTERNOON_TEA.display_name == "AfternoonTea"
        assert len({period.display_name for period in TimePeriod}) == 5

    def test_cyclical_encoding_on_unit_circle(self):
        encoding = cyclical_hour_encoding(np.arange(24))
        assert encoding.shape == (24, 2)
        norms = np.sqrt((encoding ** 2).sum(axis=1))
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_is_mealtime(self):
        assert is_mealtime(12) == 1
        assert is_mealtime(19) == 1
        assert is_mealtime(15) == 0

    @given(st.integers(min_value=0, max_value=23))
    @settings(max_examples=24)
    def test_period_is_consistent_with_hours_of(self, hour):
        period = TimePeriod(int(hour_to_time_period(hour)))
        assert hour in hours_of_time_period(period)


class TestGeohash:
    def test_known_location_prefix(self):
        # Canonical example: 57.64911, 10.40744 -> "u4pruydqqvj"
        assert geohash_encode(57.64911, 10.40744, precision=11).startswith("u4pruydqqvj"[:9])

    def test_roundtrip_precision(self):
        lat, lon = 31.2304, 121.4737  # Shanghai
        decoded_lat, decoded_lon = geohash_decode(geohash_encode(lat, lon, 8))
        assert abs(decoded_lat - lat) < 0.001
        assert abs(decoded_lon - lon) < 0.001

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geohash_encode(91.0, 0.0)
        with pytest.raises(ValueError):
            geohash_encode(0.0, 200.0)
        with pytest.raises(ValueError):
            geohash_encode(0.0, 0.0, precision=0)
        with pytest.raises(ValueError):
            geohash_decode("")
        with pytest.raises(ValueError):
            geohash_decode("ai")  # 'a' and 'i' are not base32 geohash characters

    def test_neighbors_share_prefix_at_lower_precision(self):
        cell = geohash_encode(31.2, 121.5, 6)
        neighbors = geohash_neighbors(cell)
        assert 3 <= len(neighbors) <= 8
        assert all(len(neighbor) == 6 for neighbor in neighbors)
        assert cell not in neighbors

    def test_haversine_known_distance(self):
        # Shanghai to Hangzhou is roughly 165 km.
        distance = haversine_km(31.2304, 121.4737, 30.2741, 120.1551)
        assert 150 < float(distance) < 180

    def test_geohash_distance_zero_for_same_cell(self):
        cell = geohash_encode(30.0, 120.0, 6)
        assert geohash_distance_km(cell, cell) == 0.0

    @given(
        st.floats(min_value=-80, max_value=80, allow_nan=False),
        st.floats(min_value=-179, max_value=179, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, lat, lon):
        decoded_lat, decoded_lon = geohash_decode(geohash_encode(lat, lon, 7))
        assert abs(decoded_lat - lat) < 0.01
        assert abs(decoded_lon - lon) < 0.01

    @given(
        st.floats(min_value=-80, max_value=80, allow_nan=False),
        st.floats(min_value=-179, max_value=179, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_prefix_property(self, lat, lon):
        """A longer geohash always refines (starts with) the shorter one."""
        short = geohash_encode(lat, lon, 4)
        long = geohash_encode(lat, lon, 8)
        assert long.startswith(short)
