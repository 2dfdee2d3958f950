"""The Table I field builders clip and shift a whole field in one op.

Each must equal the per-column reference ``schema.global_ids(name,
np.clip(local, 0, vocab_size - 1))`` on any input, not only on the in-range
fixture data the byte pins cover: the draws include negative ids, ids past
the vocabulary and empty arrays, on both schemas where a builder reads the
schema's own field layout.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import eleme_schema, public_schema
from repro.features.behavior import BEHAVIOR_COLUMNS
from repro.features.buckets import bucketize, log_bucketize
from repro.features.crosses import (
    cross_activity_time_period,
    cross_category_match,
    cross_distance_time_period,
)
from repro.features.schema import FieldName
from repro.features.table_ids import (
    behavior_ids,
    combine_ids,
    context_ids,
    distance_buckets,
    feature_ids,
    item_dynamic_ids,
    item_static_ids,
    user_ids,
    user_static_ids,
)

SCHEMAS = {
    "eleme": eleme_schema(num_users=50, num_items=30, num_cities=3, num_categories=4,
                          num_brands=5, num_geohash_cells=16, max_sequence_length=4),
    "public": public_schema(num_users=40, num_items=20, num_cities=2, num_categories=3,
                            num_geohash_cells=8, max_sequence_length=3),
}
ELEME = SCHEMAS["eleme"]

#: Local ids far outside every vocabulary on both sides.
IDS = st.integers(min_value=-1000, max_value=1000)
COUNTS = st.integers(min_value=0, max_value=10**7)
SIZES = st.integers(min_value=0, max_value=6)


def column(data, size, elements=IDS, dtype=np.int64):
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype)


def reference(schema, name, local):
    return schema.global_ids(name, np.clip(local, 0, schema.spec(name).vocab_size - 1))


def assert_field(got, columns):
    expected = np.stack(columns, axis=-1)
    assert got.dtype == np.int64
    assert got.shape == expected.shape
    # Row-major like the per-column stack: the loaders gather rows.
    assert got.flags.c_contiguous
    assert np.array_equal(got, expected)


@settings(max_examples=100)
@given(st.data(), st.sampled_from(sorted(SCHEMAS)), SIZES)
def test_feature_ids(data, schema_name, size):
    schema = SCHEMAS[schema_name]
    spec = data.draw(st.sampled_from(schema.features + schema.sequence_features))
    local = column(data, size)
    got = feature_ids(schema, spec.name, local)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference(schema, spec.name, local))


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_user_static_ids(data, size):
    world = SimpleNamespace(config=SimpleNamespace(num_users=size),
                            user_gender=column(data, size), user_age_bucket=column(data, size),
                            user_active_level=column(data, size))
    names = ("user_id", "user_gender", "user_age_bucket", "user_active_level")
    locals_ = (np.arange(size) + 1, world.user_gender, world.user_age_bucket,
               world.user_active_level)
    assert_field(user_static_ids(ELEME, world),
                 [reference(ELEME, name, local) for name, local in zip(names, locals_)])


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_user_ids(data, size):
    static = column(data, size * 4).reshape(size, 4)
    orders, clicks = column(data, size, COUNTS), column(data, size, COUNTS)
    assert_field(user_ids(ELEME, static, orders, clicks), [
        static[:, 0], static[:, 1], static[:, 2],
        reference(ELEME, "user_order_count_bucket", log_bucketize(orders, 11)),
        reference(ELEME, "user_click_count_bucket", log_bucketize(clicks, 11)),
        static[:, 3],
    ])


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_item_static_ids(data, size):
    prices = st.floats(min_value=-1.0, max_value=2.0, allow_nan=False)
    world = SimpleNamespace(config=SimpleNamespace(num_items=size),
                            item_category=column(data, size), item_brand=column(data, size),
                            item_price=column(data, size, prices, np.float64),
                            item_quality=column(data, size, prices, np.float64))
    boundaries = np.linspace(0.1, 0.9, 9)
    assert_field(item_static_ids(ELEME, world), [
        reference(ELEME, "item_id", np.arange(size) + 1),
        reference(ELEME, "item_category", world.item_category + 1),
        reference(ELEME, "item_brand", world.item_brand + 1),
        reference(ELEME, "item_price_bucket",
                  np.clip(bucketize(world.item_price, boundaries), 1, 10)),
        reference(ELEME, "shop_quality_bucket",
                  np.clip(bucketize(world.item_quality, boundaries), 1, 10)),
    ])


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_distance_buckets(data, size):
    distance = column(data, size, st.floats(min_value=0.0, max_value=10.0), np.float64)
    expected = np.clip(bucketize(distance / 2.0, np.linspace(0.2, 1.8, 9)), 1, 10)
    assert np.array_equal(distance_buckets(distance, 1.0), expected)


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_item_dynamic_ids(data, size):
    shop_clicks = column(data, size, COUNTS)
    distance_bucket, positions = column(data, size), column(data, size)
    assert_field(item_dynamic_ids(ELEME, shop_clicks, distance_bucket, positions), [
        reference(ELEME, "shop_click_bucket", log_bucketize(shop_clicks, 10)),
        reference(ELEME, "item_distance_bucket", distance_bucket),
        reference(ELEME, "item_position", positions + 1),
    ])


@settings(max_examples=100)
@given(st.data(), st.sampled_from(sorted(SCHEMAS)), SIZES)
def test_context_ids(data, schema_name, size):
    schema = SCHEMAS[schema_name]
    periods, hours, cities, days = (column(data, size) for _ in range(4))
    geohash_vocab = schema.spec("ctx_geohash").vocab_size
    geohashes = schema.global_ids(
        "ctx_geohash", column(data, size, st.integers(0, geohash_vocab - 1)))
    weekday = days % 7
    local = {
        "ctx_time_period": periods + 1,
        "ctx_hour": hours + 1,
        "ctx_city_id": cities + 1,
        "ctx_weekday": weekday + 1,
        "ctx_is_weekend": (weekday >= 5).astype(np.int64) + 1,
    }
    assert_field(context_ids(schema, periods, hours, cities, geohashes, days), [
        geohashes if spec.name == "ctx_geohash" else reference(schema, spec.name, local[spec.name])
        for spec in schema.field_features(FieldName.CONTEXT)
    ])


@settings(max_examples=50)
@given(st.data(), SIZES)
def test_combine_ids(data, size):
    # The crosses refuse out-of-range inputs themselves, so only the world's
    # own ranges are drawn here.
    world = SimpleNamespace(
        user_active_level=column(data, 5, st.integers(1, 5)),
        user_top_category=column(data, 5, st.integers(0, 3)),
        item_category=column(data, 7, st.integers(0, 3)),
    )
    users, items = column(data, size, st.integers(0, 4)), column(data, size, st.integers(0, 6))
    periods = column(data, size, st.integers(0, 4))
    distance_bucket = column(data, size, st.integers(1, 10))
    assert_field(combine_ids(ELEME, world, users, items, periods, distance_bucket), [
        reference(ELEME, "cross_user_activity_x_period",
                  cross_activity_time_period(world.user_active_level[users], periods)),
        reference(ELEME, "cross_category_match",
                  cross_category_match(world.user_top_category[users],
                                       world.item_category[items])),
        reference(ELEME, "cross_distance_x_period",
                  cross_distance_time_period(distance_bucket, periods)),
    ])


@settings(max_examples=100)
@given(st.data(), st.sampled_from(sorted(SCHEMAS)), SIZES)
def test_behavior_ids(data, schema_name, size):
    schema = SCHEMAS[schema_name]
    length = schema.max_sequence_length
    raw = column(data, size * length * len(BEHAVIOR_COLUMNS)).reshape(
        size, length, len(BEHAVIOR_COLUMNS))
    assert_field(behavior_ids(schema, raw), [
        reference(schema, spec.name, raw[..., BEHAVIOR_COLUMNS.index(spec.name)])
        for spec in schema.sequence_features
    ])
