"""Table I id builders: the one definition of every field's global ids.

The offline encoders (:mod:`repro.data.encoding`) and the online request
encoder (:mod:`repro.serving.encoder`) build the user, candidate-item,
context, combine and behaviour ids through these functions, array in and
array out, so the two sides cannot drift apart.  The offline side passes one
row per impression; the online side one per request (user, context) or per
candidate (item tail, combine), gathering the static prefixes from the same
all-users / all-items tables.

A field is built in one pass: its local columns are stacked into one
``(..., k)`` array, then clipped into each feature's vocabulary and shifted
to global ids by one ``np.minimum`` / ``np.maximum`` / ``+=`` against the
per-column bound and offset vectors :meth:`FeatureSchema.id_bounds` memoises,
the same ids :func:`feature_ids` gives column by column.  A one-request
serving batch pays numpy's per-call overhead once per field, not once per
column.

The two sides differ only in where the counters come from: offline, the
clicks an item gathered on days *before* the impression's (no same-day label
leakage); online, the live state's counters.  That is a different input by
design, not a different layout.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .behavior import BEHAVIOR_COLUMNS
from .buckets import bucketize, log_bucketize
from .crosses import cross_activity_time_period, cross_category_match, cross_distance_time_period
from .schema import FeatureSchema, FieldName
from .vocabulary import HashingVocabulary

__all__ = [
    "feature_ids",
    "user_static_ids",
    "user_ids",
    "item_static_ids",
    "distance_buckets",
    "item_dynamic_ids",
    "geohash_ids",
    "context_ids",
    "combine_ids",
    "behavior_ids",
]


#: Price and shop-quality bucket boundaries of the item static prefix.
_ITEM_BOUNDARIES = np.linspace(0.1, 0.9, 9)
#: Distance bucket boundaries, as shares of the city diameter.
_DISTANCE_BOUNDARIES = np.linspace(0.2, 1.8, 9)


def feature_ids(schema: FeatureSchema, name: str, local: np.ndarray) -> np.ndarray:
    """Clip local ids into ``name``'s vocabulary and shift them to global ids."""
    local = np.asarray(local, dtype=np.int64)
    return np.maximum(np.minimum(local, schema.spec(name).vocab_size - 1), 0) + schema.offset(name)


def _field_ids(schema: FeatureSchema, names: Tuple[str, ...], local: np.ndarray) -> np.ndarray:
    """:func:`feature_ids` of every column of ``local`` ``(..., len(names))``
    at once: one clip and one shift against per-column bound and offset
    vectors, instead of one clip-and-shift chain per column.  ``local`` is a
    fresh int64 array the caller built; it is overwritten and returned."""
    high, offset = schema.id_bounds(names)
    np.minimum(local, high, out=local)
    np.maximum(local, 0, out=local)
    local += offset
    return local


def _stack(columns: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack(columns, axis=-1)`` for int64 id columns, without its
    per-call overhead, which a one-request serving batch pays once per field."""
    out = np.empty(np.shape(columns[0]) + (len(columns),), dtype=np.int64)
    for index, column in enumerate(columns):
        out[..., index] = column
    return out


# ---------------------------------------------------------------------- #
# user field
# ---------------------------------------------------------------------- #
def user_static_ids(schema: FeatureSchema, world) -> np.ndarray:
    """``(num_users, 4)`` global ids: user_id, gender, age bucket, active level."""
    users = np.arange(world.config.num_users, dtype=np.int64)
    return _field_ids(
        schema, ("user_id", "user_gender", "user_age_bucket", "user_active_level"),
        _stack([users + 1, world.user_gender, world.user_age_bucket, world.user_active_level]),
    )


def user_ids(schema: FeatureSchema, static_rows: np.ndarray, orders: np.ndarray,
             clicks: np.ndarray) -> np.ndarray:
    """``(n, 6)`` user field from gathered static rows plus order/click counts."""
    counts = _field_ids(schema, ("user_order_count_bucket", "user_click_count_bucket"),
                        log_bucketize(_stack([orders, clicks]), 11))
    return np.concatenate([static_rows[:, :3], counts, static_rows[:, 3:]], axis=1)


# ---------------------------------------------------------------------- #
# candidate item field: static prefix + dynamic tail
# ---------------------------------------------------------------------- #
def item_static_ids(schema: FeatureSchema, world) -> np.ndarray:
    """``(num_items, 5)`` global ids: item_id, category, brand, price, quality."""
    items = np.arange(world.config.num_items, dtype=np.int64)
    return _field_ids(
        schema,
        ("item_id", "item_category", "item_brand", "item_price_bucket", "shop_quality_bucket"),
        _stack([items + 1, world.item_category + 1, world.item_brand + 1,
                bucketize(world.item_price, _ITEM_BOUNDARIES),
                bucketize(world.item_quality, _ITEM_BOUNDARIES)]),
    )


def distance_buckets(distance: np.ndarray, city_radius: float) -> np.ndarray:
    """Local distance buckets 1..10 over the city diameter."""
    return bucketize(distance / (2.0 * city_radius), _DISTANCE_BOUNDARIES)


def item_dynamic_ids(schema: FeatureSchema, shop_clicks: np.ndarray,
                     distance_bucket: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(n, 3)`` item tail: shop click bucket, distance bucket, position."""
    return _field_ids(
        schema, ("shop_click_bucket", "item_distance_bucket", "item_position"),
        _stack([log_bucketize(shop_clicks, 10), distance_bucket, positions + 1]),
    )


# ---------------------------------------------------------------------- #
# context field
# ---------------------------------------------------------------------- #
def geohash_ids(schema: FeatureSchema, geohashes: Sequence[str]) -> np.ndarray:
    """Global ``ctx_geohash`` ids of geohash strings (hashing trick)."""
    vocabulary = HashingVocabulary(schema.spec("ctx_geohash").vocab_size, name="ctx_geohash")
    return schema.global_ids("ctx_geohash", vocabulary.lookup_array(geohashes))


def context_ids(schema: FeatureSchema, periods: np.ndarray, hours: np.ndarray,
                cities: np.ndarray, geohash_global_ids: np.ndarray,
                days: np.ndarray) -> np.ndarray:
    """``(n, k)`` context field, one column per context feature of ``schema``."""
    weekday = days % 7
    local = {
        "ctx_time_period": periods + 1,
        "ctx_hour": hours + 1,
        "ctx_city_id": cities + 1,
        # Back to local ids: the field's shift below restores them.
        "ctx_geohash": geohash_global_ids - schema.offset("ctx_geohash"),
        "ctx_weekday": weekday + 1,
        "ctx_is_weekend": (weekday >= 5) + 1,
    }
    names = tuple(spec.name for spec in schema.field_features(FieldName.CONTEXT))
    return _field_ids(schema, names, _stack([local[name] for name in names]))


# ---------------------------------------------------------------------- #
# combine field and behaviour sequence
# ---------------------------------------------------------------------- #
def combine_ids(schema: FeatureSchema, world, users: np.ndarray, items: np.ndarray,
                periods: np.ndarray, distance_bucket: np.ndarray) -> np.ndarray:
    """``(n, 3)`` crosses: activity × period, category match, distance × period."""
    return _field_ids(
        schema,
        ("cross_user_activity_x_period", "cross_category_match", "cross_distance_x_period"),
        _stack([
            cross_activity_time_period(world.user_active_level[users], periods),
            cross_category_match(world.user_top_category[users], world.item_category[items]),
            cross_distance_time_period(distance_bucket, periods),
        ]),
    )


def behavior_ids(schema: FeatureSchema, raw: np.ndarray) -> np.ndarray:
    """Global ids of raw behaviour snapshots ``(..., L, 6)`` → ``(..., L, k)``.

    Each of ``schema.sequence_features`` reads its raw column by name
    (:data:`repro.features.behavior.BEHAVIOR_COLUMNS`).
    """
    names = tuple(spec.name for spec in schema.sequence_features)
    columns = [BEHAVIOR_COLUMNS.index(name) for name in names]
    # ``take``, not ``raw[..., columns]``: fancy indexing on the last axis
    # lays the copy out column-major, and training gathers rows from it.
    return _field_ids(schema, names, np.asarray(raw, dtype=np.int64).take(columns, axis=-1))
