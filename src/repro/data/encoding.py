"""Encode impression logs into model-ready, globally-indexed id arrays."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Sequence

import numpy as np

from ..features.buckets import log_bucketize
from ..features.crosses import cross_category_match
from ..features.schema import FeatureSchema, FieldName
from ..features.table_ids import (
    behavior_ids,
    combine_ids,
    context_ids,
    distance_buckets,
    feature_ids,
    geohash_ids,
    item_dynamic_ids,
    item_static_ids,
    user_ids,
    user_static_ids,
)
from .log import ImpressionLog
from .world import SyntheticWorld

__all__ = ["EncodedDataset", "encode_eleme_log", "encode_public_log"]


@dataclass
class EncodedDataset:
    """Globally-indexed arrays for one dataset split.

    Behaviour sequences are stored per *session* and joined through
    ``session_index`` at batch time, which keeps memory proportional to the
    number of requests instead of the number of impressions.  The offline
    log encodes into one, and so does the serving replay buffer's window of
    logged exposures, one session per exposure.
    """

    schema: FeatureSchema
    field_ids: Dict[str, np.ndarray]          # field name -> (num_impressions, k)
    behavior_ids: np.ndarray                  # (num_sessions, L, k_seq)
    behavior_mask: np.ndarray                 # (num_sessions, L)
    behavior_st_mask: np.ndarray              # (num_sessions, L)
    session_index: np.ndarray                 # (num_impressions,)
    labels: np.ndarray                        # (num_impressions,)
    time_period: np.ndarray                   # (num_impressions,)
    city: np.ndarray                          # (num_impressions,)
    hour: np.ndarray                          # (num_impressions,)
    day: np.ndarray                           # (num_impressions,)
    position: np.ndarray                      # (num_impressions,)

    def __post_init__(self) -> None:
        count = len(self.labels)
        for name, array in self.field_ids.items():
            if array.shape[0] != count:
                raise ValueError(f"field {name!r} has {array.shape[0]} rows, expected {count}")
        for name in ("session_index", "time_period", "city", "hour", "day", "position"):
            if len(getattr(self, name)) != count:
                raise ValueError(f"{name} length mismatch")

    def __len__(self) -> int:
        return int(len(self.labels))

    @property
    def num_sessions(self) -> int:
        return int(self.behavior_ids.shape[0])

    @property
    def overall_ctr(self) -> float:
        return float(self.labels.mean()) if len(self.labels) else 0.0

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Every array under a flat name (``fields.<field>`` for field ids)."""
        arrays = {f"fields.{name}": ids for name, ids in self.field_ids.items()}
        for column in fields(self):
            if column.name not in ("schema", "field_ids"):
                arrays[column.name] = getattr(self, column.name)
        return arrays

    # ------------------------------------------------------------------ #
    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        """Impression-level subset (sessions are kept whole for reuse)."""
        indices = np.asarray(indices, dtype=np.int64)
        return EncodedDataset(
            schema=self.schema,
            field_ids={name: array[indices] for name, array in self.field_ids.items()},
            behavior_ids=self.behavior_ids,
            behavior_mask=self.behavior_mask,
            behavior_st_mask=self.behavior_st_mask,
            session_index=self.session_index[indices],
            labels=self.labels[indices],
            time_period=self.time_period[indices],
            city=self.city[indices],
            hour=self.hour[indices],
            day=self.day[indices],
            position=self.position[indices],
        )

    def split_by_day(self, test_days: Sequence[int]):
        """Temporal split: impressions of ``test_days`` become the test set."""
        test_days = set(int(d) for d in test_days)
        is_test = np.array([int(d) in test_days for d in self.day])
        train = self.subset(np.where(~is_test)[0])
        test = self.subset(np.where(is_test)[0])
        return train, test

    def batch(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Assemble the model input dict for the given impression indices."""
        indices = np.asarray(indices, dtype=np.int64)
        sessions = self.session_index[indices]
        return {
            "fields": {name: array[indices] for name, array in self.field_ids.items()},
            "behavior": self.behavior_ids[sessions],
            "behavior_mask": self.behavior_mask[sessions],
            "behavior_st_mask": self.behavior_st_mask[sessions],
            "labels": self.labels[indices],
            "time_period": self.time_period[indices],
            "city": self.city[indices],
            "hour": self.hour[indices],
            "session": sessions,
            "position": self.position[indices],
        }


# ---------------------------------------------------------------------- #
# shared helpers
# ---------------------------------------------------------------------- #
def _prior_item_clicks(log: ImpressionLog, num_items: int) -> np.ndarray:
    """Clicks each item accumulated on days strictly before each impression.

    This reproduces the "statistics of shop's clicking" features without
    leaking same-day labels into the input.
    """
    days = log.impression_day()
    min_day, max_day = int(days.min()), int(days.max())
    num_days = max_day - min_day + 1
    per_day = np.zeros((num_items, num_days), dtype=np.int64)
    np.add.at(per_day, (log.item_index, days - min_day), log.label.astype(np.int64))
    cumulative = np.cumsum(per_day, axis=1)
    day_offset = days - min_day
    prior = np.where(
        day_offset > 0,
        cumulative[log.item_index, np.maximum(day_offset - 1, 0)],
        0,
    )
    return prior


def _encoded(log: ImpressionLog, schema: FeatureSchema, fields: Dict[str, np.ndarray]
             ) -> EncodedDataset:
    """Wrap one encoder's field ids with the log's behaviour and row columns."""
    return EncodedDataset(
        schema=schema,
        field_ids=fields,
        behavior_ids=behavior_ids(schema, log.behavior_raw),
        behavior_mask=log.behavior_mask,
        behavior_st_mask=log.behavior_st_mask,
        session_index=log.session_index,
        labels=log.label.astype(np.float32),
        time_period=log.impression_period(),
        city=log.impression_city(),
        hour=log.impression_hour(),
        day=log.impression_day(),
        position=log.position,
    )


def _context_field(log: ImpressionLog, schema: FeatureSchema) -> np.ndarray:
    return context_ids(
        schema, log.impression_period(), log.impression_hour(), log.impression_city(),
        geohash_ids(schema, log.session_geohash)[log.session_index], log.impression_day(),
    )


# ---------------------------------------------------------------------- #
# Ele.me-style encoding
# ---------------------------------------------------------------------- #
def encode_eleme_log(log: ImpressionLog, world: SyntheticWorld, schema: FeatureSchema) -> EncodedDataset:
    """Encode an impression log with the rich Ele.me schema (Table I)."""
    users = log.impression_user()
    items = log.item_index
    periods = log.impression_period()
    distance_bucket = distance_buckets(log.distance, world.config.city_radius_degrees)
    prior_clicks = _prior_item_clicks(log, world.config.num_items)
    return _encoded(log, schema, {
        FieldName.USER: user_ids(
            schema, user_static_ids(schema, world)[users],
            log.session_user_orders[log.session_index], log.session_user_clicks[log.session_index],
        ),
        FieldName.CANDIDATE_ITEM: np.concatenate(
            [item_static_ids(schema, world)[items],
             item_dynamic_ids(schema, prior_clicks, distance_bucket, log.position)],
            axis=1,
        ),
        FieldName.CONTEXT: _context_field(log, schema),
        FieldName.COMBINE: combine_ids(schema, world, users, items, periods, distance_bucket),
    })


# ---------------------------------------------------------------------- #
# public-data-style encoding
# ---------------------------------------------------------------------- #
def encode_public_log(log: ImpressionLog, world: SyntheticWorld, schema: FeatureSchema) -> EncodedDataset:
    """Encode an impression log with the leaner public-data schema."""
    users = log.impression_user()
    items = log.item_index
    prior_clicks = _prior_item_clicks(log, world.config.num_items)
    user_clicks = log.session_user_clicks[log.session_index]
    return _encoded(log, schema, {
        FieldName.USER: np.stack(
            [
                feature_ids(schema, "user_id", users + 1),
                feature_ids(schema, "user_click_count_bucket", log_bucketize(user_clicks, 9)),
            ],
            axis=1,
        ),
        FieldName.CANDIDATE_ITEM: np.stack(
            [
                feature_ids(schema, "item_id", items + 1),
                feature_ids(schema, "item_category", world.item_category[items] + 1),
                feature_ids(schema, "item_popularity_bucket", log_bucketize(prior_clicks, 10)),
            ],
            axis=1,
        ),
        FieldName.CONTEXT: _context_field(log, schema),
        FieldName.COMBINE: feature_ids(
            schema, "cross_category_match",
            cross_category_match(world.user_top_category[users], world.item_category[items]),
        )[:, None],
    })
