"""Feature engineering: schema, vocabularies, spatiotemporal features."""

from .behavior import BEHAVIOR_COLUMNS, BehaviorHistory
from .buckets import bucketize, log_bucketize, quantile_buckets
from .crosses import cross_activity_time_period, cross_category_match, cross_distance_time_period
from .geohash import (
    geohash_decode,
    geohash_distance_km,
    geohash_encode,
    geohash_neighbors,
    haversine_km,
)
from .schema import FeatureSchema, FeatureSpec, FieldName, eleme_schema, public_schema
from .time_features import (
    TIME_PERIODS,
    TimePeriod,
    cyclical_hour_encoding,
    hour_to_time_period,
    hours_of_time_period,
    is_mealtime,
)
from .vocabulary import HashingVocabulary, Vocabulary

__all__ = [
    "BEHAVIOR_COLUMNS",
    "BehaviorHistory",
    "bucketize",
    "log_bucketize",
    "quantile_buckets",
    "cross_activity_time_period",
    "cross_category_match",
    "cross_distance_time_period",
    "geohash_decode",
    "geohash_distance_km",
    "geohash_encode",
    "geohash_neighbors",
    "haversine_km",
    "FeatureSchema",
    "FeatureSpec",
    "FieldName",
    "eleme_schema",
    "public_schema",
    "TIME_PERIODS",
    "TimePeriod",
    "cyclical_hour_encoding",
    "hour_to_time_period",
    "hours_of_time_period",
    "is_mealtime",
    "HashingVocabulary",
    "Vocabulary",
]
