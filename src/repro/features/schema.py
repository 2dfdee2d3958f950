"""Feature schema: fields, feature specs, and the global id space.

The paper groups input features into five *fields* (Table I): user feature,
user behaviour sequence, candidate item, spatiotemporal context, and combine
(hand-crafted cross) features.  All categorical features share one embedding
matrix ``E in R^{D x N}`` over a global id space of ``N`` unique feature
values (Eq. 3-4); this module owns that layout.

Every :class:`FeatureSpec` receives a contiguous range of global ids
``[offset, offset + vocab_size)``; local id 0 of each feature (the padding /
unknown slot) maps to global id ``offset`` so that padded positions embed to
the (near-zero-initialised) padding rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "FieldName",
    "FeatureSpec",
    "FeatureSchema",
    "eleme_schema",
    "public_schema",
]


class FieldName:
    """Canonical field names (Table I)."""

    USER = "user"
    USER_BEHAVIOR = "user_behavior"
    CANDIDATE_ITEM = "candidate_item"
    CONTEXT = "context"
    COMBINE = "combine"

    #: The fields whose concatenated embeddings feed the model trunk, in a
    #: fixed order (the behaviour field is pooled by attention before concat).
    ORDER = (USER, USER_BEHAVIOR, CANDIDATE_ITEM, CONTEXT, COMBINE)


@dataclass(frozen=True)
class FeatureSpec:
    """One categorical feature: its name, owning field, and vocabulary size."""

    name: str
    field: str
    vocab_size: int

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError(
                f"feature {self.name!r}: vocab_size must be >= 2 (padding + one value), "
                f"got {self.vocab_size}"
            )


class FeatureSchema:
    """The full feature layout of a dataset.

    Parameters
    ----------
    features:
        Specs for every non-sequence categorical feature, grouped implicitly
        by their ``field`` attribute.
    sequence_features:
        Specs for the per-event features of the user behaviour sequence
        (``field`` must be ``FieldName.USER_BEHAVIOR``).
    max_sequence_length:
        Padding length for behaviour sequences.
    """

    def __init__(
        self,
        features: Sequence[FeatureSpec],
        sequence_features: Sequence[FeatureSpec],
        max_sequence_length: int = 20,
        name: str = "schema",
    ) -> None:
        if max_sequence_length <= 0:
            raise ValueError("max_sequence_length must be positive")
        self.name = name
        self.max_sequence_length = max_sequence_length
        self.features: List[FeatureSpec] = list(features)
        self.sequence_features: List[FeatureSpec] = list(sequence_features)

        for spec in self.sequence_features:
            if spec.field != FieldName.USER_BEHAVIOR:
                raise ValueError(
                    f"sequence feature {spec.name!r} must belong to the user_behavior field"
                )
        self._specs: Dict[str, FeatureSpec] = {}
        for spec in self.features + self.sequence_features:
            if spec.name in self._specs:
                raise ValueError(f"duplicate feature name {spec.name!r}")
            self._specs[spec.name] = spec

        # Assign contiguous global-id ranges.
        self._offsets: Dict[str, int] = {}
        cursor = 0
        for spec in self.features + self.sequence_features:
            self._offsets[spec.name] = cursor
            cursor += spec.vocab_size
        self.total_vocab_size = cursor
        self._id_bounds: Dict[Tuple[str, ...], Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def offset(self, feature_name: str) -> int:
        """Global-id offset of ``feature_name``."""
        return self._offsets[feature_name]

    def global_ids(self, feature_name: str, local_ids: np.ndarray) -> np.ndarray:
        """Translate per-feature local ids into the shared global id space."""
        spec = self.spec(feature_name)
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size and (local_ids.min() < 0 or local_ids.max() >= spec.vocab_size):
            raise ValueError(
                f"local ids for {feature_name!r} out of range [0, {spec.vocab_size}): "
                f"[{local_ids.min()}, {local_ids.max()}]"
            )
        return local_ids + self._offsets[feature_name]

    def id_bounds(self, names: Tuple[str, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """``(largest local id, global offset)`` of each of ``names`` as int64
        vectors, built once per tuple (the field builders of
        :mod:`repro.features.table_ids` clip and shift against them)."""
        bounds = self._id_bounds.get(names)
        if bounds is None:
            bounds = (np.array([self.spec(name).vocab_size - 1 for name in names], dtype=np.int64),
                      np.array([self._offsets[name] for name in names], dtype=np.int64))
            self._id_bounds[names] = bounds
        return bounds

    def spec(self, feature_name: str) -> FeatureSpec:
        spec = self._specs.get(feature_name)
        if spec is None:
            raise KeyError(f"unknown feature {feature_name!r}")
        return spec

    def field_features(self, field_name: str) -> List[FeatureSpec]:
        """Non-sequence features belonging to ``field_name`` in schema order."""
        return [spec for spec in self.features if spec.field == field_name]

    @property
    def field_names(self) -> List[str]:
        """Fields present in this schema, in canonical order."""
        present = {spec.field for spec in self.features}
        present.add(FieldName.USER_BEHAVIOR)
        return [name for name in FieldName.ORDER if name in present]

    def num_features_in_field(self, field_name: str) -> int:
        if field_name == FieldName.USER_BEHAVIOR:
            return len(self.sequence_features)
        return len(self.field_features(field_name))

    @property
    def num_fields(self) -> int:
        return len(self.field_names)

    def fingerprint(self) -> str:
        """Stable digest of the feature layout (names, fields, vocab sizes).

        Two schemas share a fingerprint exactly when they produce the same
        global-id space in the same order — i.e. when a model trained against
        one can consume batches encoded with the other.  Checkpoint manifests
        store it so a reload against an incompatible schema fails loudly
        instead of silently embedding ids into the wrong table rows.
        """
        payload = {
            "name": self.name,
            "max_sequence_length": self.max_sequence_length,
            "features": [(s.name, s.field, s.vocab_size) for s in self.features],
            "sequence_features": [
                (s.name, s.field, s.vocab_size) for s in self.sequence_features
            ],
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> Dict[str, List[str]]:
        """A Table I-style summary: field -> list of feature names."""
        summary: Dict[str, List[str]] = {}
        for field_name in self.field_names:
            if field_name == FieldName.USER_BEHAVIOR:
                summary[field_name] = [spec.name for spec in self.sequence_features]
            else:
                summary[field_name] = [spec.name for spec in self.field_features(field_name)]
        return summary


# ---------------------------------------------------------------------- #
# concrete schemas for the two datasets
# ---------------------------------------------------------------------- #
def eleme_schema(
    num_users: int = 20000,
    num_items: int = 4000,
    num_cities: int = 6,
    num_categories: int = 12,
    num_brands: int = 200,
    num_geohash_cells: int = 512,
    max_sequence_length: int = 30,
) -> FeatureSchema:
    """Schema mirroring the Ele.me industrial dataset fields of Table I."""
    features = [
        # User feature field.
        FeatureSpec("user_id", FieldName.USER, num_users + 1),
        FeatureSpec("user_gender", FieldName.USER, 4),
        FeatureSpec("user_age_bucket", FieldName.USER, 8),
        FeatureSpec("user_order_count_bucket", FieldName.USER, 12),
        FeatureSpec("user_click_count_bucket", FieldName.USER, 12),
        FeatureSpec("user_active_level", FieldName.USER, 6),
        # Candidate item field.
        FeatureSpec("item_id", FieldName.CANDIDATE_ITEM, num_items + 1),
        FeatureSpec("item_category", FieldName.CANDIDATE_ITEM, num_categories + 1),
        FeatureSpec("item_brand", FieldName.CANDIDATE_ITEM, num_brands + 1),
        FeatureSpec("item_price_bucket", FieldName.CANDIDATE_ITEM, 11),
        FeatureSpec("shop_quality_bucket", FieldName.CANDIDATE_ITEM, 11),
        FeatureSpec("shop_click_bucket", FieldName.CANDIDATE_ITEM, 11),
        FeatureSpec("item_distance_bucket", FieldName.CANDIDATE_ITEM, 11),
        FeatureSpec("item_position", FieldName.CANDIDATE_ITEM, 22),
        # Spatiotemporal context field.
        FeatureSpec("ctx_time_period", FieldName.CONTEXT, 6),
        FeatureSpec("ctx_hour", FieldName.CONTEXT, 25),
        FeatureSpec("ctx_city_id", FieldName.CONTEXT, num_cities + 1),
        FeatureSpec("ctx_geohash", FieldName.CONTEXT, num_geohash_cells + 1),
        FeatureSpec("ctx_weekday", FieldName.CONTEXT, 8),
        FeatureSpec("ctx_is_weekend", FieldName.CONTEXT, 3),
        # Combine (hand-crafted cross) field.
        FeatureSpec("cross_user_activity_x_period", FieldName.COMBINE, 6 * 5 + 1),
        FeatureSpec("cross_category_match", FieldName.COMBINE, 3),
        FeatureSpec("cross_distance_x_period", FieldName.COMBINE, 11 * 5 + 1),
    ]
    sequence_features = [
        FeatureSpec("seq_item_id", FieldName.USER_BEHAVIOR, num_items + 1),
        FeatureSpec("seq_category", FieldName.USER_BEHAVIOR, num_categories + 1),
        FeatureSpec("seq_brand", FieldName.USER_BEHAVIOR, num_brands + 1),
        FeatureSpec("seq_time_period", FieldName.USER_BEHAVIOR, 6),
        FeatureSpec("seq_hour", FieldName.USER_BEHAVIOR, 25),
        FeatureSpec("seq_city_id", FieldName.USER_BEHAVIOR, num_cities + 1),
    ]
    return FeatureSchema(features, sequence_features, max_sequence_length, name="eleme")


def public_schema(
    num_users: int = 10000,
    num_items: int = 3000,
    num_cities: int = 8,
    num_categories: int = 10,
    num_geohash_cells: int = 256,
    max_sequence_length: int = 20,
) -> FeatureSchema:
    """Schema for the (synthetic stand-in of the) Spatiotemporal Public Data.

    Table III reports it with far fewer features (38 vs 417), so this schema
    is intentionally leaner than :func:`eleme_schema`.
    """
    features = [
        FeatureSpec("user_id", FieldName.USER, num_users + 1),
        FeatureSpec("user_click_count_bucket", FieldName.USER, 10),
        FeatureSpec("item_id", FieldName.CANDIDATE_ITEM, num_items + 1),
        FeatureSpec("item_category", FieldName.CANDIDATE_ITEM, num_categories + 1),
        FeatureSpec("item_popularity_bucket", FieldName.CANDIDATE_ITEM, 11),
        FeatureSpec("ctx_time_period", FieldName.CONTEXT, 6),
        FeatureSpec("ctx_hour", FieldName.CONTEXT, 25),
        FeatureSpec("ctx_city_id", FieldName.CONTEXT, num_cities + 1),
        FeatureSpec("ctx_geohash", FieldName.CONTEXT, num_geohash_cells + 1),
        FeatureSpec("cross_category_match", FieldName.COMBINE, 3),
    ]
    sequence_features = [
        FeatureSpec("seq_item_id", FieldName.USER_BEHAVIOR, num_items + 1),
        FeatureSpec("seq_category", FieldName.USER_BEHAVIOR, num_categories + 1),
        FeatureSpec("seq_time_period", FieldName.USER_BEHAVIOR, 6),
        FeatureSpec("seq_city_id", FieldName.USER_BEHAVIOR, num_cities + 1),
    ]
    return FeatureSchema(features, sequence_features, max_sequence_length, name="public")
