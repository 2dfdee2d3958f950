"""Online request encoding: assemble a scoring batch for one or many requests.

This is the serving-side twin of :func:`repro.data.encoding.encode_eleme_log`:
given the live :class:`ServingState`, a request context and a candidate list,
it produces exactly the batch dictionary the models were trained on.  A unit
test asserts the two encoders agree feature-by-feature, so offline/online
consistency (a classic production failure mode) is guarded.

The encoder is numpy-batch-first: candidate features are assembled with
vectorised gathers from precomputed per-item/per-user global-id tables (held
in the state's :class:`repro.serving.state.FeatureCache`), and encoded user
behaviour sequences are cached between requests so a user browsing the same
time-period and location pays the sequence-encoding cost only once.
:meth:`OnlineRequestEncoder.encode_many` stacks many concurrent requests into
one flat model batch for the micro-batching engine in
:mod:`repro.serving.ranker`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.world import RequestContext, SyntheticWorld
from ..features.buckets import bucketize, log_bucketize
from ..features.crosses import (
    cross_activity_time_period,
    cross_category_match,
    cross_distance_time_period,
)
from ..features.schema import FeatureSchema, FieldName
from ..features.vocabulary import HashingVocabulary
from .state import ServingState

__all__ = ["OnlineRequestEncoder"]

#: Column layout of the raw behaviour-snapshot array in ServingState.
_SNAPSHOT_COLUMNS = ["seq_item_id", "seq_category", "seq_brand", "seq_time_period",
                     "seq_hour", "seq_city_id"]


class OnlineRequestEncoder:
    """Encodes (request context, candidates, state) into a model batch."""

    def __init__(self, world: SyntheticWorld, schema: FeatureSchema) -> None:
        self.world = world
        self.schema = schema
        self._geohash_vocab = HashingVocabulary(
            schema.spec("ctx_geohash").vocab_size, name="ctx_geohash"
        )
        self._geohash_ids: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _gid(self, name: str, local: np.ndarray) -> np.ndarray:
        spec = self.schema.spec(name)
        return self.schema.global_ids(name, np.clip(local, 0, spec.vocab_size - 1))

    def _geohash_id(self, geohash: str) -> int:
        cached = self._geohash_ids.get(geohash)
        if cached is None:
            cached = int(self.schema.global_ids(
                "ctx_geohash", np.array([self._geohash_vocab.lookup(geohash)])
            )[0])
            self._geohash_ids[geohash] = cached
        return cached

    # ------------------------------------------------------------------ #
    # static global-id tables (built once per world/schema, cached in state)
    # ------------------------------------------------------------------ #
    def item_static_table(self, state: ServingState) -> np.ndarray:
        """``(num_items, 5)`` global ids: item_id, category, brand, price, quality.

        Public because the embedding-ANN recall channel exports item vectors
        by gathering these rows from a model's embedding table
        (:meth:`repro.models.base.BaseCTRModel.export_item_embeddings`).
        """

        def build() -> np.ndarray:
            world = self.world
            num_items = world.config.num_items
            all_items = np.arange(num_items, dtype=np.int64)
            price_bucket = np.clip(
                bucketize(world.item_price, np.linspace(0.1, 0.9, 9)), 1, 10
            )
            quality_bucket = np.clip(
                bucketize(world.item_quality, np.linspace(0.1, 0.9, 9)), 1, 10
            )
            return np.stack(
                [
                    self._gid("item_id", all_items + 1),
                    self._gid("item_category", world.item_category + 1),
                    self._gid("item_brand", world.item_brand + 1),
                    self._gid("item_price_bucket", price_bucket),
                    self._gid("shop_quality_bucket", quality_bucket),
                ],
                axis=1,
            )

        return state.features.lookup(("item_static", self.schema.name), 0, build, pinned=True)

    def _user_static_table(self, state: ServingState) -> np.ndarray:
        """``(num_users, 4)`` global ids: user_id, gender, age bucket, active level."""

        def build() -> np.ndarray:
            world = self.world
            all_users = np.arange(world.config.num_users, dtype=np.int64)
            return np.stack(
                [
                    self._gid("user_id", all_users + 1),
                    self._gid("user_gender", world.user_gender),
                    self._gid("user_age_bucket", world.user_age_bucket),
                    self._gid("user_active_level", world.user_active_level),
                ],
                axis=1,
            )

        return state.features.lookup(("user_static", self.schema.name), 0, build, pinned=True)

    # ------------------------------------------------------------------ #
    # per-request rows (count-independent, so computed once per request)
    # ------------------------------------------------------------------ #
    def _user_rows(self, users: np.ndarray, state: ServingState) -> np.ndarray:
        """``(num_requests, 6)`` user-field global ids, one row per request."""
        static = self._user_static_table(state)
        rows = np.empty((len(users), 6), dtype=np.int64)
        rows[:, 0] = static[users, 0]
        rows[:, 1] = static[users, 1]
        rows[:, 2] = static[users, 2]
        rows[:, 3] = self._gid("user_order_count_bucket",
                               log_bucketize(state.user_orders[users], 11))
        rows[:, 4] = self._gid("user_click_count_bucket",
                               log_bucketize(state.user_clicks[users], 11))
        rows[:, 5] = static[users, 3]
        return rows

    def _context_rows(self, contexts: Sequence[RequestContext]) -> np.ndarray:
        """``(num_requests, 6)`` context-field global ids, one row per request."""
        days = np.array([context.day for context in contexts], dtype=np.int64)
        weekday = days % 7
        rows = np.empty((len(contexts), 6), dtype=np.int64)
        rows[:, 0] = self._gid(
            "ctx_time_period",
            np.array([context.time_period for context in contexts], dtype=np.int64) + 1,
        )
        rows[:, 1] = self._gid(
            "ctx_hour", np.array([context.hour for context in contexts], dtype=np.int64) + 1
        )
        rows[:, 2] = self._gid(
            "ctx_city_id", np.array([context.city for context in contexts], dtype=np.int64) + 1
        )
        rows[:, 3] = np.array(
            [self._geohash_id(context.geohash) for context in contexts], dtype=np.int64
        )
        rows[:, 4] = self._gid("ctx_weekday", weekday + 1)
        rows[:, 5] = self._gid("ctx_is_weekend", (weekday >= 5).astype(np.int64) + 1)
        return rows

    def _behavior_entry(
        self, context: RequestContext, state: ServingState
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encoded behaviour sequence for the request's user, cached by version.

        The snapshot depends on the user's history plus the request's
        time-period and geohash prefix (through the spatiotemporal filter
        mask), so those take part in the cache key; ``record_clicks`` bumps
        ``state.user_version`` which expires every entry of that user.
        """
        user = context.user_index
        prefix = context.geohash[: state.geohash_match_prefix]
        key = ("behavior", self.schema.name, user, context.time_period, prefix)

        def build() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            raw, mask, st_mask = state.behavior_snapshot(
                context, self.schema.max_sequence_length
            )
            sequence_features = [spec.name for spec in self.schema.sequence_features]
            encoded = np.zeros(
                (self.schema.max_sequence_length, len(sequence_features)), dtype=np.int64
            )
            for column, feature_name in enumerate(sequence_features):
                source_column = _SNAPSHOT_COLUMNS.index(feature_name)
                spec = self.schema.spec(feature_name)
                local = np.clip(raw[:, source_column], 0, spec.vocab_size - 1)
                encoded[:, column] = self.schema.global_ids(feature_name, local)
            return encoded, mask, st_mask

        return state.features.lookup(key, int(state.user_version[user]), build)

    # ------------------------------------------------------------------ #
    def encode(
        self,
        context: RequestContext,
        candidates: np.ndarray,
        state: ServingState,
        positions: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Build the batch dict for ``candidates`` under ``context``."""
        batch, _ = self.encode_many([context], [candidates], state,
                                    positions_list=[positions])
        return batch

    def _assemble(
        self,
        contexts: Sequence[RequestContext],
        candidate_lists: Sequence[np.ndarray],
        state: ServingState,
        positions_list: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> Dict[str, np.ndarray]:
        """Shared feature assembly behind ``encode_many`` / ``encode_split``.

        Computes every request-level and row-level id array exactly once;
        the two public encoders only differ in packaging (broadcast flat
        batch vs request-factored split batch), so they cannot drift apart
        feature-wise.
        """
        if len(contexts) != len(candidate_lists):
            raise ValueError("contexts and candidate_lists must have equal length")
        world = self.world
        num_requests = len(contexts)

        counts = np.array([len(c) for c in candidate_lists], dtype=np.int64)
        total = int(counts.sum())
        offsets = np.concatenate([[0], np.cumsum(counts)])
        #: row -> request index, the backbone of every per-request broadcast.
        row_map = np.repeat(np.arange(num_requests, dtype=np.int64), counts)

        flat_candidates = (
            np.concatenate([np.asarray(c, dtype=np.int64) for c in candidate_lists])
            if total else np.zeros(0, dtype=np.int64)
        )
        if positions_list is None:
            positions = np.arange(total, dtype=np.int64) - offsets[row_map]
        else:
            parts = [
                np.arange(counts[i], dtype=np.int64) if p is None
                else np.asarray(p, dtype=np.int64)
                for i, p in enumerate(positions_list)
            ]
            positions = (np.concatenate(parts) if total else np.zeros(0, dtype=np.int64))

        users = np.array([context.user_index for context in contexts], dtype=np.int64)
        periods = np.array([context.time_period for context in contexts], dtype=np.int64)
        cities = np.array([context.city for context in contexts], dtype=np.int64)
        hours = np.array([context.hour for context in contexts], dtype=np.int64)
        locations = np.array(
            [[context.latitude, context.longitude] for context in contexts], dtype=np.float64
        ).reshape(num_requests, 2)

        # --- candidate item field (vectorised over all rows) ------------ #
        item_static = self.item_static_table(state)
        distance = world.distances_to_locations(flat_candidates, locations[row_map])
        distance_norm = distance / (2.0 * world.config.city_radius_degrees)
        distance_bucket = np.clip(bucketize(distance_norm, np.linspace(0.2, 1.8, 9)), 1, 10)
        click_bucket = log_bucketize(state.item_clicks[flat_candidates], 10)
        row_periods = periods[row_map]

        item_field = np.empty((total, 8), dtype=np.int64)
        item_field[:, :5] = item_static[flat_candidates]
        item_field[:, 5] = self._gid("shop_click_bucket", click_bucket)
        item_field[:, 6] = self._gid("item_distance_bucket", distance_bucket)
        item_field[:, 7] = self._gid("item_position", positions + 1)

        # --- combine (cross) field -------------------------------------- #
        combine_field = np.empty((total, 3), dtype=np.int64)
        combine_field[:, 0] = self._gid(
            "cross_user_activity_x_period",
            cross_activity_time_period(
                world.user_active_level[users][row_map], row_periods
            ),
        )
        combine_field[:, 1] = self._gid(
            "cross_category_match",
            cross_category_match(
                world.user_top_category[users][row_map],
                world.item_category[flat_candidates],
            ),
        )
        combine_field[:, 2] = self._gid(
            "cross_distance_x_period",
            cross_distance_time_period(distance_bucket, row_periods),
        )

        # --- behaviour sequences (cached, deduplicated per request) ----- #
        # One slot per request that actually has candidate rows: a request
        # with an empty candidate set must not leave an unreferenced row in
        # behavior_unique, or the per-request context/behaviour tensors the
        # models dedup against would disagree in length.
        kept = np.flatnonzero(counts > 0)
        slot_of_request = np.full(num_requests, -1, dtype=np.int64)
        slot_of_request[kept] = np.arange(len(kept))
        behavior_row_map = slot_of_request[row_map]

        sequence_width = len(self.schema.sequence_features)
        max_length = self.schema.max_sequence_length
        behavior_unique = np.empty((len(kept), max_length, sequence_width), dtype=np.int64)
        mask_unique = np.empty((len(kept), max_length), dtype=np.float32)
        st_mask_unique = np.empty((len(kept), max_length), dtype=np.float32)
        for slot, request_index in enumerate(kept):
            behavior, mask, st_mask = self._behavior_entry(contexts[request_index], state)
            behavior_unique[slot] = behavior
            mask_unique[slot] = mask
            st_mask_unique[slot] = st_mask

        return {
            "num_requests": num_requests,
            "offsets": offsets,
            "row_map": row_map,
            "candidates": flat_candidates,
            "positions": positions,
            "user_rows": self._user_rows(users, state),
            "context_rows": self._context_rows(contexts),
            "item_field": item_field,
            "combine_field": combine_field,
            "behavior_unique": behavior_unique,
            "behavior_mask_unique": mask_unique,
            "behavior_st_mask_unique": st_mask_unique,
            "behavior_row_map": behavior_row_map,
            "periods": periods,
            "cities": cities,
            "hours": hours,
        }

    def encode_many(
        self,
        contexts: Sequence[RequestContext],
        candidate_lists: Sequence[np.ndarray],
        state: ServingState,
        positions_list: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Stack many concurrent requests into one flat model batch.

        Every candidate of every request becomes one batch row; behaviour
        sequences are already padded to ``schema.max_sequence_length``, so
        stacking needs no further padding.  All candidate-dependent features
        are assembled with one vectorised pass over the concatenated
        candidate axis (no per-candidate Python loops), and the behaviour
        sequence of each request is emitted once in ``behavior_unique`` with
        a ``behavior_row_map`` so models can share the sequence computation
        across that request's candidates.

        Returns ``(batch, offsets)`` where ``offsets`` has
        ``len(contexts) + 1`` entries and request ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.
        """
        parts = self._assemble(contexts, candidate_lists, state, positions_list)
        row_map = parts["row_map"]
        behavior_row_map = parts["behavior_row_map"]
        behavior_unique = parts["behavior_unique"]
        mask_unique = parts["behavior_mask_unique"]
        st_mask_unique = parts["behavior_st_mask_unique"]
        total = len(row_map)
        batch = {
            "fields": {
                FieldName.USER: parts["user_rows"][row_map],
                FieldName.CANDIDATE_ITEM: parts["item_field"],
                FieldName.CONTEXT: parts["context_rows"][row_map],
                FieldName.COMBINE: parts["combine_field"],
            },
            "behavior": behavior_unique[behavior_row_map],
            "behavior_mask": mask_unique[behavior_row_map],
            "behavior_st_mask": st_mask_unique[behavior_row_map],
            "behavior_unique": behavior_unique,
            "behavior_mask_unique": mask_unique,
            "behavior_st_mask_unique": st_mask_unique,
            "behavior_row_map": behavior_row_map,
            "labels": np.zeros(total, dtype=np.float32),
            "time_period": parts["periods"][row_map],
            "city": parts["cities"][row_map],
            "hour": parts["hours"][row_map],
            "session": row_map.copy(),
            "position": parts["positions"],
        }
        return batch, parts["offsets"]

    def encode_split(
        self,
        contexts: Sequence[RequestContext],
        candidate_lists: Sequence[np.ndarray],
        state: ServingState,
        positions_list: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Request-factored batch for the two-tower serving fast path.

        Same features as :meth:`encode_many` but *not* broadcast onto
        candidate rows: per-request arrays (``user_rows``, ``context_rows``,
        the deduplicated behaviour sequences) stay one row per request, and
        per-row arrays carry only what genuinely varies per candidate
        (``candidates`` for the frozen item-table gather, the dynamic tail of
        ``item_field``, ``combine_ids``).  ``row_map`` maps rows to requests
        for the late-binding broadcast inside ``score_two_tower``.

        Returns ``(split_batch, offsets)`` with the same offsets contract as
        :meth:`encode_many`.
        """
        parts = self._assemble(contexts, candidate_lists, state, positions_list)
        split_batch = {
            "num_requests": parts["num_requests"],
            "row_map": parts["row_map"],
            "candidates": parts["candidates"],
            "user_rows": parts["user_rows"],
            "context_rows": parts["context_rows"],
            "item_field": parts["item_field"],
            "combine_ids": parts["combine_field"],
            "behavior_unique": parts["behavior_unique"],
            "behavior_mask_unique": parts["behavior_mask_unique"],
            "behavior_st_mask_unique": parts["behavior_st_mask_unique"],
            "behavior_row_map": parts["behavior_row_map"],
        }
        return split_batch, parts["offsets"]
