"""Online request encoding: assemble a scoring batch for one or many requests.

The serving side of :func:`repro.data.encoding.encode_eleme_log`: given the
live :class:`ServingState`, a request context and a candidate list, it
produces exactly the batch dictionary the models were trained on.  Both call
the same Table I id builders (:mod:`repro.features.table_ids`), and a unit
test asserts an offline session and the same request served online encode to
equal bytes, so offline/online consistency (a classic production failure
mode) is guarded.

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
from ..features.schema import FeatureSchema, FieldName
from ..features.table_ids import (
    behavior_ids,
    combine_ids,
    context_ids,
    distance_buckets,
    geohash_ids,
    item_dynamic_ids,
    item_static_ids,
    user_ids,
    user_static_ids,
)
from .state import ServingState

__all__ = ["OnlineRequestEncoder"]


class OnlineRequestEncoder:
    """Encodes (request context, candidates, state) into a model batch."""

    def __init__(self, world: SyntheticWorld, schema: FeatureSchema) -> None:
        self.world = world
        self.schema = schema
        self._geohash_ids: Dict[str, int] = {}

    def _geohash_id(self, geohash: str) -> int:
        cached = self._geohash_ids.get(geohash)
        if cached is None:
            cached = int(geohash_ids(self.schema, [geohash])[0])
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
        return state.features.lookup(("item_static", self.schema.name), 0,
                                     lambda: item_static_ids(self.schema, self.world), pinned=True)

    def _user_static_table(self, state: ServingState) -> np.ndarray:
        """``(num_users, 4)`` global ids: user_id, gender, age bucket, active level."""
        return state.features.lookup(("user_static", self.schema.name), 0,
                                     lambda: user_static_ids(self.schema, self.world), pinned=True)

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
            return behavior_ids(self.schema, raw), mask, st_mask

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
            if len(positions_list) != num_requests:
                raise ValueError(
                    f"{len(positions_list)} position entries for {num_requests} requests"
                )
            parts = []
            for index, (count, given) in enumerate(zip(counts, positions_list)):
                part = np.asarray(np.arange(count) if given is None else given, dtype=np.int64)
                if part.shape != (count,):
                    raise ValueError(
                        f"request {index}: {count} candidates but positions of shape {part.shape}"
                    )
                parts.append(part)
            positions = (np.concatenate(parts) if total else np.zeros(0, dtype=np.int64))

        users = np.array([context.user_index for context in contexts], dtype=np.int64)
        periods = np.array([context.time_period for context in contexts], dtype=np.int64)
        cities = np.array([context.city for context in contexts], dtype=np.int64)
        hours = np.array([context.hour for context in contexts], dtype=np.int64)
        days = np.array([context.day for context in contexts], dtype=np.int64)
        geohashes = np.array(
            [self._geohash_id(context.geohash) for context in contexts], dtype=np.int64
        )
        locations = np.array(
            [[context.latitude, context.longitude] for context in contexts], dtype=np.float64
        ).reshape(num_requests, 2)

        # --- candidate item and combine fields (vectorised over all rows) #
        distance = world.distances_to_locations(flat_candidates, locations[row_map])
        distance_bucket = distance_buckets(distance, world.config.city_radius_degrees)
        item_field = np.concatenate(
            [self.item_static_table(state)[flat_candidates],
             item_dynamic_ids(self.schema, state.item_clicks[flat_candidates],
                              distance_bucket, positions)],
            axis=1,
        )
        combine_field = combine_ids(self.schema, world, users[row_map], flat_candidates,
                                    periods[row_map], distance_bucket)

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
            "user_rows": user_ids(self.schema, self._user_static_table(state)[users],
                                  state.user_orders[users], state.user_clicks[users]),
            "context_rows": context_ids(self.schema, periods, hours, cities, geohashes, days),
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
        candidate axis (no per-candidate Python loops).  The batch follows
        the offline training contract (:meth:`repro.data.encoding.
        EncodedDataset.batch`): every row carries its request's behaviour
        sequence; :meth:`encode_split` keeps it once per request.

        Returns ``(batch, offsets)`` where ``offsets`` has
        ``len(contexts) + 1`` entries and request ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.
        """
        parts = self._assemble(contexts, candidate_lists, state, positions_list)
        row_map = parts["row_map"]
        behavior_row_map = parts["behavior_row_map"]
        total = len(row_map)
        batch = {
            "fields": {
                FieldName.USER: parts["user_rows"][row_map],
                FieldName.CANDIDATE_ITEM: parts["item_field"],
                FieldName.CONTEXT: parts["context_rows"][row_map],
                FieldName.COMBINE: parts["combine_field"],
            },
            "behavior": parts["behavior_unique"][behavior_row_map],
            "behavior_mask": parts["behavior_mask_unique"][behavior_row_map],
            "behavior_st_mask": parts["behavior_st_mask_unique"][behavior_row_map],
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
