"""Online request encoding: one request-factored batch for many requests.

The serving side of :func:`repro.data.encoding.encode_eleme_log`: given the
live :class:`ServingState`, request contexts and their candidate lists,
:meth:`OnlineRequestEncoder.encode_split` produces the features the models
were trained on, factored by request — user, context and behaviour once per
request, item and combine fields once per candidate row.  It is the one
serving encoding: the micro-batching engine in :mod:`repro.serving.ranker`
scores it and :class:`repro.serving.replay.ReplayBuffer` joins it into the
offline :class:`repro.data.encoding.EncodedDataset`.  Both sides call the
same Table I id builders (:mod:`repro.features.table_ids`: one clip and
shift per field), and a unit test asserts offline and online encodings of a
session are equal bytes, so offline/online consistency is guarded.

The encoder is numpy-batch-first: candidate features are assembled with
vectorised gathers from precomputed per-item/per-user global-id tables (held
in the state's :class:`repro.serving.state.FeatureCache`), and encoded user
behaviour sequences are cached between requests so a user browsing the same
time-period and location pays the sequence-encoding cost only once.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..data.world import RequestContext, SyntheticWorld
from ..features.schema import FeatureSchema
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
    def encode_split(
        self,
        contexts: Sequence[RequestContext],
        candidate_lists: Sequence[np.ndarray],
        state: ServingState,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Encode many concurrent requests into one request-factored batch.

        Per-request arrays (``user_rows``, ``context_rows``, the deduplicated
        behaviour sequences) stay one row per request; per-row arrays carry
        only what varies per candidate (``candidates`` for the frozen
        item-table gather, ``item_field``, ``combine_ids``), assembled with
        one vectorised pass over the concatenated candidate axis.
        ``row_map`` maps rows to requests for the late-binding broadcast
        inside ``score_two_tower``; ``behavior_row_map`` maps rows to
        behaviour slots.  A candidate's position is its rank within its
        request.

        Returns ``(split_batch, offsets)`` where ``offsets`` has
        ``len(contexts) + 1`` entries and request ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``; a candidate outside ``[0, num_items)`` raises.
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

        flat_candidates = np.concatenate(  # the empty head keeps zero requests legal
            [np.zeros(0, dtype=np.int64)] + [np.asarray(c, dtype=np.int64) for c in candidate_lists])
        outside = (flat_candidates < 0) | (flat_candidates >= world.config.num_items)
        if outside.any():
            raise ValueError(f"candidate item ids must lie in [0, {world.config.num_items}), "
                             f"got {sorted(set(flat_candidates[outside].tolist()))}")
        positions = np.arange(total, dtype=np.int64) - offsets[row_map]

        users, periods, cities, hours, days = np.array(
            [(c.user_index, c.time_period, c.city, c.hour, c.day) for c in contexts], dtype=np.int64
        ).reshape(num_requests, 5).T
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

        split_batch = {
            "row_map": row_map,
            "candidates": flat_candidates,
            "user_rows": user_ids(self.schema, self._user_static_table(state)[users],
                                  state.user_orders[users], state.user_clicks[users]),
            "context_rows": context_ids(self.schema, periods, hours, cities, geohashes, days),
            "item_field": item_field,
            "combine_ids": combine_field,
            "behavior_unique": behavior_unique,
            "behavior_mask_unique": mask_unique,
            "behavior_st_mask_unique": st_mask_unique,
            "behavior_row_map": slot_of_request[row_map],
        }
        return split_batch, offsets
