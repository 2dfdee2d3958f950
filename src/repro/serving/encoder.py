"""Online request encoding: one request-factored batch for many requests.

The serving side of :func:`repro.data.encoding.encode_eleme_log`: given the
live :class:`ServingState`, request contexts and their candidate lists,
:meth:`OnlineRequestEncoder.encode_split` produces the features the models
were trained on, factored by request — user, context and behaviour once per
request, item and combine fields once per candidate row.  It is the one
serving encoding: the micro-batching engine in :mod:`repro.serving.ranker`
scores it, and :class:`repro.serving.replay.ReplayBuffer` encodes its logged
records through the same :meth:`OnlineRequestEncoder.assemble_split` into the
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


def joined(parts, dtype) -> np.ndarray:
    """``parts`` end to end as one ``dtype`` array (empty when there are none)."""
    return np.concatenate([np.zeros(0, dtype=dtype)]
                          + [np.asarray(part, dtype=dtype) for part in parts])


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
        counts = np.array([len(c) for c in candidate_lists], dtype=np.int64)
        candidates = joined(candidate_lists, np.int64)
        num_items = self.world.config.num_items
        outside = (candidates < 0) | (candidates >= num_items)
        if outside.any():
            raise ValueError(f"candidate item ids must lie in [0, {num_items}), "
                             f"got {sorted(set(candidates[outside].tolist()))}")
        users = np.array([context.user_index for context in contexts], dtype=np.int64)

        # One behaviour slot per request with rows: an unreferenced slot would
        # make the per-request tensors the models dedup against disagree.
        kept = np.flatnonzero(counts)
        max_length = self.schema.max_sequence_length
        behavior = np.empty((len(kept), max_length, len(self.schema.sequence_features)),
                            dtype=np.int64)
        mask = np.empty((len(kept), max_length), dtype=np.float32)
        st_mask = np.empty((len(kept), max_length), dtype=np.float32)
        for slot, request_index in enumerate(kept):
            behavior[slot], mask[slot], st_mask[slot] = self._behavior_entry(
                contexts[request_index], state)

        split_batch = self.assemble_split(
            contexts, counts, candidates, state.item_clicks[candidates],
            state.user_orders[users], state.user_clicks[users], (behavior, mask, st_mask), state,
        )
        return split_batch, np.concatenate([[0], np.cumsum(counts)])

    def assemble_split(self, contexts: Sequence[RequestContext], counts: np.ndarray,
                       candidates: np.ndarray, shop_clicks: np.ndarray, user_orders: np.ndarray,
                       user_clicks: np.ndarray, behavior: Tuple[np.ndarray, ...],
                       state: ServingState) -> Dict[str, np.ndarray]:
        """:meth:`encode_split`'s batch from the live values it read: each row's
        item click counter, each request's user counters, and the encoded
        ``(ids, mask, st_mask)`` of each request with rows.  ``state`` gives
        only static id tables, so :meth:`repro.serving.replay.ReplayBuffer.window`
        encodes logged values through this same code."""
        world = self.world
        num_requests = len(contexts)
        total = len(candidates)
        #: row -> request index, the backbone of every per-request broadcast.
        row_map = np.repeat(np.arange(num_requests, dtype=np.int64), counts)
        positions = np.arange(total, dtype=np.int64) - (np.cumsum(counts) - counts)[row_map]

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
        distance = world.distances_to_locations(candidates, locations[row_map])
        distance_bucket = distance_buckets(distance, world.config.city_radius_degrees)
        item_field = np.concatenate(
            [self.item_static_table(state)[candidates],
             item_dynamic_ids(self.schema, shop_clicks, distance_bucket, positions)],
            axis=1,
        )
        combine_field = combine_ids(self.schema, world, users[row_map], candidates,
                                    periods[row_map], distance_bucket)

        slot_of_request = np.full(num_requests, -1, dtype=np.int64)
        slot_of_request[counts > 0] = np.arange(len(behavior[0]))
        return {
            "row_map": row_map,
            "candidates": candidates,
            "user_rows": user_ids(self.schema, self._user_static_table(state)[users],
                                  user_orders, user_clicks),
            "context_rows": context_ids(self.schema, periods, hours, cities, geohashes, days),
            "item_field": item_field,
            "combine_ids": combine_field,
            "behavior_unique": behavior[0],
            "behavior_mask_unique": behavior[1],
            "behavior_st_mask_unique": behavior[2],
            "behavior_row_map": slot_of_request[row_map],
        }
