"""Concrete recall channels (the "Recall" stage of the paper's Fig. 1).

Four production-style retrieval scenarios — :class:`GeoGridChannel` (indexed
geo retrieval), :class:`EmbeddingANNChannel` (item-embedding similarity),
:class:`PopularityChannel` (live click counters) and
:class:`UserHistoryChannel` (recent shops and categories) — plus
:class:`LocationBasedRecall`, the seed proximity sampler kept as the
benchmark-parity escape hatch.

Every class implements ``recall_many`` only.  What a batch shares (a distance
matrix per 3x3 block, a ranking per (city, period) or (city, category), one
history snapshot under one lock acquisition) lives in locals of that one
call, so nothing needs invalidating when clicks land or a model is swapped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...data.world import RequestContext, SyntheticWorld
from ...features.geohash import geohash_neighbors
from ..state import ServingState
from .base import RecallChannel, RecallStrategy, RngFor, request_rng, resolve_pool_size

__all__ = ["LocationBasedRecall", "GeoGridChannel", "EmbeddingANNChannel",
           "PopularityChannel", "UserHistoryChannel"]

_EMPTY = np.zeros(0, dtype=np.int64)


def _top_k_by_score(pool: np.ndarray, scores: np.ndarray, size: int) -> np.ndarray:
    """Highest-scoring ``size`` items of ``pool``, score ties by pool position.

    ``scores`` is one row over ``pool`` or a (requests x items) matrix ranked
    row by row.  One stable full sort either way (pools are a few hundred
    items), so a row ranks the same alone or inside a matrix and a tie at the
    cut never depends on how a partition happened to lay the pool out.
    """
    return pool[(-scores).argsort(axis=-1, kind="stable")[..., :size]]


class LocationBasedRecall(RecallStrategy):
    """Proximity-weighted sampling over the request's city (the seed recall).

    Candidates are restricted to the request's city and sampled with
    inverse-distance weights, computed with a full distance scan over the
    city pool — this is the baseline the indexed :class:`GeoGridChannel` is
    benchmarked against, and the escape hatch
    ``PersonalizationPlatform(..., recall=LocationBasedRecall(world))`` that
    keeps a benchmark on the seed *sampling strategy* instead of the fused
    multi-channel stage.

    Randomisation is keyed to the request via :func:`request_rng` rather
    than drawn from a shared mutated generator (which made the seed
    implementation's ``serve_many`` order-dependent), so batched and
    sequential serving recall identical pools.
    """

    def __init__(self, world: SyntheticWorld, pool_size: int = 30, seed: int = 5) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.world = world
        self.pool_size = pool_size
        self.seed = seed

    def recall_many(self, contexts: Sequence[RequestContext],
                    pool_size: Optional[int] = None) -> List[np.ndarray]:
        """Up to ``pool_size`` sampled candidate item indices per request."""
        size = resolve_pool_size(pool_size, self.pool_size)
        pools = []
        for context in contexts:
            pool = self.world.recall_pool(context.city)
            if len(pool) <= size:
                pools.append(pool.copy())
                continue
            distance = self.world.distance_to_request(pool, context)
            weights = 1.0 / (0.05 + distance)
            weights = weights / weights.sum()
            rng = request_rng(self.seed, context, salt="proximity")
            pools.append(rng.choice(pool, size=size, replace=False, p=weights))
        return pools


class GeoGridChannel(RecallChannel):
    """Nearby items via a precomputed geohash-cell inverted index.

    Items are bucketed once, at construction, into geohash cells at several
    precisions.  A request gathers its own cell plus the 8 neighbours at the
    finest precision, degrading to coarser cells only when the grid is too
    sparse, and ranks just the gathered items by true distance — no
    per-request scan over the whole city.  Gathers are memoised per
    (precision, cell) — a function of the static grid only — and a batch
    groups its requests by gathered block, so each block is ranked once as a
    (requests x items) distance matrix.

    ``min_precision`` bounds how coarse the degradation may go before the
    channel falls back to the request's city pool; the default (4, cells of
    roughly 0.18°) keeps a 3x3 block well inside one synthetic city, so the
    grid never silently recalls another city's shops.
    """

    name = "geo_grid"

    def __init__(self, world: SyntheticWorld, max_precision: Optional[int] = None,
                 min_precision: int = 4) -> None:
        self.world = world
        self.max_precision = max_precision or world.config.geohash_precision
        self.min_precision = min(min_precision, self.max_precision)
        self._index: Dict[int, Dict[str, np.ndarray]] = {}
        for precision in range(self.min_precision, self.max_precision + 1):
            cells: Dict[str, List[int]] = {}
            for item, geohash in enumerate(world.item_geohash):
                cells.setdefault(geohash[:precision], []).append(item)
            self._index[precision] = {
                cell: np.asarray(items, dtype=np.int64) for cell, items in cells.items()
            }
        # Requests cluster on home cells, so the 3x3-block gather around a
        # cell is memoised.  Keying on the precision keeps recall a pure
        # function of (request, state, size): which precision serves a request
        # never depends on what earlier calls happened to cache.
        self._gather_cache: Dict[Tuple[int, str], np.ndarray] = {}

    def _block_items(self, precision: int, cell: str) -> np.ndarray:
        """All items in the 3x3 block of cells around ``cell`` (memoised)."""
        key = (precision, cell)
        gathered = self._gather_cache.get(key)
        if gathered is None:
            index = self._index[precision]
            parts = [index[neighbor] for neighbor in [cell] + geohash_neighbors(cell)
                     if neighbor in index]
            gathered = np.concatenate(parts) if parts else _EMPTY
            self._gather_cache[key] = gathered
        return gathered

    def _gather(self, context: RequestContext, size: int) -> np.ndarray:
        finest = context.geohash[: self.max_precision]
        for precision in range(min(self.max_precision, len(finest)),
                               self.min_precision - 1, -1):
            gathered = self._block_items(precision, finest[:precision])
            if len(gathered) >= size:
                return gathered
        return self.world.recall_pool(context.city)

    def recall_many(self, contexts: Sequence[RequestContext], state: ServingState,
                    size: int, rng_for: RngFor) -> List[np.ndarray]:
        # Gathers are memoised arrays, so identity groups requests by block.
        groups: Dict[int, tuple] = {}
        for slot, context in enumerate(contexts):
            gathered = self._gather(context, size)
            _, slots, points = groups.setdefault(id(gathered), (gathered, [], []))
            slots.append(slot)
            points.append((context.latitude, context.longitude))
        out: List[np.ndarray] = [_EMPTY] * len(contexts)
        for gathered, slots, points in groups.values():
            distance = self.world.distances_to_locations(gathered, np.array(points)[:, None, :])
            for slot, nearest in zip(slots, _top_k_by_score(gathered, -distance, size)):
                out[slot] = nearest
        return out


class EmbeddingANNChannel(RecallChannel):
    """Top-k similarity search over exported item embeddings.

    The "i2i" channel of a production recommender: the user's recent clicks
    are averaged into a query vector and matched against the L2-normalised
    item-embedding matrix of the request's city with one mat-vec per request
    (a batch GEMM rounds near-ties differently from the mat-vec a lone
    request gets, which would make a pool depend on its batch).  The
    embedding matrix comes from whichever trained registry model the caller
    exports (:meth:`repro.models.base.BaseCTRModel.export_item_embeddings`)
    and is refreshed on hot-swap by
    :meth:`repro.serving.recall.fusion.MultiChannelRecall.refresh_embeddings`.
    A cold-start user with no click history yields no candidates — the
    fusion layer backfills from the other channels.
    """

    name = "embedding_ann"

    def __init__(self, world: SyntheticWorld, item_embeddings: np.ndarray,
                 history_window: int = 10) -> None:
        if history_window <= 0:
            raise ValueError("history_window must be positive")
        self.world = world
        self.history_window = history_window
        self._vectors = self._normalize(item_embeddings)

    def _normalize(self, embeddings: np.ndarray) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """(item-ordered unit vectors, contiguous copy of each city's rows) as
        one tuple, so :meth:`refresh` swaps both with a single attribute
        assignment and a batch scoring meanwhile sees one version of both."""
        # float32 end to end: the export is float32 (the serving dtype) and
        # keeping it avoids a silent 2x memory blow-up of the ANN matrix.
        embeddings = np.asarray(embeddings, dtype=np.float32)
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        unit = (embeddings / np.maximum(norms, 1e-12)).astype(np.float32)
        return unit, {city: unit[self.world.recall_pool(city)]
                      for city in self.world.items_by_city}

    @property
    def item_embeddings(self) -> np.ndarray:
        """The L2-normalised embedding matrix, one row per item."""
        return self._vectors[0]

    @classmethod
    def from_model(cls, world: SyntheticWorld, encoder, model, state: ServingState,
                   history_window: int = 10) -> "EmbeddingANNChannel":
        """Build the channel from a registry model's exported item vectors."""
        table = encoder.item_static_table(state)
        return cls(world, model.export_item_embeddings(table), history_window=history_window)

    def refresh(self, item_embeddings: np.ndarray) -> None:
        """Swap in a freshly exported embedding matrix (model promotion)."""
        if item_embeddings.shape[0] != self.item_embeddings.shape[0]:
            raise ValueError(
                f"embedding matrix rows changed: "
                f"{self.item_embeddings.shape[0]} -> {item_embeddings.shape[0]}"
            )
        self._vectors = self._normalize(item_embeddings)

    def recall_many(self, contexts: Sequence[RequestContext], state: ServingState,
                    size: int, rng_for: RngFor) -> List[np.ndarray]:
        unit, by_city = self._vectors
        # Snapshot under the state lock so a concurrent feedback append
        # cannot land mid-read (cluster workers serve while clients feed back).
        with state.lock:
            histories = state.histories
            recents = [
                history.items[-self.history_window:] if history else None
                for history in (histories.get(context.user_index) for context in contexts)
            ]
        out: List[np.ndarray] = []
        for context, recent in zip(contexts, recents):
            if recent:
                query = unit[recent].mean(axis=0)
                norm = np.linalg.norm(query)
                if norm >= 1e-12:
                    scores = by_city[context.city] @ (query / norm)
                    pool = self.world.recall_pool(context.city)
                    out.append(_top_k_by_score(pool, scores, size))
                    continue
            out.append(_EMPTY)
        return out


class PopularityChannel(RecallChannel):
    """What everyone here is clicking right now.

    Ranks the city pool by live click counters — the overall count plus the
    count within the request's time period, so breakfast traffic surfaces
    breakfast shops — with a small static quality prior as the cold-start
    tie-breaker.  Counters come from :class:`ServingState` (seeded from the
    offline log, updated by ``record_clicks``), so the channel adapts as
    traffic shifts without ever touching ground-truth world internals.  The
    ranking depends on (city, period) only, so a batch ranks each distinct
    pair once and its requests share the array.
    """

    name = "popularity"

    def __init__(self, world: SyntheticWorld, period_weight: float = 1.0,
                 quality_weight: float = 0.5) -> None:
        self.world = world
        self.period_weight = period_weight
        self.quality_weight = quality_weight

    def recall_many(self, contexts: Sequence[RequestContext], state: ServingState,
                    size: int, rng_for: RngFor) -> List[np.ndarray]:
        ranked: Dict[Tuple[int, int], np.ndarray] = {}
        out: List[np.ndarray] = []
        for context in contexts:
            key = (context.city, context.time_period)
            top = ranked.get(key)
            if top is None:
                pool = self.world.recall_pool(context.city)
                scores = (
                    np.log1p(state.item_clicks[pool])
                    + self.period_weight
                    * np.log1p(state.item_period_clicks[pool, context.time_period])
                    + self.quality_weight * self.world.item_quality[pool]
                )
                top = ranked[key] = _top_k_by_score(pool, scores, size)
            out.append(top)
        return out


class UserHistoryChannel(RecallChannel):
    """Expand the user's recent shops and categories into candidates.

    Two tiers, mirroring a production u2i channel: first the shops the user
    actually clicked recently (re-order/revisit traffic dominates OFOS), then
    same-city items from the user's recency-weighted favourite categories,
    each category's slice ranked by live popularity — once per (city,
    category) a batch touches.  A user with no history contributes nothing
    and the fusion layer backfills.
    """

    name = "user_history"

    def __init__(self, world: SyntheticWorld, history_window: int = 20,
                 revisit_share: float = 0.3, recency_decay: float = 0.9) -> None:
        if not 0.0 <= revisit_share <= 1.0:
            raise ValueError("revisit_share must be in [0, 1]")
        self.world = world
        self.history_window = history_window
        self.revisit_share = revisit_share
        self.recency_decay = recency_decay

    def recall_many(self, contexts: Sequence[RequestContext], state: ServingState,
                    size: int, rng_for: RngFor) -> List[np.ndarray]:
        window = self.history_window
        # Snapshot both parallel lists under the state lock: a concurrent
        # feedback append between the two slices would misalign item and
        # category windows (and the recency weights computed from them).
        with state.lock:
            histories = state.histories
            windows = [
                (history.items[-window:], history.categories[-window:]) if history else None
                for history in (histories.get(context.user_index) for context in contexts)
            ]
        item_city = self.world.item_city
        revisit_budget = int(round(self.revisit_share * size))
        slices: Dict[Tuple[int, int], Dict[int, None]] = {}
        out: List[np.ndarray] = []
        for context, snapshot in zip(contexts, windows):
            if snapshot is None:
                out.append(_EMPTY)
                continue
            items, categories = snapshot
            city = int(context.city)
            # Tier 1 — revisit the user's own recent shops (latest first),
            # but only those in the request's city.  The dict is the ordered
            # seen-set: its first ``size`` keys are the candidate list.
            chosen: Dict[int, None] = {}
            for item in reversed(items):
                if len(chosen) >= revisit_budget:
                    break
                if item_city[item] == city:
                    chosen[item] = None
            # Tier 2 — expand favourite categories into same-city items, most
            # loved category first (recency weights: the latest event gets
            # weight 1, older ones decay), each slice ranked by live popularity.
            weights = self.recency_decay ** np.arange(len(items) - 1, -1, -1, dtype=np.float64)
            category_weight: Dict[int, float] = {}
            for category, weight in zip(categories, weights.tolist()):
                category_weight[category] = category_weight.get(category, 0.0) + weight
            for category in sorted(category_weight, key=lambda c: (-category_weight[c], c)):
                if len(chosen) >= size:
                    break
                ranked = slices.get((city, category))
                if ranked is None:
                    ranked = slices[city, category] = self._ranked_slice(
                        city, category, state, size)
                chosen.update(ranked)
            out.append(np.fromiter(chosen, dtype=np.int64, count=len(chosen))[:size])
        return out

    def _ranked_slice(self, city: int, category: int, state: ServingState,
                      size: int) -> Dict[int, None]:
        """The (city, category) slice's top ``size`` items by live popularity,
        as an ordered key set ready to merge into a candidate dict."""
        pool = self.world.items_by_city_category.get((city, category))
        if pool is None or len(pool) == 0:
            return {}
        popularity = np.log1p(state.item_clicks[pool]) + self.world.item_quality[pool]
        return dict.fromkeys(_top_k_by_score(pool, popularity, size).tolist())
