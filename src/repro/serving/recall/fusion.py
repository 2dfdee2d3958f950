"""Channel fusion: blend per-channel candidate lists into one pool.

:class:`RecallFusion` is the pure merge policy — dedup, equal-quota blend,
truncate — and :class:`MultiChannelRecall` is the serving-facing recall
strategy that fans a micro-batch out over its channels (one ``recall_many``
per channel), fuses each request's lists and guarantees a full pool.  The
quota split is computed once per batch; nothing else is shared between
requests and nothing survives the call.  The fused pool is a *set* for the
ranker: order carries no exposure meaning (display order is decided by
ranking scores), but it is still deterministic for reproducibility.

Fusion invariants (pinned by ``tests/serving/test_recall_channels.py``):

* no duplicate items in the fused pool;
* with every channel supplying enough candidates, each channel contributes
  exactly its quota;
* the result is invariant under permutation of the channel list — channels
  are always blended in canonical (name-sorted) order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ...data.world import RequestContext, SyntheticWorld
from ..state import ServingState
from .base import RecallChannel, RecallStrategy, request_rng, resolve_pool_size
from .channels import EmbeddingANNChannel, GeoGridChannel, PopularityChannel, UserHistoryChannel

__all__ = ["RecallFusion", "MultiChannelRecall"]


class RecallFusion:
    """Deduplicate, quota-blend and truncate channel outputs.

    Pool slots are split equally over the channels (:meth:`quota_counts`);
    each channel first fills its own slots with its best unseen items, then
    unused capacity is backfilled round-robin from channels that still have
    candidates, so a short channel (cold-start user, sparse grid cell) never
    shrinks the pool while others have material.
    """

    @staticmethod
    def quota_counts(names: Sequence[str], pool_size: int) -> Dict[str, int]:
        """Equal split of ``pool_size`` slots over ``names``; the remainder
        goes one slot each to the first names in sorted order."""
        names = sorted(names)
        share, remainder = divmod(pool_size, len(names))
        return {name: share + (index < remainder) for index, name in enumerate(names)}

    def fuse(self, channel_candidates: Dict[str, np.ndarray], pool_size: int) -> np.ndarray:
        """Blend one request's per-channel ranked arrays (the batch of one)."""
        lists = {name: [found] for name, found in channel_candidates.items()}
        return self.fuse_many(lists, pool_size)[0]

    def fuse_many(self, channel_candidates: Dict[str, Sequence[np.ndarray]],
                  pool_size: int) -> List[np.ndarray]:
        """Blend each request's per-channel ranked arrays into one deduplicated pool.

        ``channel_candidates[name][i]`` is channel ``name``'s list for request
        ``i``; requests are fused independently under one shared quota split.
        """
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        names = sorted(channel_candidates)
        quota = self.quota_counts(names, pool_size)
        budgets = [quota[name] for name in names]
        fused_pools: List[np.ndarray] = []
        for found in zip(*(channel_candidates[name] for name in names)):
            fused: Dict[int, None] = {}  # insertion-ordered seen-set: it is the pool
            # Phase 1: every channel fills its quota with its best unseen items.
            queues = [iter(ranked.tolist()) for ranked in found]
            live = [queue for queue, budget in zip(queues, budgets)
                    if _take(queue, budget, fused, pool_size)]
            # Phase 2: round-robin backfill from whoever still has candidates.
            while live and len(fused) < pool_size:
                live = [queue for queue in live if _take(queue, 1, fused, pool_size)]
            fused_pools.append(np.fromiter(fused, dtype=np.int64, count=len(fused)))
        return fused_pools


def _take(queue: Iterator[int], budget: int, fused: Dict[int, None], pool_size: int) -> bool:
    """Move the next ``budget`` unseen items of ``queue`` into ``fused``, never
    past ``pool_size``; False once the queue has run dry."""
    budget = min(budget, pool_size - len(fused))
    if budget <= 0:
        return True
    for item in queue:
        if item not in fused:
            fused[item] = None
            budget -= 1
            if not budget:
                return True
    return False


class MultiChannelRecall(RecallStrategy):
    """The multi-channel Recall stage: fan out, fuse, guarantee a full pool.

    Drop-in replacement for the seed proximity sampler behind the same
    :class:`RecallStrategy` interface the pipeline's recall stage, the A/B
    simulator and the burst generator consume: ``recall_many`` makes one call
    per channel for the whole micro-batch and ``recall`` is the batch of one.
    Each channel can ask for its own :func:`request_rng` stream per request, so
    pools are a pure function of (request, state) — the property behind the
    batched/sequential serving parity guarantee.  When even fusion plus
    backfill cannot fill the pool (a city with fewer items than
    ``pool_size``), the whole city pool is returned, matching the seed
    sampler's semantics.
    """

    def __init__(self, world: SyntheticWorld, state: ServingState,
                 channels: Sequence[RecallChannel], pool_size: int = 30,
                 seed: int = 5) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        if not channels:
            raise ValueError("at least one recall channel is required")
        names = [channel.name for channel in channels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate channel names: {names}")
        self.world = world
        self.state = state
        self.channels = list(channels)
        self.pool_size = pool_size
        self.fusion = RecallFusion()
        self.seed = seed

    @classmethod
    def build(cls, world: SyntheticWorld, state: ServingState, encoder=None, model=None,
              pool_size: int = 30, seed: int = 5) -> "MultiChannelRecall":
        """The default channel stack: geo grid, popularity, user history,
        plus embedding-ANN when a model (and its encoder) is available.

        The A/B simulator builds without a model on purpose — a shared
        recall stage must not embed one arm's model, or the "recall" would
        leak ranking signal into the control bucket.
        """
        channels: List[RecallChannel] = [
            GeoGridChannel(world), PopularityChannel(world), UserHistoryChannel(world)]
        if model is not None:
            if encoder is None:
                raise ValueError("building an embedding channel requires the encoder")
            channels.append(EmbeddingANNChannel.from_model(world, encoder, model, state))
        return cls(world, state, channels, pool_size=pool_size, seed=seed)

    def channel_results(self, contexts: Sequence[RequestContext],
                        pool_size: Optional[int] = None) -> Dict[str, List[np.ndarray]]:
        """Per-channel ranked candidates, one list per request (also exposed
        for attribution/debugging)."""
        size = resolve_pool_size(pool_size, self.pool_size)
        return {
            channel.name: channel.recall_many(
                contexts, self.state, size,
                lambda context, salt=channel.name: request_rng(self.seed, context, salt),
            )
            for channel in self.channels
        }

    def recall_many(self, contexts: Sequence[RequestContext],
                    pool_size: Optional[int] = None) -> List[np.ndarray]:
        """Fused candidate pool (up to ``pool_size`` items) for each request."""
        size = resolve_pool_size(pool_size, self.pool_size)
        contexts = list(contexts)
        pools = self.fusion.fuse_many(self.channel_results(contexts, size), size)
        for slot, fused in enumerate(pools):
            if len(fused) < size:
                # Sparse corner (tiny city, cold user everywhere): top up from
                # the city pool in deterministic item order.
                missing = np.setdiff1d(self.world.recall_pool(contexts[slot].city), fused)
                pools[slot] = np.concatenate([fused, missing[: size - len(fused)]])
        return pools

    def refresh_embeddings(self, model, encoder) -> bool:
        """Re-export ANN vectors after a model hot-swap; True if refreshed.

        Production ANN indexes rebuild asynchronously after a promotion; here
        the rebuild is synchronous and cheap (one embedding gather), keeping
        the recall stage consistent with the freshly served model.
        """
        refreshed = False
        for channel in self.channels:
            if isinstance(channel, EmbeddingANNChannel):
                table = encoder.item_static_table(self.state)
                channel.refresh(model.export_item_embeddings(table))
                refreshed = True
        return refreshed
