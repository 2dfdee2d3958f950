"""Recall contract: one batched entry point, request-keyed randomness.

The paper's Fig. 1 pipeline begins with a Recall stage that fans a request
out over several retrieval scenarios before the BASM ranker sees anything.
Both seams here — :class:`RecallStrategy` (what the pipeline calls) and
:class:`RecallChannel` (one retrieval scenario) — are *batch* contracts:
``recall_many`` takes a micro-batch and is the only implementation, and
``recall`` is the batch of one, defined once on each base class.  A batch
shares work within one call (a ranking per distinct city, one lock
acquisition) and keeps nothing afterwards, so a request's pool never depends
on which other requests rode along with it.

Randomness is *derived from the request*, never drawn from shared mutable
state: a channel that wants to randomise asks ``rng_for(context)`` for the
generator :func:`request_rng` keys to that request, so recalling the same
request twice — alone, or anywhere in any batch — draws the same stream.
The generator is built only when asked for; the shipped deterministic
channels never ask.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ...data.world import RequestContext
from ..state import ServingState

__all__ = ["RecallChannel", "RecallStrategy", "request_rng"]

#: ``context -> Generator``: the lazily built per-request stream of one channel.
RngFor = Callable[[RequestContext], np.random.Generator]


def resolve_pool_size(pool_size: Optional[int], configured: int) -> int:
    """``None`` means the strategy's configured size; anything else must be positive."""
    if pool_size is None:
        return configured
    if pool_size <= 0:
        raise ValueError("pool_size must be positive when given")
    return int(pool_size)


@runtime_checkable
class RecallStrategy(Protocol):
    """The recall seam every serving consumer depends on.

    A strategy turns a micro-batch of requests into one ranked candidate pool
    each, in request order:
    :class:`repro.serving.recall.fusion.MultiChannelRecall` (the fused
    multi-channel stage), the seed proximity sampler
    :class:`repro.serving.recall.channels.LocationBasedRecall`, and any
    user-supplied retrieval implement ``recall_many`` and inherit ``recall``.
    ``pool_size=None`` means "use the strategy's own configured pool size".
    Implementations must be pure with respect to (request, serving state) —
    randomness comes from :func:`request_rng`, never from shared mutable
    generators — so ``recall_many(batch)[i]`` equals ``recall(batch[i])``
    whatever else is in the batch.
    """

    def recall_many(self, contexts: Sequence[RequestContext],
                    pool_size: Optional[int] = None) -> List[np.ndarray]: ...

    def recall(self, context: RequestContext, pool_size: Optional[int] = None) -> np.ndarray:
        """The batch of one."""
        return self.recall_many([context], pool_size)[0]


def request_rng(seed: int, context: RequestContext, salt: str = "") -> np.random.Generator:
    """A generator deterministically keyed by (seed, salt, request identity).

    The key covers everything that identifies the request — user, day, hour
    and geohash — so two distinct requests decorrelate while replays of the
    same request reproduce bit-identical draws.  ``salt`` keeps channels
    independent: adding or removing one channel never shifts another's
    stream.
    """
    key = f"{salt}:{context.user_index}:{context.day}:{context.hour}:{context.geohash}"
    digest = zlib.crc32(key.encode("utf-8"))
    return np.random.default_rng((int(seed) & 0xFFFFFFFF, digest))


class RecallChannel:
    """One retrieval scenario: (requests, state) -> ranked candidates each.

    ``recall_many`` returns, per request and in request order, up to ``size``
    item indices ordered best-first.  Implementations must be pure with
    respect to (request, state, size) — any randomisation goes through
    ``rng_for(context)`` — and a list may be shorter than ``size`` (or empty,
    e.g. a history channel facing a cold-start user); the fusion layer
    backfills from the other channels.  Returned arrays may be shared between
    requests of one call and must be treated as read-only.
    """

    #: Stable identifier; fusion quotas and the canonical blend order key on it.
    name = "channel"

    def recall_many(self, contexts: Sequence[RequestContext], state: ServingState,
                    size: int, rng_for: RngFor) -> List[np.ndarray]:
        raise NotImplementedError

    def recall(self, context: RequestContext, state: ServingState, size: int,
               rng: np.random.Generator) -> np.ndarray:
        """The batch of one; ``rng`` is the request's stream for this channel."""
        return self.recall_many([context], state, size, lambda _: rng)[0]
