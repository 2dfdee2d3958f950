"""Seeded synthetic traffic: request bursts and ground-truth-labelled slices.

Clock-free input helpers shared by tests, paper benches and examples.
:func:`sample_burst_contexts` draws a deterministic burst of request
contexts from the synthetic world; :func:`generate_burst` additionally
recalls each request's candidates, so every engine under comparison scores
the exact same work.  :func:`sample_labeled_slice` / :func:`auc_on_slice`
provide fresh traffic whose click labels are drawn from the world's click
model, used by the lifecycle drift benchmark to compare a frozen model
against an incrementally refreshed one on post-drift traffic.

Nothing here reads a clock: performance is measured by ``bench/run.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.world import RequestContext, SyntheticWorld
from ..metrics.auc import auc
from ..models.base import BaseCTRModel
from .encoder import OnlineRequestEncoder
from .ranker import Ranker, ScoreRequest
from .recall import LocationBasedRecall
from .recall.base import RecallStrategy
from .state import ServingState

__all__ = [
    "sample_burst_contexts",
    "generate_burst",
    "sample_labeled_slice",
    "auc_on_slice",
]


def sample_burst_contexts(
    world: SyntheticWorld, num_requests: int, day: int = 100, seed: int = 11
) -> List[RequestContext]:
    """A deterministic burst of request contexts (same seed, same burst)."""
    rng = np.random.default_rng(seed)
    return [world.sample_request_context(day, rng) for _ in range(num_requests)]


def generate_burst(
    world: SyntheticWorld,
    num_requests: int,
    recall_size: int = 30,
    day: int = 100,
    seed: int = 11,
    recall: Optional[RecallStrategy] = None,
) -> List[ScoreRequest]:
    """Sample a burst of concurrent requests with their recalled candidates.

    ``recall`` is any :class:`RecallStrategy` — by default the seed
    proximity sampler, or a :class:`repro.serving.recall.MultiChannelRecall`
    to replay the burst through the fused multi-channel stage — and recalls
    the burst in one ``recall_many`` call.
    """
    if recall is None:
        recall = LocationBasedRecall(world, pool_size=recall_size, seed=seed + 1)
    contexts = sample_burst_contexts(world, num_requests, day=day, seed=seed)
    return [
        ScoreRequest(context, pool)
        for context, pool in zip(contexts, recall.recall_many(contexts, recall_size))
    ]


def sample_labeled_slice(
    world: SyntheticWorld,
    num_requests: int,
    recall_size: int = 30,
    day: int = 100,
    seed: int = 211,
) -> Tuple[List[ScoreRequest], List[np.ndarray]]:
    """Sample fresh traffic and draw its click labels from the world.

    The labels come straight from the ground-truth click model *as it stands
    now* — after a :meth:`SyntheticWorld.drift_preferences` call they follow
    the drifted distribution — with no position bias applied, so the slice is
    a counterfactual "what would this user click among the recalled
    candidates" test set shared by every model under comparison.
    """
    rng = np.random.default_rng(seed)
    requests = generate_burst(world, num_requests, recall_size=recall_size,
                              day=day, seed=seed + 1)
    labels: List[np.ndarray] = []
    for request in requests:
        context = request.context
        probabilities = world.click_probabilities(
            context.user_index,
            request.candidates,
            context.hour,
            context.city,
            (context.latitude, context.longitude),
            rng=rng,
        )
        labels.append((rng.random(len(request)) < probabilities).astype(np.float32))
    return requests, labels


def auc_on_slice(
    model: BaseCTRModel,
    encoder: OnlineRequestEncoder,
    state: ServingState,
    requests: Sequence[ScoreRequest],
    labels: Sequence[np.ndarray],
) -> float:
    """AUC of ``model`` on a labelled slice, scored by the batched engine."""
    scores = Ranker(model, encoder).score_many(list(requests), state)
    return auc(np.concatenate(list(labels)), np.concatenate(scores))
