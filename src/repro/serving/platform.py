"""End-to-end serving platform (the paper's Fig. 13 deployment diagram).

``PersonalizationPlatform`` plays the role of TPP — but since the pipeline
redesign it is a *thin facade* over a :class:`repro.serving.pipeline.ServingPipeline`:
the staged flow (recall → feature assembly → real-time prediction → exposure)
lives in the pipeline's stage graph, and the platform only keeps the
backward-compatible surface (``serve``/``serve_many``/``feedback``/
``swap_model``) plus the model-lifecycle wiring.  Output is bitwise-identical
to the pre-pipeline monolith — pinned by ``tests/serving/test_pipeline.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..data.world import RequestContext, SyntheticWorld
from ..models.base import BaseCTRModel
from .encoder import OnlineRequestEncoder
from .pipeline import PipelineConfig, ServeResponse, StageMetrics, build_pipeline
from .ranker import Ranker
from .recall import MultiChannelRecall
from .recall.base import RecallStrategy
from .state import ServingState

__all__ = ["ServedImpression", "PersonalizationPlatform"]


@dataclass
class ServedImpression:
    """What one serving round returned: items in display order with scores."""

    context: RequestContext
    items: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return int(len(self.items))


class PersonalizationPlatform:
    """TPP analog: a backward-compatible facade over the serving pipeline."""

    def __init__(
        self,
        world: SyntheticWorld,
        model: BaseCTRModel,
        encoder: OnlineRequestEncoder,
        state: ServingState,
        recall_size: int = 30,
        exposure_size: int = 10,
        seed: int = 3,
        recall: Optional[RecallStrategy] = None,
    ) -> None:
        self.world = world
        self.state = state
        self.encoder = encoder
        self.ranker = Ranker(model, encoder)
        #: The Recall stage's strategy.  Defaults to the fused multi-channel
        #: subsystem (geo grid + popularity + user history + embedding-ANN
        #: over the serving model's item vectors); pass ``recall=`` — e.g.
        #: the seed :class:`repro.serving.recall.LocationBasedRecall` — to
        #: pin a different retrieval strategy (benchmarks reproducing the
        #: paper's location-based-service setup do this).
        self.recall = recall if recall is not None else MultiChannelRecall.build(
            world, state, encoder=encoder, model=model,
            pool_size=recall_size, seed=seed,
        )
        #: The stage graph every request flows through; consumers that want
        #: telemetry, rerank rules or scenario variants use it directly.
        self.pipeline = build_pipeline(
            world, model, encoder, state,
            PipelineConfig(scenario="platform", exposure_size=exposure_size),
            recall=self.recall, ranker=self.ranker,
        )
        self._rank_stage = self.pipeline.stage("rank")

    # ------------------------------------------------------------------ #
    @property
    def exposure_size(self) -> int:
        return self._rank_stage.exposure_size

    @exposure_size.setter
    def exposure_size(self, value: int) -> None:
        self._rank_stage.exposure_size = value

    @property
    def metrics(self) -> StageMetrics:
        """Per-stage latency / candidate-count telemetry of the pipeline."""
        return self.pipeline.metrics

    # ------------------------------------------------------------------ #
    def swap_model(self, model: BaseCTRModel) -> BaseCTRModel:
        """Hot-swap the ranking model without dropping the feature cache.

        The lifecycle promotion path: a refreshed checkpoint (usually loaded
        from a :class:`repro.models.store.ModelStore`) replaces the serving
        model between requests.  The new model must speak the same feature
        schema as the platform's encoder — checked by fingerprint, so an
        incompatible global-id layout fails here rather than mis-scoring
        traffic.  Volatile cache entries (behaviour snapshots) are dropped as
        a conservative promotion policy — see
        :meth:`repro.serving.state.FeatureCache.invalidate_volatile` — while
        pinned static id tables survive the swap untouched.  Returns the
        previous model so callers can roll back.

        When the recall stage carries an embedding-ANN channel, its item
        vectors are re-exported from the incoming model so retrieval and
        ranking stay consistent after the promotion (the synchronous analog
        of a production ANN-index rebuild).
        """
        return self.pipeline.swap_model(model)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _impression(response: ServeResponse) -> ServedImpression:
        return ServedImpression(
            context=response.context, items=response.items, scores=response.scores
        )

    def serve(self, context: RequestContext) -> ServedImpression:
        """Handle one request end-to-end and return the exposed items."""
        return self._impression(self.pipeline.run(context))

    def serve_many(self, contexts: List[RequestContext]) -> List[ServedImpression]:
        """Handle a burst of concurrent requests through the batched engine.

        Same stage graph as :meth:`serve` — the rank stage packs all requests
        into micro-batches so the model runs one forward pass per batch, and
        per-request deterministic recall keeps the pools identical to what
        sequential :meth:`serve` calls would produce.
        """
        return [self._impression(r) for r in self.pipeline.run_many(contexts)]

    def feedback(self, impression: ServedImpression, clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Report observed clicks back so user/item state stays current.

        Routed through the pipeline's :class:`ExposureLogStage`, which
        reaches :meth:`repro.serving.state.ServingState.record_clicks` — and
        therefore any attached :class:`repro.serving.replay.ReplayBuffer` —
        exactly as the pre-pipeline direct call did.
        """
        self.pipeline.feedback(impression, clicks, rng=rng)
