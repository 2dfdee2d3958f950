"""Composable serving pipeline: the orchestration layer of the paper's Fig. 13.

The deployment the paper describes is a *staged* flow — Recall → feature
assembly → Real-Time Prediction → exposure — adapted per spatiotemporal
scenario.  Earlier revisions hard-coded that flow inside
:class:`repro.serving.platform.PersonalizationPlatform`; this module makes it
first-class so every consumer (the platform facade, the A/B simulator, the
load generator, examples) runs the *same* stage graph and anything can be
inserted, measured, or varied per scenario:

* :class:`ServeRequest` / :class:`ServeResponse` — typed envelopes carrying a
  request id and scenario tag through the stages;
* :class:`PipelineStage` — the stage contract (batch-first: a stage processes
  a list of envelopes, so the sequential path is just a batch of one and the
  two paths cannot drift apart);
* concrete stages — :class:`RecallStage`, :class:`RankStage`,
  :class:`RerankStage` (pluggable business rules, e.g.
  :class:`CategoryDiversityRule`), :class:`ExposureLogStage` (the
  feedback/replay hookup);
* :class:`ServingPipeline` — executes the stage graph for one request
  (``run``) or a concurrent burst (``run_many``) while recording per-stage
  telemetry (latency, candidate counts in/out) in a :class:`StageMetrics`
  accumulator;
* :class:`PipelineConfig` + :func:`build_pipeline` — config-driven
  construction of the canonical recall → rank → rerank → exposure graph;
* :class:`ScenarioRouter` — dispatches requests to per-scenario pipeline
  variants (city-tier or daypart-specific recall quotas / exposure sizes),
  the serving-side analog of the paper's scenario adaptation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from ..data.world import RequestContext, SyntheticWorld
from ..models.base import BaseCTRModel
from .encoder import OnlineRequestEncoder
from .ranker import Ranker, ScoreRequest, hot_swap
from .recall import MultiChannelRecall
from .recall.base import RecallStrategy
from .state import ServingState

__all__ = [
    "ServeRequest",
    "ServeResponse",
    "StageMetrics",
    "StageStats",
    "PipelineStage",
    "RecallStage",
    "RankStage",
    "RerankRule",
    "CategoryDiversityRule",
    "RerankStage",
    "ExposureLogStage",
    "ServingPipeline",
    "PipelineConfig",
    "build_pipeline",
    "ScenarioRouter",
]


# ---------------------------------------------------------------------- #
# envelopes
# ---------------------------------------------------------------------- #
@dataclass
class ServeRequest:
    """One serving request as the pipeline sees it.

    ``request_id`` is assigned by the pipeline when empty; ``scenario`` is the
    routing tag — empty means "unrouted" and lets a :class:`ScenarioRouter`
    classify the request from its context.
    """

    context: RequestContext
    request_id: str = ""
    scenario: str = ""


@dataclass
class ServeResponse:
    """The envelope stages fill in as a request flows through the graph.

    ``candidates`` is the recalled pool (set by :class:`RecallStage`),
    ``items``/``scores`` the exposed list in display order (set by
    :class:`RankStage`, possibly reordered by :class:`RerankStage`).
    """

    request: ServeRequest
    candidates: Optional[np.ndarray] = None
    items: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None

    @property
    def context(self) -> RequestContext:
        return self.request.context

    @property
    def scenario(self) -> str:
        return self.request.scenario

    def __len__(self) -> int:
        return 0 if self.items is None else int(len(self.items))


def _payload_size(response: ServeResponse) -> int:
    """Candidate-count telemetry: exposed items once ranked, else the pool."""
    if response.items is not None:
        return int(len(response.items))
    if response.candidates is not None:
        return int(len(response.candidates))
    return 0


# ---------------------------------------------------------------------- #
# telemetry
# ---------------------------------------------------------------------- #
@dataclass
class StageStats:
    """Accumulated telemetry of one stage.

    Counters (``calls``/``requests``/``items_*``/``seconds``) are exact
    lifetime totals; ``latencies`` is a bounded window of the most recent
    per-call wall-clock samples, so an always-on pipeline serving millions
    of requests holds O(window) telemetry, not O(traffic).
    """

    calls: int = 0
    requests: int = 0
    items_in: int = 0
    items_out: int = 0
    seconds: float = 0.0
    #: Most recent per-call latencies (seconds), bounded by the metrics window.
    latencies: Deque[float] = field(default_factory=deque)


class StageMetrics:
    """Per-stage latency and candidate-count accumulator.

    One instance can be shared across pipelines (e.g. every scenario variant
    of a router feeding one accumulator) — stages are keyed by name, and
    recording is append-only.  ``max_samples`` bounds the per-stage latency
    window the percentiles are computed over (totals stay exact).
    """

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._stages: Dict[str, StageStats] = {}

    def __len__(self) -> int:
        return len(self._stages)

    def record(self, stage: str, seconds: float, requests: int,
               items_in: int, items_out: int) -> None:
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = StageStats(
                latencies=deque(maxlen=self.max_samples)
            )
        stats.calls += 1
        stats.requests += int(requests)
        stats.items_in += int(items_in)
        stats.items_out += int(items_out)
        stats.seconds += float(seconds)
        stats.latencies.append(float(seconds))

    def stages(self) -> List[str]:
        """Stage names in first-recorded order."""
        return list(self._stages)

    # ------------------------------------------------------------------ #
    def merge(self, other: "StageMetrics") -> "StageMetrics":
        """Fold another accumulator into this one, stage by stage.

        The cluster aggregation primitive: each worker records into its own
        accumulator (no cross-thread contention on the hot path) and the
        frontend merges them into one cluster-wide report.  Counter totals
        add exactly; the bounded latency windows concatenate, keeping the
        newest ``max_samples`` samples per stage.  ``other`` is not modified.

        Merging while ``other``'s worker is still serving is safe (the
        deque transfer is atomic under the GIL) but yields an approximate
        snapshot: counters recorded mid-merge may land in either report.
        Merge after a burst resolves for exact totals.
        """
        for name in other.stages():
            theirs = other.stats(name)
            stats = self._stages.get(name)
            if stats is None:
                stats = self._stages[name] = StageStats(
                    latencies=deque(maxlen=self.max_samples)
                )
            stats.calls += theirs.calls
            stats.requests += theirs.requests
            stats.items_in += theirs.items_in
            stats.items_out += theirs.items_out
            stats.seconds += theirs.seconds
            stats.latencies.extend(theirs.latencies)
        return self

    @classmethod
    def merged(cls, accumulators: Sequence["StageMetrics"],
               max_samples: int = 4096) -> "StageMetrics":
        """One cluster-wide accumulator combining per-worker ones."""
        combined = cls(max_samples=max_samples)
        for accumulator in accumulators:
            combined.merge(accumulator)
        return combined

    def stats(self, stage: str) -> StageStats:
        return self._stages[stage]

    def reset(self) -> None:
        self._stages.clear()

    # ------------------------------------------------------------------ #
    def latency_percentiles(self, stage: str,
                            percentiles: Sequence[float] = (50, 95, 99)) -> Dict[str, float]:
        """Per-call latency percentiles (seconds) for one stage, e.g. ``p50``."""
        latencies = self._stages[stage].latencies
        if not latencies:
            return {f"p{p:g}": 0.0 for p in percentiles}
        values = np.percentile(np.asarray(latencies, dtype=np.float64), list(percentiles))
        return {f"p{p:g}": float(v) for p, v in zip(percentiles, values)}

    def rows(self) -> List[Dict[str, object]]:
        """One table row per stage (latencies in milliseconds)."""
        rows: List[Dict[str, object]] = []
        for name in self.stages():
            stats = self._stages[name]
            pct = self.latency_percentiles(name)
            rows.append(
                {
                    "Stage": name,
                    "Calls": stats.calls,
                    "Requests": stats.requests,
                    "Items in": stats.items_in,
                    "Items out": stats.items_out,
                    "p50 ms": round(1e3 * pct["p50"], 3),
                    "p95 ms": round(1e3 * pct["p95"], 3),
                    "p99 ms": round(1e3 * pct["p99"], 3),
                }
            )
        return rows

    def summary(self) -> str:
        parts = []
        for name in self.stages():
            stats = self._stages[name]
            pct = self.latency_percentiles(name)
            parts.append(
                f"{name}: {stats.calls} calls, {stats.requests} requests, "
                f"{stats.items_in}->{stats.items_out} items, "
                f"p50 {1e3 * pct['p50']:.2f}ms / p95 {1e3 * pct['p95']:.2f}ms"
            )
        return "; ".join(parts) if parts else "(no stage telemetry recorded)"


# ---------------------------------------------------------------------- #
# stage contract and concrete stages
# ---------------------------------------------------------------------- #
class PipelineStage:
    """One step of the serving graph: transform a batch of envelopes in place.

    The contract is batch-first on purpose: ``ServingPipeline.run`` wraps a
    single request into a one-element batch, so the sequential and the
    micro-batched path execute *identical* stage code — the property behind
    the platform's serve/serve_many bit-parity guarantee.  Stages must
    preserve the batch's length and order, and must not mutate ``state``
    during serving (feedback is the separate :meth:`ExposureLogStage.feedback`
    path).
    """

    #: Stable identifier; telemetry and pipeline validation key on it.
    name = "stage"

    def process(self, batch: Sequence[ServeResponse], state: ServingState) -> None:
        raise NotImplementedError


class RecallStage(PipelineStage):
    """Fill ``candidates`` from a :class:`RecallStrategy`: one ``recall_many``
    call for the whole micro-batch.

    With ``pool_size=None`` the strategy's own configured pool size applies
    (exactly what the pre-pipeline platform did); a scenario variant can
    override it to give, say, dense city tiers a larger pool than sparse
    ones without duplicating the strategy.
    """

    name = "recall"

    def __init__(self, strategy: RecallStrategy, pool_size: Optional[int] = None) -> None:
        if pool_size is not None and pool_size <= 0:
            raise ValueError("pool_size must be positive when given")
        self.strategy = strategy
        self.pool_size = pool_size

    def process(self, batch: Sequence[ServeResponse], state: ServingState) -> None:
        pools = self.strategy.recall_many(
            [response.context for response in batch], self.pool_size
        )
        for response, pool in zip(batch, pools):
            response.candidates = pool


class RankStage(PipelineStage):
    """Score every envelope's pool with the ranker and keep the top-k.

    The whole batch goes into one ``rank_many`` call, so the micro-batched
    RTP engine packs all candidate rows together — one forward pass per
    micro-batch no matter how the requests arrived.
    """

    name = "rank"

    def __init__(self, ranker: Ranker, exposure_size: int) -> None:
        if exposure_size <= 0:
            raise ValueError("exposure_size must be positive")
        self.ranker = ranker
        self.exposure_size = exposure_size

    def process(self, batch: Sequence[ServeResponse], state: ServingState) -> None:
        requests = [
            ScoreRequest(response.context, response.candidates) for response in batch
        ]
        ranked = self.ranker.rank_many(requests, state, self.exposure_size)
        for response, result in zip(batch, ranked):
            response.items = result.items
            response.scores = result.scores


class RerankRule:
    """One pluggable business rule applied by :class:`RerankStage`.

    Rules receive the exposed list in display order and return the adjusted
    ``(items, scores)`` pair.  They must be pure (no state mutation) and
    deterministic — re-running a rule on its own output is a no-op.
    """

    name = "rule"

    def apply(self, items: np.ndarray, scores: np.ndarray,
              context: RequestContext, state: ServingState) -> tuple:
        raise NotImplementedError


class CategoryDiversityRule(RerankRule):
    """Cap how many items of one category appear in the head of the list.

    A classic exposure rule: the score-ordered list is scanned greedily and
    items exceeding ``max_per_category`` are demoted behind the compliant
    ones (``overflow="demote"``, keeps the list length) or removed outright
    (``overflow="drop"``).  Relative order inside each group is preserved,
    so the rule is stable and idempotent.
    """

    name = "category_diversity"

    def __init__(self, world: SyntheticWorld, max_per_category: int,
                 overflow: str = "demote") -> None:
        if max_per_category <= 0:
            raise ValueError("max_per_category must be positive")
        if overflow not in ("demote", "drop"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.world = world
        self.max_per_category = max_per_category
        self.overflow = overflow

    def apply(self, items: np.ndarray, scores: np.ndarray,
              context: RequestContext, state: ServingState) -> tuple:
        counts: Dict[int, int] = {}
        kept: List[int] = []
        overflow: List[int] = []
        for position, item in enumerate(items):
            category = int(self.world.item_category[int(item)])
            counts[category] = counts.get(category, 0) + 1
            (kept if counts[category] <= self.max_per_category else overflow).append(position)
        if not overflow:
            return items, scores
        order = kept + overflow if self.overflow == "demote" else kept
        return items[order], scores[order]


class RerankStage(PipelineStage):
    """Apply business rules to the exposed list, after model ranking.

    This is the insertion point the monolithic platform never had: exposure
    policies (diversity caps, boosts, compliance filters) plug in here
    without touching recall or the scoring engine.  With no rules the stage
    is an exact pass-through.
    """

    name = "rerank"

    def __init__(self, rules: Sequence[RerankRule] = ()) -> None:
        self.rules = list(rules)

    def process(self, batch: Sequence[ServeResponse], state: ServingState) -> None:
        if not self.rules:
            return
        for response in batch:
            items, scores = response.items, response.scores
            for rule in self.rules:
                items, scores = rule.apply(items, scores, response.context, state)
            response.items, response.scores = items, scores


class ExposureLogStage(PipelineStage):
    """Book exposures at serve time and route click feedback into the state.

    During ``process`` the stage only counts what was exposed (telemetry —
    serving must not mutate state).  The write half is :meth:`feedback`:
    clicks reported for a served response flow through
    :meth:`repro.serving.state.ServingState.record_clicks`, which logs the
    exposure into an attached :class:`repro.serving.replay.ReplayBuffer`
    *before* mutating the user history — the pipeline's hookup to the
    continuous-refresh lifecycle.
    """

    name = "exposure"

    def __init__(self, order_probability: float = 0.3) -> None:
        self.order_probability = order_probability
        self.exposures_logged = 0
        self.feedbacks_logged = 0
        self.clicks_logged = 0

    def process(self, batch: Sequence[ServeResponse], state: ServingState) -> None:
        self.exposures_logged += int(sum(len(response) for response in batch))

    def feedback(self, state: ServingState, response: "ServeResponse | object",
                 clicks: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Apply click feedback for one served response (or impression)."""
        clicks = np.asarray(clicks)
        self.feedbacks_logged += 1
        self.clicks_logged += int((clicks > 0).sum())
        state.record_clicks(
            response.context, response.items, clicks,
            order_probability=self.order_probability, rng=rng,
        )


# ---------------------------------------------------------------------- #
# the pipeline executor
# ---------------------------------------------------------------------- #
class ServingPipeline:
    """Execute a stage graph for single requests and concurrent bursts alike.

    ``run`` is literally ``run_many`` on a batch of one — both paths share
    every line of stage code, which is what upgrades the engine-level
    bit-parity guarantee (batched scoring equals sequential scoring) to the
    whole serving flow.  Each stage transition is timed and booked into the
    pipeline's :class:`StageMetrics`.
    """

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        state: ServingState,
        metrics: Optional[StageMetrics] = None,
        name: str = "default",
        order_probability: float = 0.3,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.state = state
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.name = name
        #: Order-simulation probability used by the :meth:`feedback` fallback
        #: when no :class:`ExposureLogStage` is present (a stage's own
        #: configured value wins otherwise).
        self.order_probability = order_probability
        self._served = 0
        exposure_stages = [s for s in self.stages if isinstance(s, ExposureLogStage)]
        self._exposure_stage = exposure_stages[0] if exposure_stages else None

    # ------------------------------------------------------------------ #
    def stage(self, name: str) -> PipelineStage:
        """Look a stage up by name (raises ``KeyError`` when absent)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline {self.name!r} has no stage {name!r}")

    def _as_request(self, request: Union[ServeRequest, RequestContext]) -> ServeRequest:
        """Normalise the input envelope without mutating the caller's object."""
        if isinstance(request, RequestContext):
            request = ServeRequest(context=request)
        request_id = request.request_id or f"{self.name}-{self._served}"
        scenario = request.scenario or self.name
        if request_id != request.request_id or scenario != request.scenario:
            request = replace(request, request_id=request_id, scenario=scenario)
        self._served += 1
        return request

    # ------------------------------------------------------------------ #
    def run(self, request: Union[ServeRequest, RequestContext]) -> ServeResponse:
        """Serve one request through the full stage graph."""
        return self.run_many([request])[0]

    def run_many(
        self, requests: Sequence[Union[ServeRequest, RequestContext]]
    ) -> List[ServeResponse]:
        """Serve a burst of concurrent requests through the same stage graph."""
        responses = [ServeResponse(request=self._as_request(item)) for item in requests]
        if not responses:
            return []
        records = []
        for stage in self.stages:
            items_in = sum(_payload_size(response) for response in responses)
            start = time.perf_counter()
            stage.process(responses, self.state)
            elapsed = time.perf_counter() - start
            items_out = sum(_payload_size(response) for response in responses)
            records.append((stage.name, elapsed, len(responses), items_in, items_out))
        # Booked once every stage has run: telemetry counts served batches,
        # so a batch that raises records no stage — the rule a process
        # replica follows too, whose failed batch answers with an ERROR.
        for record in records:
            self.metrics.record(*record)
        return responses

    # ------------------------------------------------------------------ #
    def swap_model(self, model: BaseCTRModel) -> BaseCTRModel:
        """Promote ``model`` on this pipeline and return the previous one.

        The one swap routine behind the platform, the thread worker and the
        process worker: :func:`repro.serving.ranker.hot_swap` on the rank
        stage's ranker (schema fingerprint check, volatile feature-cache
        drop), then — when the recall strategy carries an embedding-ANN
        channel — its item vectors are re-exported from the incoming model,
        so retrieval and ranking stay consistent after the promotion.
        Raises ``KeyError`` for a pipeline without a rank stage.
        """
        ranker = self.stage("rank").ranker
        previous = hot_swap(ranker, ranker.encoder.schema, self.state.features, model)
        recall = next((stage for stage in self.stages if stage.name == "recall"), None)
        refresh = getattr(getattr(recall, "strategy", None), "refresh_embeddings", None)
        if refresh is not None:
            refresh(model, ranker.encoder)
        return previous

    # ------------------------------------------------------------------ #
    def feedback(self, response: "ServeResponse | object", clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Report observed clicks for a served response (or legacy impression).

        Routed through the pipeline's :class:`ExposureLogStage` when present
        (replay logging, order simulation with the stage's configured
        probability); without one the state is updated directly, preserving
        the pre-pipeline behaviour.
        """
        if self._exposure_stage is not None:
            self._exposure_stage.feedback(self.state, response, clicks, rng=rng)
        else:
            self.state.record_clicks(
                response.context, response.items, clicks,
                order_probability=self.order_probability, rng=rng,
            )


# ---------------------------------------------------------------------- #
# config-driven construction
# ---------------------------------------------------------------------- #
@dataclass
class PipelineConfig:
    """Declarative description of one pipeline variant.

    A :class:`ScenarioRouter` setup is just a dict of these — one per
    spatiotemporal scenario (daypart, city tier, campaign) — differing in
    recall pool size, channel quotas, exposure size, or rerank policy.
    """

    scenario: str = "default"
    recall_size: int = 30
    exposure_size: int = 10
    #: Relative per-channel quota weights for the fused recall stage
    #: (ignored when an explicit ``recall`` strategy is supplied).
    recall_quotas: Optional[Dict[str, float]] = None
    #: Head cap for :class:`CategoryDiversityRule`; ``None`` disables the
    #: rerank stage entirely (exact pass-through of the ranked list).
    max_per_category: Optional[int] = None
    rerank_overflow: str = "demote"
    #: Include the exposure/feedback stage (replay hookup).
    log_exposures: bool = True
    order_probability: float = 0.3
    seed: int = 3


def build_pipeline(
    world: SyntheticWorld,
    model: BaseCTRModel,
    encoder: OnlineRequestEncoder,
    state: ServingState,
    config: Optional[PipelineConfig] = None,
    recall: Optional[RecallStrategy] = None,
    ranker: Optional[Ranker] = None,
    metrics: Optional[StageMetrics] = None,
) -> ServingPipeline:
    """Construct the canonical recall → rank [→ rerank] → exposure pipeline.

    ``recall``/``ranker`` may be supplied to share a stage across pipelines
    (the A/B simulator shares one recall stage between buckets; the platform
    reuses its ranker for hot-swap); otherwise the default fused
    multi-channel recall (quota-weighted per ``config.recall_quotas``) and a
    fresh ranker are built.  A supplied ``recall`` keeps its own configured
    pool size, exactly like the pre-pipeline platform did.
    """
    config = config or PipelineConfig()
    if recall is None:
        recall = MultiChannelRecall.build(
            world, state, encoder=encoder, model=model,
            pool_size=config.recall_size, quotas=config.recall_quotas,
            seed=config.seed,
        )
    if ranker is None:
        ranker = Ranker(model, encoder)
    stages: List[PipelineStage] = [
        RecallStage(recall),
        RankStage(ranker, config.exposure_size),
    ]
    if config.max_per_category is not None:
        stages.append(
            RerankStage([
                CategoryDiversityRule(
                    world, config.max_per_category, overflow=config.rerank_overflow
                )
            ])
        )
    if config.log_exposures:
        stages.append(ExposureLogStage(order_probability=config.order_probability))
    return ServingPipeline(
        stages, state, metrics=metrics, name=config.scenario,
        order_probability=config.order_probability,
    )


# ---------------------------------------------------------------------- #
# scenario routing
# ---------------------------------------------------------------------- #
class ScenarioRouter:
    """Dispatch requests to per-scenario pipeline variants.

    The serving-side analog of the paper's scenario adaptation: one pipeline
    per spatiotemporal scenario (breakfast vs. late-night dayparts, dense vs.
    sparse city tiers, an experiment bucket…), selected per request.  An
    explicit non-empty ``ServeRequest.scenario`` tag wins; otherwise the
    ``classifier`` derives the tag from the request context; otherwise the
    ``default`` scenario serves the request.  ``run_many`` groups a mixed
    burst by scenario, runs each group through its pipeline's micro-batched
    path, and returns responses in input order.

    ``unknown_tag`` picks the policy for an explicit tag with no pipeline:
    ``"raise"`` (the default — a typo'd tag fails loudly instead of silently
    serving the wrong variant) or ``"fallback"`` (degrade like an untagged
    request: classifier first, then the default scenario — the lenient mode
    for traffic from callers deploying new tags ahead of the router).
    """

    def __init__(
        self,
        pipelines: Dict[str, ServingPipeline],
        default: Optional[str] = None,
        classifier: Optional[Callable[[RequestContext], str]] = None,
        unknown_tag: str = "raise",
    ) -> None:
        if not pipelines:
            raise ValueError("a router needs at least one pipeline")
        if unknown_tag not in ("raise", "fallback"):
            raise ValueError(f"unknown_tag must be 'raise' or 'fallback', got {unknown_tag!r}")
        self.pipelines = dict(pipelines)
        if default is None:
            default = next(iter(self.pipelines))
        if default not in self.pipelines:
            raise ValueError(f"default scenario {default!r} has no pipeline")
        self.default = default
        self.classifier = classifier
        self.unknown_tag = unknown_tag

    # ------------------------------------------------------------------ #
    def scenario_of(self, request: Union[ServeRequest, RequestContext]) -> str:
        """Resolve which scenario serves this request (validated)."""
        if isinstance(request, RequestContext):
            request = ServeRequest(context=request)
        scenario = request.scenario
        if scenario and scenario not in self.pipelines and self.unknown_tag == "fallback":
            scenario = ""  # degrade to the untagged path: classifier, then default
        if not scenario and self.classifier is not None:
            scenario = self.classifier(request.context)
            if scenario not in self.pipelines and self.unknown_tag == "fallback":
                scenario = ""
        if not scenario:
            scenario = self.default
        if scenario not in self.pipelines:
            raise ValueError(
                f"no pipeline for scenario {scenario!r} "
                f"(known: {sorted(self.pipelines)})"
            )
        return scenario

    def pipeline_for(self, request: Union[ServeRequest, RequestContext]) -> ServingPipeline:
        return self.pipelines[self.scenario_of(request)]

    # ------------------------------------------------------------------ #
    def run(self, request: Union[ServeRequest, RequestContext]) -> ServeResponse:
        return self.run_many([request])[0]

    def run_many(
        self, requests: Sequence[Union[ServeRequest, RequestContext]]
    ) -> List[ServeResponse]:
        """Serve a mixed burst, grouped per scenario, in input order."""
        normalized = []
        groups: Dict[str, List[int]] = {}
        for index, item in enumerate(requests):
            request = ServeRequest(context=item) if isinstance(item, RequestContext) else item
            scenario = self.scenario_of(request)
            if request.scenario != scenario:
                # Carry the resolved tag on a copy — the caller's envelope is
                # left untouched, so replaying it (or re-routing it with a
                # different classifier) re-resolves instead of honouring a
                # stale tag.
                request = replace(request, scenario=scenario)
            normalized.append(request)
            groups.setdefault(scenario, []).append(index)
        responses: List[Optional[ServeResponse]] = [None] * len(normalized)
        for scenario, members in groups.items():
            served = self.pipelines[scenario].run_many([normalized[i] for i in members])
            for index, response in zip(members, served):
                responses[index] = response
        return responses  # type: ignore[return-value]

    def feedback(self, response: ServeResponse, clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Route click feedback to the pipeline that served the response."""
        self.pipelines[self.scenario_of(response.request)].feedback(
            response, clicks, rng=rng
        )
