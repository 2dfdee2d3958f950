"""Online A/B experiment simulator (paper Table VII and Fig. 12).

Users are split 50/50 by a deterministic hash into a control bucket (served by
the base model, a DIN variant) and a treatment bucket (served by BASM).  Each
simulated day the system handles requests end-to-end: LBS recall, model
ranking, top-k exposure, and user clicks drawn from the ground-truth click
model of the synthetic world (with position bias applied to the displayed
rank).  The result object reports daily CTR per bucket (Table VII) and CTR /
exposure-ratio per time-period and city (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.world import SyntheticWorld
from ..features.time_features import TimePeriod
from ..metrics.ctr import CTRCounter, relative_improvement
from ..models.base import BaseCTRModel
from .encoder import OnlineRequestEncoder
from .pipeline import PipelineConfig, ScenarioRouter, ServeResponse, build_pipeline
from .ranker import Ranker, hot_swap
from .recall import MultiChannelRecall
from .recall.base import RecallStrategy
from .state import ServingState

__all__ = ["ABTestConfig", "ABTestResult", "ABTestSimulator"]


@dataclass
class ABTestConfig:
    """Size and bucketing knobs of the simulated online experiment."""

    num_days: int = 7
    requests_per_day: int = 800
    recall_size: int = 30
    exposure_size: int = 10
    treatment_share: float = 0.5
    order_probability: float = 0.3
    seed: int = 97


@dataclass
class ABTestResult:
    """Aggregated outcome of one A/B run."""

    daily: List[Dict[str, float]]
    control: CTRCounter
    treatment: CTRCounter
    control_by_period: CTRCounter
    treatment_by_period: CTRCounter
    control_by_city: CTRCounter
    treatment_by_city: CTRCounter

    @property
    def average_control_ctr(self) -> float:
        return self.control.ctr

    @property
    def average_treatment_ctr(self) -> float:
        return self.treatment.ctr

    @property
    def average_relative_improvement(self) -> float:
        return relative_improvement(self.treatment.ctr, self.control.ctr)

    # ------------------------------------------------------------------ #
    def table7_rows(self) -> List[Dict[str, float]]:
        """Per-day rows in the format of the paper's Table VII."""
        rows = []
        for day_record in self.daily:
            rows.append(
                {
                    "Day": day_record["day"],
                    "Base model CTR": round(100 * day_record["control_ctr"], 2),
                    "BASM CTR": round(100 * day_record["treatment_ctr"], 2),
                    "Relative Improvement": round(100 * day_record["relative_improvement"], 2),
                }
            )
        rows.append(
            {
                "Day": "Avg",
                "Base model CTR": round(100 * self.control.ctr, 2),
                "BASM CTR": round(100 * self.treatment.ctr, 2),
                "Relative Improvement": round(100 * self.average_relative_improvement, 2),
            }
        )
        return rows

    def figure12_time_period_rows(self) -> List[Dict[str, float]]:
        """Exposure ratio and CTR per time-period for both buckets (Fig. 12a)."""
        rows = []
        for period in TimePeriod:
            key = int(period)
            rows.append(
                {
                    "Group": period.display_name,
                    "Exposure Ratio": round(self.treatment_by_period.group_exposure_share(key), 4),
                    "Base CTR": round(self.control_by_period.group_ctr(key), 4),
                    "BASM CTR": round(self.treatment_by_period.group_ctr(key), 4),
                    "Relative Improvement": round(
                        relative_improvement(
                            self.treatment_by_period.group_ctr(key),
                            self.control_by_period.group_ctr(key),
                        ),
                        4,
                    ),
                }
            )
        return rows

    def figure12_city_rows(self) -> List[Dict[str, float]]:
        """Exposure ratio and CTR per city for both buckets (Fig. 12b)."""
        cities = sorted(set(self.treatment_by_city.group_exposures) | set(self.control_by_city.group_exposures))
        rows = []
        for city in cities:
            rows.append(
                {
                    "Group": f"City {city + 1}",
                    "Exposure Ratio": round(self.treatment_by_city.group_exposure_share(city), 4),
                    "Base CTR": round(self.control_by_city.group_ctr(city), 4),
                    "BASM CTR": round(self.treatment_by_city.group_ctr(city), 4),
                    "Relative Improvement": round(
                        relative_improvement(
                            self.treatment_by_city.group_ctr(city),
                            self.control_by_city.group_ctr(city),
                        ),
                        4,
                    ),
                }
            )
        return rows


class ABTestSimulator:
    """Runs the end-to-end online experiment."""

    def __init__(
        self,
        world: SyntheticWorld,
        control_model: BaseCTRModel,
        treatment_model: BaseCTRModel,
        encoder: OnlineRequestEncoder,
        state: ServingState,
        config: Optional[ABTestConfig] = None,
        recall: Optional[RecallStrategy] = None,
    ) -> None:
        self.world = world
        self.config = config or ABTestConfig()
        self.encoder = encoder
        self.state = state
        self.control_ranker = Ranker(control_model, encoder)
        self.treatment_ranker = Ranker(treatment_model, encoder)
        #: Both buckets share one Recall stage, exactly as in production
        #: where the experiment only swaps the ranking model.  The default
        #: fused stack is built *without* an embedding-ANN channel — a shared
        #: recall must not embed one arm's model, or retrieval would leak
        #: ranking signal into the other bucket.  Pass ``recall=`` (e.g. the
        #: seed :class:`repro.serving.recall.LocationBasedRecall`) to pin a
        #: strategy, as the paper-figure benchmarks do to reproduce the
        #: paper's location-based-service setup.
        self.recall = recall if recall is not None else MultiChannelRecall.build(
            world, state, pool_size=self.config.recall_size, seed=self.config.seed + 1,
        )
        #: Each bucket is one pipeline variant over the shared recall stage;
        #: the experiment is "same pipeline graph, different rank stage" —
        #: which is exactly what a model A/B test should be.  The router's
        #: classifier is the deterministic user-hash bucketing, so scenario
        #: dispatch and experiment bucketing are the same mechanism.
        self.router = ScenarioRouter(
            {
                name: build_pipeline(
                    world, ranker.model, encoder, state,
                    PipelineConfig(
                        scenario=name,
                        exposure_size=self.config.exposure_size,
                        order_probability=self.config.order_probability,
                    ),
                    recall=self.recall, ranker=ranker,
                )
                for name, ranker in (
                    ("control", self.control_ranker),
                    ("treatment", self.treatment_ranker),
                )
            },
            default="control",
            classifier=lambda context: self._bucket_of(context.user_index),
        )
        self.rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    def _bucket_of(self, user_index: int) -> str:
        """Deterministic 50/50 user split (hash-bucketing, as in production)."""
        value = (user_index * 2654435761) % 1000 / 1000.0
        return "treatment" if value < self.config.treatment_share else "control"

    def promote(self, model: BaseCTRModel, bucket: str = "treatment") -> BaseCTRModel:
        """Hot-swap one arm's model mid-experiment (the canary deployment).

        The continuous-refresh loop promotes a freshly trained checkpoint
        into the treatment arm while the control arm keeps the frozen model,
        turning the A/B split into an old-vs-refreshed canary.  Schema
        compatibility is fingerprint-checked and volatile feature-cache
        entries are invalidated (pinned static tables survive) by the same
        :func:`repro.serving.ranker.hot_swap` that
        :meth:`repro.serving.pipeline.ServingPipeline.swap_model` drives.
        Returns the replaced model.
        """
        if bucket not in ("control", "treatment"):
            raise ValueError(f"unknown bucket {bucket!r}")
        ranker = self.treatment_ranker if bucket == "treatment" else self.control_ranker
        return hot_swap(ranker, self.encoder.schema, self.state.features, model)

    def run(
        self,
        start_day: int = 100,
        on_day_end: Optional[Callable[[int, "ABTestSimulator"], None]] = None,
    ) -> ABTestResult:
        """Simulate ``num_days`` days of serving and return the aggregated result.

        ``on_day_end`` is invoked after each simulated day with
        ``(day_number, simulator)`` — the lifecycle hook where a driver can
        refresh a model on the day's logged feedback and :meth:`promote` it
        for the next day, as the paper's daily-update deployment does.
        """
        cfg = self.config
        daily: List[Dict[str, float]] = []
        control_total = CTRCounter()
        treatment_total = CTRCounter()
        control_by_period = CTRCounter()
        treatment_by_period = CTRCounter()
        control_by_city = CTRCounter()
        treatment_by_city = CTRCounter()

        def account(response: ServeResponse, day_control, day_treatment):
            """Draw ground-truth clicks for one exposure and book every counter."""
            context = response.context
            exposed = response.items
            display_positions = np.arange(len(exposed))
            probabilities = self.world.click_probabilities(
                context.user_index,
                exposed,
                context.hour,
                context.city,
                (context.latitude, context.longitude),
                positions=display_positions,
                rng=self.rng,
            )
            clicks = (self.rng.random(len(exposed)) < probabilities).astype(np.float32)
            exposures = int(len(exposed))
            click_count = int(clicks.sum())

            if response.scenario == "treatment":
                day_treatment.update(exposures, click_count)
                treatment_total.update(exposures, click_count)
                treatment_by_period.update(exposures, click_count, group=context.time_period)
                treatment_by_city.update(exposures, click_count, group=context.city)
            else:
                day_control.update(exposures, click_count)
                control_total.update(exposures, click_count)
                control_by_period.update(exposures, click_count, group=context.time_period)
                control_by_city.update(exposures, click_count, group=context.city)

            # Feedback flows through the serving pipeline's exposure stage,
            # so replay logging and order simulation live in one place.
            self.router.feedback(response, clicks, rng=self.rng)

        for day_offset in range(cfg.num_days):
            day = start_day + day_offset
            # The pre-pipeline loop read the config on every request; keep
            # that contract by syncing the mutable knobs into the bucket
            # pipelines' stages each day (a ``config`` mutated between runs
            # or from an ``on_day_end`` hook still takes effect).
            for pipeline in self.router.pipelines.values():
                pipeline.stage("rank").exposure_size = cfg.exposure_size
                pipeline.stage("exposure").order_probability = cfg.order_probability
            day_control = CTRCounter()
            day_treatment = CTRCounter()
            # Strictly sequential: each request sees all earlier feedback.
            for _ in range(cfg.requests_per_day):
                context = self.world.sample_request_context(day, self.rng)
                response = self.router.run(context)
                account(response, day_control, day_treatment)

            daily.append(
                {
                    "day": day_offset + 1,
                    "control_ctr": day_control.ctr,
                    "treatment_ctr": day_treatment.ctr,
                    "relative_improvement": relative_improvement(day_treatment.ctr, day_control.ctr),
                }
            )
            if on_day_end is not None:
                on_day_end(day_offset + 1, self)

        return ABTestResult(
            daily=daily,
            control=control_total,
            treatment=treatment_total,
            control_by_period=control_by_period,
            treatment_by_period=treatment_by_period,
            control_by_city=control_by_city,
            treatment_by_city=treatment_by_city,
        )
