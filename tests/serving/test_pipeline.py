"""Tests for the serving pipeline: parity with the legacy flow, stage
telemetry, the feedback/replay path, and the A/B simulator's two bucket
pipelines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    ExposureLogStage,
    MultiChannelRecall,
    OnlineRequestEncoder,
    PipelineConfig,
    Ranker,
    RankStage,
    RecallStage,
    RecallStrategy,
    ReplayBuffer,
    ServeRequest,
    ServingPipeline,
    ServingState,
    StageMetrics,
    build_pipeline,
)


def fresh_state(eleme_dataset):
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    return ServingState.from_log_generator(generator, eleme_dataset.log)


@pytest.fixture(scope="module")
def pipeline_setup(eleme_dataset, small_model_config):
    state = fresh_state(eleme_dataset)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    return state, encoder, model


def sample_contexts(world, count, day=80, seed=100):
    rng = np.random.default_rng(seed)
    return [world.sample_request_context(day, rng) for _ in range(count)]


class TestServeParity:
    """``build_pipeline``'s graph must equal recall-then-rank run by hand."""

    def test_serve_matches_legacy_recall_then_rank(self, eleme_dataset, pipeline_setup):
        """Bitwise parity with the pre-pipeline flow, re-enacted by hand."""
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=14, exposure_size=5),
        )
        for context in sample_contexts(eleme_dataset.world, 8):
            impression = pipeline.run(context)
            # The exact statement sequence of the pre-pipeline serve():
            candidates = pipeline.stage("recall").strategy.recall(context)
            items, scores = pipeline.stage("rank").ranker.rank(context, candidates, state, 5)
            np.testing.assert_array_equal(impression.items, items)
            np.testing.assert_array_equal(impression.scores, scores)

    def test_serve_many_matches_serve_bitwise(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=12, exposure_size=4),
        )
        contexts = sample_contexts(eleme_dataset.world, 9, seed=101)
        batched = pipeline.run_many(contexts)
        for context, from_batch in zip(contexts, batched):
            single = pipeline.run(context)
            np.testing.assert_array_equal(single.items, from_batch.items)
            np.testing.assert_array_equal(single.scores, from_batch.scores)

    def test_exposure_size_property_still_adjustable(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=12, exposure_size=4),
        )
        context = sample_contexts(eleme_dataset.world, 1, seed=102)[0]
        assert len(pipeline.run(context)) == 4
        pipeline.stage("rank").exposure_size = 7
        assert len(pipeline.run(context)) == 7

    def test_recall_param_accepts_strategy_protocol(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        from repro.serving import LocationBasedRecall, MultiChannelRecall

        assert isinstance(LocationBasedRecall(eleme_dataset.world), RecallStrategy)
        assert isinstance(
            MultiChannelRecall.build(eleme_dataset.world, state, pool_size=10),
            RecallStrategy,
        )
        pinned = LocationBasedRecall(eleme_dataset.world, pool_size=9)
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PipelineConfig(exposure_size=3),
            recall=pinned,
        )
        assert pipeline.stage("recall").strategy is pinned
        assert len(pipeline.run(sample_contexts(eleme_dataset.world, 1)[0])) == 3


class TestFeedbackReplayParity:
    """Feedback through ExposureLogStage must land exactly like the direct path."""

    def test_pipeline_feedback_equals_direct_record_clicks(
        self, eleme_dataset, pipeline_setup
    ):
        _, encoder, model = pipeline_setup
        state_a = fresh_state(eleme_dataset)
        state_b = fresh_state(eleme_dataset)
        replay_a = state_a.attach_replay(ReplayBuffer(encoder, max_impressions=50))
        replay_b = state_b.attach_replay(ReplayBuffer(encoder, max_impressions=50))
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state_a,
            PipelineConfig(recall_size=12, exposure_size=5),
        )

        contexts = sample_contexts(eleme_dataset.world, 6, seed=103)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        click_rng = np.random.default_rng(8)
        for context in contexts:
            impression = pipeline.run(context)
            clicks = (click_rng.random(len(impression)) < 0.4).astype(np.float32)
            # Pipeline-routed feedback on state A ...
            pipeline.feedback(impression, clicks, rng=rng_a)
            # ... direct legacy call on state B.
            state_b.record_clicks(context, impression.items, clicks, rng=rng_b)

        assert replay_a.impressions_logged == replay_b.impressions_logged == 6
        assert replay_a.rows_logged == replay_b.rows_logged
        assert replay_a.clicks_logged == replay_b.clicks_logged
        batch_a = replay_a.merged_batch()
        batch_b = replay_b.merged_batch()
        for key in ("behavior", "behavior_mask", "labels", "position", "hour"):
            np.testing.assert_array_equal(batch_a[key], batch_b[key])
        for name in batch_a["fields"]:
            np.testing.assert_array_equal(batch_a["fields"][name], batch_b["fields"][name])
        np.testing.assert_array_equal(state_a.user_clicks, state_b.user_clicks)
        np.testing.assert_array_equal(state_a.user_orders, state_b.user_orders)
        np.testing.assert_array_equal(state_a.item_clicks, state_b.item_clicks)
        np.testing.assert_array_equal(state_a.user_version, state_b.user_version)

    def test_pipeline_without_exposure_stage_refuses_feedback(
        self, eleme_dataset, pipeline_setup
    ):
        """Feedback goes through the exposure stage or nowhere: a bare graph
        raises ``KeyError`` like ``swap_model`` does without a rank stage."""
        state, encoder, model = pipeline_setup
        recall = MultiChannelRecall.build(
            eleme_dataset.world, state, encoder=encoder, model=model, pool_size=10
        )
        pipeline = ServingPipeline([RecallStage(recall), RankStage(Ranker(model, encoder), 4)],
                                   state)
        response = pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=104)[0])
        before = int(state.feedback_seq)
        with pytest.raises(KeyError, match="exposure"):
            pipeline.feedback(response, np.ones(len(response)), rng=np.random.default_rng(0))
        assert state.feedback_seq == before

    def test_feedback_honors_configured_order_probability(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(exposure_size=4, order_probability=1.0),
        )
        assert pipeline.stage("exposure").order_probability == 1.0
        response = pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=116)[0])
        user = response.context.user_index
        orders_before = int(state.user_orders[user])
        pipeline.feedback(response, np.ones(len(response)), rng=np.random.default_rng(1))
        # order_probability=1.0 -> every click becomes an order.
        assert int(state.user_orders[user]) == orders_before + len(response)

    def test_rejected_feedback_books_nothing(self, eleme_dataset, pipeline_setup):
        """Labels that do not match the exposed items leave the exposure
        stage's counters where they were."""
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PipelineConfig(exposure_size=4),
        )
        stage = pipeline.stage("exposure")
        response = pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=119)[0])
        counters = (stage.feedbacks_logged, stage.clicks_logged)
        with pytest.raises(ValueError):
            pipeline.feedback(response, np.ones(len(response) + 1))
        assert (stage.feedbacks_logged, stage.clicks_logged) == counters


class TestStageMetrics:
    def test_run_many_records_latency_and_item_counts(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        metrics = StageMetrics()
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=12, exposure_size=5), metrics=metrics,
        )
        contexts = sample_contexts(eleme_dataset.world, 7, seed=105)
        pipeline.run_many(contexts)
        pipeline.run(contexts[0])
        assert metrics.stages() == ["recall", "rank", "exposure"]
        recall = metrics.stats("recall")
        rank = metrics.stats("rank")
        assert recall.calls == 2 and recall.requests == 8
        assert recall.items_in == 0 and recall.items_out == 8 * 12
        assert rank.items_in == 8 * 12 and rank.items_out == 8 * 5
        assert len(rank.latencies) == 2 and all(v >= 0 for v in rank.latencies)
        pct = metrics.latency_percentiles("rank")
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        rows = metrics.rows()
        assert [row["Stage"] for row in rows] == ["recall", "rank", "exposure"]
        assert "rank" in metrics.summary()

    def test_shared_metrics_across_pipelines(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        metrics = StageMetrics()
        for _ in range(2):
            pipeline = build_pipeline(
                eleme_dataset.world, model, encoder, state,
                PipelineConfig(recall_size=10, exposure_size=3),
                metrics=metrics,
            )
            pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=106)[0])
        assert metrics.stats("recall").calls == 2

    def test_empty_metrics_summary(self):
        assert "no stage telemetry" in StageMetrics().summary()

    def test_fractional_percentile_keys_do_not_collide(self):
        """Regression: keys were formatted ``f"p{int(p)}"``, so p99.9 silently
        overwrote / collided with p99 and fractional tails were unreportable."""
        metrics = StageMetrics()
        for index in range(1000):
            metrics.record("rank", 0.001 * index, requests=1, items_in=1, items_out=1)
        pct = metrics.latency_percentiles("rank", (50, 99, 99.9))
        assert set(pct) == {"p50", "p99", "p99.9"}
        assert pct["p99"] < pct["p99.9"]
        # Empty stages keep the same (untruncated) key shape.
        empty = StageMetrics()
        empty.record("recall", 0.0, requests=1, items_in=0, items_out=0)
        assert set(empty.latency_percentiles("recall", (99, 99.9))) == {"p99", "p99.9"}

    def test_merge_combines_per_worker_accumulators(self):
        left = StageMetrics()
        right = StageMetrics()
        for _ in range(3):
            left.record("recall", 0.010, requests=4, items_in=0, items_out=40)
        left.record("rank", 0.020, requests=4, items_in=40, items_out=10)
        for _ in range(2):
            right.record("recall", 0.030, requests=6, items_in=0, items_out=60)
        right.record("exposure", 0.001, requests=6, items_in=6, items_out=6)

        merged = StageMetrics.merged([left, right])
        recall = merged.stats("recall")
        assert recall.calls == 5 and recall.requests == 3 * 4 + 2 * 6
        assert recall.items_out == 3 * 40 + 2 * 60
        assert recall.seconds == pytest.approx(3 * 0.010 + 2 * 0.030)
        assert len(recall.latencies) == 5
        # Stages unique to either side survive the merge.
        assert set(merged.stages()) == {"recall", "rank", "exposure"}
        # Percentiles span both sources' samples.
        assert merged.latency_percentiles("recall")["p99"] == pytest.approx(0.030, rel=0.1)
        # The inputs are untouched.
        assert left.stats("recall").calls == 3 and right.stats("recall").calls == 2

    def test_merge_respects_bounded_latency_window(self):
        left = StageMetrics(max_samples=4)
        right = StageMetrics(max_samples=4)
        for index in range(10):
            right.record("rank", 0.001 * index, requests=1, items_in=1, items_out=1)
        merged = StageMetrics(max_samples=4).merge(left).merge(right)
        stats = merged.stats("rank")
        assert stats.calls == 10  # totals stay exact ...
        assert len(stats.latencies) == 4  # ... while the window stays bounded

    def test_latency_window_is_bounded_but_totals_exact(self):
        metrics = StageMetrics(max_samples=8)
        for index in range(50):
            metrics.record("rank", 0.001 * index, requests=2, items_in=20, items_out=10)
        stats = metrics.stats("rank")
        assert stats.calls == 50 and stats.requests == 100
        assert len(stats.latencies) == 8  # only the newest window is kept
        assert stats.seconds == pytest.approx(sum(0.001 * i for i in range(50)))
        # Percentiles come from the retained window (the newest samples).
        assert metrics.latency_percentiles("rank")["p50"] >= 0.001 * 42
        with pytest.raises(ValueError):
            StageMetrics(max_samples=0)


class TestPipelineConstruction:
    def test_validation_errors(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        with pytest.raises(ValueError):
            ServingPipeline([], state)
        stage = RankStage(Ranker(model, encoder), 3)
        with pytest.raises(ValueError):
            ServingPipeline([stage, RankStage(Ranker(model, encoder), 3)], state)
        with pytest.raises(ValueError):
            RankStage(Ranker(model, encoder), 0)
        with pytest.raises(KeyError):
            ServingPipeline([stage], state).stage("missing")

    def test_build_pipeline_stage_composition(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        default = build_pipeline(eleme_dataset.world, model, encoder, state)
        assert [stage.name for stage in default.stages] == ["recall", "rank", "exposure"]

    def test_request_ids_assigned_and_exposure_counter(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PipelineConfig(exposure_size=4),
        )
        contexts = sample_contexts(eleme_dataset.world, 3, seed=114)
        responses = pipeline.run_many(contexts)
        ids = [response.request.request_id for response in responses]
        assert len(set(ids)) == 3 and all(id.startswith("default-") for id in ids)
        assert all(response.request.scenario == "default" for response in responses)
        stage = pipeline.stage("exposure")
        assert isinstance(stage, ExposureLogStage)
        assert stage.exposures_logged == 3 * 4
        assert pipeline.run_many([]) == []

    def test_envelope_tags_pass_through_untouched(self, eleme_dataset, pipeline_setup):
        """A caller's id and tag ride through as given; the caller's envelope
        is never mutated when the pipeline fills in an empty one."""
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PipelineConfig(exposure_size=4),
        )
        context = sample_contexts(eleme_dataset.world, 1, seed=115)[0]
        tagged = pipeline.run(ServeRequest(context=context, request_id="r-1", scenario="lunch"))
        assert (tagged.request.request_id, tagged.request.scenario) == ("r-1", "lunch")
        bare = ServeRequest(context=context)
        assert pipeline.run(bare).request.scenario == "default"
        assert bare.scenario == "" and bare.request_id == ""


class TestABSimulatorOnPipelines:
    def test_each_request_is_served_and_fed_back_by_its_bucket(
        self, eleme_dataset, pipeline_setup, small_model_config
    ):
        state, encoder, model = pipeline_setup
        control = create_model("base_din", eleme_dataset.schema, small_model_config)
        simulator = ABTestSimulator(
            eleme_dataset.world, control, model, encoder, state,
            ABTestConfig(num_days=1, requests_per_day=10, recall_size=10,
                         exposure_size=4, seed=11),
        )
        assert set(simulator.pipelines) == {"control", "treatment"}
        for name, ranker in (("control", simulator.control_ranker),
                             ("treatment", simulator.treatment_ranker)):
            pipeline = simulator.pipelines[name]
            assert pipeline.stage("rank").ranker is ranker
            assert pipeline.stage("recall").strategy is simulator.recall
        result = simulator.run()
        assert result.control.exposures + result.treatment.exposures == 10 * 4
        # Each bucket's counters and its pipeline's exposure stage saw the
        # same requests: serving, booking and feedback used one bucket.
        for name, counter in (("control", result.control),
                              ("treatment", result.treatment)):
            stage = simulator.pipelines[name].stage("exposure")
            assert stage.exposures_logged == counter.exposures
            assert stage.feedbacks_logged == counter.exposures // 4
            assert stage.clicks_logged == counter.clicks
