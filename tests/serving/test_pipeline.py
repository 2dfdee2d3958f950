"""Tests for the composable serving pipeline: parity with the legacy flow,
stage telemetry, rerank rules, scenario routing, and the feedback/replay path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    CategoryDiversityRule,
    ExposureLogStage,
    OnlineRequestEncoder,
    PersonalizationPlatform,
    PipelineConfig,
    Ranker,
    RankStage,
    RecallStage,
    RecallStrategy,
    ReplayBuffer,
    RerankStage,
    ScenarioRouter,
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


class TestFacadeParity:
    """The platform facade over the pipeline must equal the legacy monolith."""

    def test_serve_matches_legacy_recall_then_rank(self, eleme_dataset, pipeline_setup):
        """Bitwise parity with the pre-pipeline flow, re-enacted by hand."""
        state, encoder, model = pipeline_setup
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state, recall_size=14, exposure_size=5
        )
        for context in sample_contexts(eleme_dataset.world, 8):
            impression = platform.serve(context)
            # The exact statement sequence of the pre-pipeline serve():
            candidates = platform.recall.recall(context)
            items, scores = platform.ranker.rank(context, candidates, state, 5)
            np.testing.assert_array_equal(impression.items, items)
            np.testing.assert_array_equal(impression.scores, scores)

    def test_serve_many_matches_serve_bitwise(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state, recall_size=12, exposure_size=4
        )
        contexts = sample_contexts(eleme_dataset.world, 9, seed=101)
        batched = platform.serve_many(contexts)
        for context, from_batch in zip(contexts, batched):
            single = platform.serve(context)
            np.testing.assert_array_equal(single.items, from_batch.items)
            np.testing.assert_array_equal(single.scores, from_batch.scores)

    def test_exposure_size_property_still_adjustable(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state, recall_size=12, exposure_size=4
        )
        context = sample_contexts(eleme_dataset.world, 1, seed=102)[0]
        assert len(platform.serve(context)) == 4
        platform.exposure_size = 7
        assert len(platform.serve(context)) == 7

    def test_recall_param_accepts_strategy_protocol(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        from repro.serving import LocationBasedRecall, MultiChannelRecall

        assert isinstance(LocationBasedRecall(eleme_dataset.world), RecallStrategy)
        assert isinstance(
            MultiChannelRecall.build(eleme_dataset.world, state, pool_size=10),
            RecallStrategy,
        )
        pinned = LocationBasedRecall(eleme_dataset.world, pool_size=9)
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state, exposure_size=3, recall=pinned
        )
        assert platform.recall is pinned
        assert len(platform.serve(sample_contexts(eleme_dataset.world, 1)[0])) == 3


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
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state_a, recall_size=12, exposure_size=5
        )

        contexts = sample_contexts(eleme_dataset.world, 6, seed=103)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        click_rng = np.random.default_rng(8)
        for context in contexts:
            impression = platform.serve(context)
            clicks = (click_rng.random(len(impression)) < 0.4).astype(np.float32)
            # Pipeline-routed feedback on state A ...
            platform.feedback(impression, clicks, rng=rng_a)
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

    def test_pipeline_without_exposure_stage_falls_back_to_state(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        pipeline = ServingPipeline(
            [RecallStage(PersonalizationPlatform(
                eleme_dataset.world, model, encoder, state, recall_size=10
            ).recall), RankStage(Ranker(model, encoder), 4)],
            state,
        )
        response = pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=104)[0])
        before = int(state.user_clicks[response.context.user_index])
        pipeline.feedback(response, np.ones(len(response)), rng=np.random.default_rng(0))
        assert int(state.user_clicks[response.context.user_index]) == before + len(response)

    def test_fallback_feedback_honors_configured_order_probability(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(exposure_size=4, log_exposures=False, order_probability=1.0),
        )
        assert [stage.name for stage in pipeline.stages] == ["recall", "rank"]
        response = pipeline.run(sample_contexts(eleme_dataset.world, 1, seed=116)[0])
        user = response.context.user_index
        orders_before = int(state.user_orders[user])
        pipeline.feedback(response, np.ones(len(response)), rng=np.random.default_rng(1))
        # order_probability=1.0 -> every click becomes an order.
        assert int(state.user_orders[user]) == orders_before + len(response)


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

    def test_shared_metrics_across_scenario_variants(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        metrics = StageMetrics()
        for scenario in ("a", "b"):
            pipeline = build_pipeline(
                eleme_dataset.world, model, encoder, state,
                PipelineConfig(scenario=scenario, recall_size=10, exposure_size=3),
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


class TestRerankStage:
    def test_category_diversity_demotes_overflow(self, eleme_dataset, pipeline_setup):
        state, _, _ = pipeline_setup
        world = eleme_dataset.world
        # Hand-build an exposed list dominated by one category.
        by_category = {}
        for item in range(world.config.num_items):
            by_category.setdefault(int(world.item_category[item]), []).append(item)
        dominant = max(by_category.values(), key=len)[:4]
        other = next(v for v in by_category.values() if v[0] not in dominant)[:2]
        items = np.array(dominant[:3] + other[:1] + dominant[3:4] + other[1:2])
        scores = np.linspace(0.9, 0.4, len(items), dtype=np.float32)

        rule = CategoryDiversityRule(world, max_per_category=2)
        reranked, rescored = rule.apply(items, scores, None, state)
        assert sorted(reranked.tolist()) == sorted(items.tolist())
        categories = world.item_category[reranked]
        # No category exceeds the cap within the compliant head.
        head = categories[:4]
        assert max(np.bincount(head).max(), 0) <= 2
        # Idempotent: applying again changes nothing.
        again, _ = rule.apply(reranked, rescored, None, state)
        np.testing.assert_array_equal(again, reranked)

    def test_category_diversity_drop_policy_shrinks_list(self, eleme_dataset, pipeline_setup):
        state, _, _ = pipeline_setup
        world = eleme_dataset.world
        category = int(world.item_category[0])
        same = [item for item in range(world.config.num_items)
                if int(world.item_category[item]) == category][:4]
        items = np.asarray(same)
        scores = np.linspace(0.8, 0.5, len(items), dtype=np.float32)
        rule = CategoryDiversityRule(world, max_per_category=2, overflow="drop")
        kept, kept_scores = rule.apply(items, scores, None, state)
        assert len(kept) == 2 and len(kept_scores) == 2
        np.testing.assert_array_equal(kept, items[:2])

    def test_rerank_stage_without_rules_is_passthrough(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        ranker = Ranker(model, encoder)
        recall = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state, recall_size=12
        ).recall
        with_stage = ServingPipeline(
            [RecallStage(recall), RankStage(ranker, 5), RerankStage()], state
        )
        without = ServingPipeline([RecallStage(recall), RankStage(ranker, 5)], state)
        context = sample_contexts(eleme_dataset.world, 1, seed=107)[0]
        left = with_stage.run(context)
        right = without.run(context)
        np.testing.assert_array_equal(left.items, right.items)
        np.testing.assert_array_equal(left.scores, right.scores)

    def test_pipeline_with_diversity_cap_enforces_it_end_to_end(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=20, exposure_size=8, max_per_category=2,
                           rerank_overflow="drop"),
        )
        for context in sample_contexts(eleme_dataset.world, 5, seed=108):
            response = pipeline.run(context)
            categories = eleme_dataset.world.item_category[response.items]
            assert np.bincount(categories).max() <= 2

    def test_invalid_rule_configuration(self, eleme_dataset):
        with pytest.raises(ValueError):
            CategoryDiversityRule(eleme_dataset.world, max_per_category=0)
        with pytest.raises(ValueError):
            CategoryDiversityRule(eleme_dataset.world, 2, overflow="explode")


class TestScenarioRouter:
    def build_router(self, eleme_dataset, state, encoder, model, classifier=None):
        pipelines = {
            name: build_pipeline(
                eleme_dataset.world, model, encoder, state,
                PipelineConfig(scenario=name, recall_size=size, exposure_size=k),
            )
            for name, size, k in (("dense", 16, 6), ("sparse", 10, 3))
        }
        return ScenarioRouter(pipelines, default="dense", classifier=classifier)

    def test_explicit_tag_routes_and_sizes_differ(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        router = self.build_router(eleme_dataset, state, encoder, model)
        context = sample_contexts(eleme_dataset.world, 1, seed=109)[0]
        dense = router.run(ServeRequest(context=context, scenario="dense"))
        sparse = router.run(ServeRequest(context=context, scenario="sparse"))
        assert len(dense.items) == 6 and len(sparse.items) == 3
        assert dense.request.scenario == "dense"

    def test_classifier_fills_missing_tag(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        classifier = lambda context: "sparse" if context.city >= 2 else "dense"  # noqa: E731
        router = self.build_router(eleme_dataset, state, encoder, model, classifier)
        contexts = sample_contexts(eleme_dataset.world, 10, seed=110)
        responses = router.run_many(contexts)
        for context, response in zip(contexts, responses):
            expected = classifier(context)
            assert response.request.scenario == expected
            assert len(response.items) == (3 if expected == "sparse" else 6)

    def test_run_many_preserves_input_order_and_matches_run(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        router = self.build_router(eleme_dataset, state, encoder, model)
        contexts = sample_contexts(eleme_dataset.world, 8, seed=111)
        tags = ["dense", "sparse", "sparse", "dense", "sparse", "dense", "dense", "sparse"]
        batched = router.run_many(
            [ServeRequest(context=c, scenario=t) for c, t in zip(contexts, tags)]
        )
        for context, tag, response in zip(contexts, tags, batched):
            assert response.request.scenario == tag
            single = router.run(ServeRequest(context=context, scenario=tag))
            np.testing.assert_array_equal(single.items, response.items)
            np.testing.assert_array_equal(single.scores, response.scores)

    def test_default_fallback_and_unknown_scenario(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        router = self.build_router(eleme_dataset, state, encoder, model)
        context = sample_contexts(eleme_dataset.world, 1, seed=112)[0]
        assert router.scenario_of(context) == "dense"
        with pytest.raises(ValueError):
            router.run(ServeRequest(context=context, scenario="nonexistent"))
        with pytest.raises(ValueError):
            ScenarioRouter({}, default="x")
        with pytest.raises(ValueError):
            ScenarioRouter({"a": router.pipelines["dense"]}, default="b")

    def test_empty_batch_returns_empty(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        router = self.build_router(eleme_dataset, state, encoder, model)
        assert router.run_many([]) == []
        # Telemetry untouched by the empty burst.
        assert all(
            pipeline.metrics.stages() == [] or
            pipeline.metrics.stats(pipeline.metrics.stages()[0]).requests >= 0
            for pipeline in router.pipelines.values()
        )

    def test_mixed_burst_preserves_input_order_with_classifier_and_tags(
        self, eleme_dataset, pipeline_setup
    ):
        """Explicit tags and classifier-derived tags interleaved in one burst."""
        state, encoder, model = pipeline_setup
        classifier = lambda context: "sparse" if context.user_index % 2 else "dense"  # noqa: E731
        router = self.build_router(eleme_dataset, state, encoder, model, classifier)
        contexts = sample_contexts(eleme_dataset.world, 12, seed=117)
        requests = []
        expected = []
        for index, context in enumerate(contexts):
            if index % 3 == 0:  # every third request pins a tag explicitly
                tag = "dense" if index % 2 else "sparse"
                requests.append(ServeRequest(context=context, scenario=tag))
                expected.append(tag)
            else:
                requests.append(ServeRequest(context=context))
                expected.append(classifier(context))
        responses = router.run_many(requests)
        assert [r.request.scenario for r in responses] == expected
        for request, response in zip(requests, responses):
            assert response.context is request.context  # input order held
            assert len(response.items) == (3 if response.request.scenario == "sparse" else 6)

    def test_unknown_tag_fallback_policy_degrades_to_classifier_then_default(
        self, eleme_dataset, pipeline_setup
    ):
        state, encoder, model = pipeline_setup
        classifier = lambda context: "sparse"  # noqa: E731
        pipelines = self.build_router(eleme_dataset, state, encoder, model).pipelines
        lenient = ScenarioRouter(
            pipelines, default="dense", classifier=classifier, unknown_tag="fallback"
        )
        context = sample_contexts(eleme_dataset.world, 1, seed=118)[0]
        # Unknown explicit tag -> classifier wins.
        served = lenient.run(ServeRequest(context=context, scenario="not-a-scenario"))
        assert served.request.scenario == "sparse"
        # Classifier itself returns an unknown tag -> default wins.
        lenient.classifier = lambda context: "also-unknown"  # noqa: E731
        served = lenient.run(ServeRequest(context=context, scenario="not-a-scenario"))
        assert served.request.scenario == "dense"
        # No classifier at all -> unknown tag degrades straight to default.
        lenient.classifier = None
        assert lenient.scenario_of(ServeRequest(context=context, scenario="nope")) == "dense"
        # The strict default still raises on the same input.
        strict = ScenarioRouter(pipelines, default="dense")
        with pytest.raises(ValueError):
            strict.run(ServeRequest(context=context, scenario="not-a-scenario"))
        with pytest.raises(ValueError):
            ScenarioRouter(pipelines, default="dense", unknown_tag="sometimes")

    def test_router_does_not_mutate_caller_envelopes(self, eleme_dataset, pipeline_setup):
        """An untagged request is re-classified on every routing, not tagged once."""
        state, encoder, model = pipeline_setup
        classifier = lambda context: "sparse"  # noqa: E731
        router = self.build_router(eleme_dataset, state, encoder, model, classifier)
        context = sample_contexts(eleme_dataset.world, 1, seed=115)[0]
        request = ServeRequest(context=context)
        response = router.run(request)
        assert response.request.scenario == "sparse"
        assert request.scenario == "" and request.request_id == ""
        # Re-routing the same envelope under a new classifier re-resolves.
        router.classifier = lambda context: "dense"  # noqa: E731
        assert router.run(request).request.scenario == "dense"

    def test_router_feedback_routes_to_serving_pipeline(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        router = self.build_router(eleme_dataset, state, encoder, model)
        context = sample_contexts(eleme_dataset.world, 1, seed=113)[0]
        response = router.run(ServeRequest(context=context, scenario="sparse"))
        stage = router.pipelines["sparse"].stage("exposure")
        before = stage.feedbacks_logged
        router.feedback(response, np.ones(len(response)), rng=np.random.default_rng(0))
        assert stage.feedbacks_logged == before + 1


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
        with pytest.raises(ValueError):
            RecallStage(None, pool_size=0)
        with pytest.raises(KeyError):
            ServingPipeline([stage], state).stage("missing")

    def test_build_pipeline_stage_composition(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        default = build_pipeline(eleme_dataset.world, model, encoder, state)
        assert [stage.name for stage in default.stages] == ["recall", "rank", "exposure"]
        with_rerank = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(max_per_category=2),
        )
        assert [s.name for s in with_rerank.stages] == [
            "recall", "rank", "rerank", "exposure",
        ]
        bare = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(log_exposures=False),
        )
        assert [s.name for s in bare.stages] == ["recall", "rank"]

    def test_request_ids_assigned_and_exposure_counter(self, eleme_dataset, pipeline_setup):
        state, encoder, model = pipeline_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(scenario="tagged", exposure_size=4),
        )
        contexts = sample_contexts(eleme_dataset.world, 3, seed=114)
        responses = pipeline.run_many(contexts)
        ids = [response.request.request_id for response in responses]
        assert len(set(ids)) == 3 and all(id.startswith("tagged-") for id in ids)
        assert all(response.request.scenario == "tagged" for response in responses)
        stage = pipeline.stage("exposure")
        assert isinstance(stage, ExposureLogStage)
        assert stage.exposures_logged == 3 * 4
        assert pipeline.run_many([]) == []


class TestABSimulatorOnPipelines:
    def test_buckets_are_router_scenarios(self, eleme_dataset, pipeline_setup,
                                          small_model_config):
        state, encoder, model = pipeline_setup
        control = create_model("base_din", eleme_dataset.schema, small_model_config)
        simulator = ABTestSimulator(
            eleme_dataset.world, control, model, encoder, state,
            ABTestConfig(num_days=1, requests_per_day=10, recall_size=10,
                         exposure_size=4, seed=11),
        )
        assert set(simulator.router.pipelines) == {"control", "treatment"}
        rng = np.random.default_rng(0)
        context = eleme_dataset.world.sample_request_context(50, rng)
        assert simulator.router.scenario_of(context) == simulator._bucket_of(
            context.user_index
        )
        result = simulator.run()
        assert result.control.exposures + result.treatment.exposures == 10 * 4
        # Both bucket pipelines actually served traffic (telemetry recorded).
        assert any(
            simulator.router.pipelines[name].metrics.stages()
            for name in ("control", "treatment")
        )

    def test_config_mutation_before_run_still_takes_effect(
        self, eleme_dataset, pipeline_setup, small_model_config
    ):
        """The pre-pipeline run() read the config per request; keep that."""
        state, encoder, model = pipeline_setup
        control = create_model("base_din", eleme_dataset.schema, small_model_config)
        simulator = ABTestSimulator(
            eleme_dataset.world, control, model, encoder, state,
            ABTestConfig(num_days=1, requests_per_day=8, recall_size=10,
                         exposure_size=4, seed=12),
        )
        simulator.config.exposure_size = 2
        result = simulator.run()
        assert result.control.exposures + result.treatment.exposures == 8 * 2
