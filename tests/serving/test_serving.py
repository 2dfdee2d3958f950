"""Tests for the online serving stack: state, encoder, recall, ranking, A/B."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.features import FieldName
from repro.models import create_model
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    LocationBasedRecall,
    OnlineRequestEncoder,
    PipelineConfig,
    Ranker,
    ReplayBuffer,
    ServingState,
    build_pipeline,
)


@pytest.fixture(scope="module")
def serving_setup(eleme_dataset):
    """Serving state carried over from the offline log, plus the encoder."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_dataset.log)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    return state, encoder


class TestServingState:
    def test_state_adopts_generator_histories(self, eleme_dataset, serving_setup):
        state, _ = serving_setup
        assert len(state.histories) > 0
        assert state.user_clicks.sum() > 0
        assert state.item_clicks.sum() == eleme_dataset.log.num_clicks

    def test_behavior_snapshot_shapes(self, eleme_dataset, serving_setup):
        state, _ = serving_setup
        rng = np.random.default_rng(0)
        context = eleme_dataset.world.sample_request_context(50, rng)
        ids, mask, st_mask = state.behavior_snapshot(context, eleme_dataset.schema.max_sequence_length)
        assert ids.shape == (eleme_dataset.schema.max_sequence_length, 6)
        assert np.all(st_mask <= mask)

    def test_record_clicks_updates_counters(self, eleme_dataset, serving_setup):
        state, _ = serving_setup
        rng = np.random.default_rng(1)
        context = eleme_dataset.world.sample_request_context(51, rng)
        before = int(state.user_clicks[context.user_index])
        items = np.array([1, 2, 3])
        state.record_clicks(context, items, np.array([1.0, 0.0, 1.0]), rng=rng)
        assert state.user_clicks[context.user_index] == before + 2
        assert len(state.history(context.user_index)) >= 2

    @pytest.mark.xfail(strict=True, reason=(
        "record_clicks without rng draws from a fresh default_rng(0) on every call, whose "
        "first draw (0.637) never falls under order_probability 0.3; the fix moves the "
        "state bytes the replay and durability pins are computed over, so it waits"))
    def test_single_clicks_without_a_generator_record_orders(self, eleme_dataset,
                                                             serving_setup):
        """About 0.3 of clicked items become orders, generator given or not."""
        state, _ = serving_setup
        rng = np.random.default_rng(4)
        before = int(state.user_orders.sum())
        for _ in range(400):
            context = eleme_dataset.world.sample_request_context(51, rng)
            state.record_clicks(context, np.array([int(rng.integers(300))]), np.array([1.0]))
        assert int(state.user_orders.sum()) - before > 80


class TestOnlineEncoderConsistency:
    def test_encoder_batch_has_model_ready_shapes(self, eleme_dataset, serving_setup):
        state, encoder = serving_setup
        rng = np.random.default_rng(2)
        context = eleme_dataset.world.sample_request_context(52, rng)
        candidates = eleme_dataset.world.candidate_items(context, 8, rng)
        split, offsets = encoder.encode_split([context], [candidates], state)
        assert split["user_rows"].shape == (1, 6)
        assert split["behavior_unique"].shape[0] == 1
        assert len(split["item_field"]) == len(split["combine_ids"]) == len(candidates)
        assert offsets.tolist() == [0, len(candidates)]
        assert split["context_rows"].max() < eleme_dataset.schema.total_vocab_size

    def test_offline_and_online_encoders_agree(self, eleme_dataset, monkeypatch, flat_join):
        """Offline/online feature consistency: the same request encodes to the
        same bytes in every column of every field and in the behaviour arrays,
        both as the replay window encodes a logged exposure and as the parity
        oracle (``flat_join``) does.

        A serving state adopts a fresh generator *before* it simulates one
        day, and the sampled request contexts are recorded on the way.  For
        the day's first session the two sides then hold the same histories
        and counters: the offline "clicks before this day" are 0 and so are
        the adopted live item counters, so no column needs excluding —
        distance included, since the recorded context keeps its location.
        """
        from repro.data.encoding import encode_eleme_log

        world, schema = eleme_dataset.world, eleme_dataset.schema
        generator = LogGenerator(world, eleme_dataset.config.log_config())
        state = ServingState.from_log_generator(generator)
        contexts = []
        sample = world.sample_request_context

        def recording(day, rng):
            contexts.append(sample(day, rng))
            return contexts[-1]

        monkeypatch.setattr(world, "sample_request_context", recording)
        log = generator.simulate(num_days=1, start_day=90)
        monkeypatch.undo()
        offline = encode_eleme_log(log, world, schema)

        session = 0
        impressions = np.where(log.session_index == session)[0]
        items = log.item_index[impressions]
        encoder = OnlineRequestEncoder(world, schema)
        replay = ReplayBuffer(encoder)
        replay.log(state, contexts[session], items, log.label[impressions])
        logged = replay.window()
        expected = offline.batch(impressions)
        joins = {
            "replay": logged.batch(np.arange(len(logged))),
            "oracle": flat_join(encoder, [contexts[session]], [items], state)[0],
        }
        for join, online in joins.items():
            for field in (FieldName.USER, FieldName.CANDIDATE_ITEM, FieldName.CONTEXT,
                          FieldName.COMBINE):
                assert np.array_equal(expected["fields"][field], online["fields"][field]), (
                    join, field)
            for name in ("behavior", "behavior_mask", "behavior_st_mask", "time_period",
                         "city", "hour", "session", "position"):
                assert expected[name].dtype == online[name].dtype, (join, name)
                assert np.array_equal(expected[name], online[name]), (join, name)
        assert np.array_equal(expected["labels"], joins["replay"]["labels"])
        # The session's user has a history, so the behaviour arrays are exercised.
        assert expected["behavior_mask"].sum() > 0


class TestRecallAndRanking:
    def test_recall_respects_city_and_pool_size(self, eleme_dataset):
        recall = LocationBasedRecall(eleme_dataset.world, pool_size=12)
        rng = np.random.default_rng(3)
        context = eleme_dataset.world.sample_request_context(60, rng)
        candidates = recall.recall(context)
        assert len(candidates) <= 12
        assert np.all(eleme_dataset.world.item_city[candidates] == context.city)

    def test_recall_pool_size_validation(self, eleme_dataset):
        with pytest.raises(ValueError):
            LocationBasedRecall(eleme_dataset.world, pool_size=0)

    def test_ranker_returns_topk_sorted_by_score(self, eleme_dataset, serving_setup, small_model_config):
        state, encoder = serving_setup
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder)
        rng = np.random.default_rng(4)
        context = eleme_dataset.world.sample_request_context(61, rng)
        candidates = eleme_dataset.world.candidate_items(context, 15, rng)
        items, scores = ranker.rank(context, candidates, state, top_k=5)
        assert len(items) == 5
        assert np.all(np.diff(scores) <= 1e-9)
        assert set(items).issubset(set(candidates.tolist()))

    def test_platform_serves_and_accepts_feedback(self, eleme_dataset, serving_setup, small_model_config):
        state, encoder = serving_setup
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=15, exposure_size=6),
        )
        rng = np.random.default_rng(5)
        context = eleme_dataset.world.sample_request_context(62, rng)
        impression = pipeline.run(context)
        assert len(impression) == 6
        pipeline.feedback(impression, np.zeros(6), rng=rng)


class TestABSimulation:
    def test_ab_result_accounting(self, eleme_dataset, serving_setup, small_model_config):
        state, encoder = serving_setup
        control = create_model("base_din", eleme_dataset.schema, small_model_config)
        treatment = create_model("basm", eleme_dataset.schema, small_model_config)
        simulator = ABTestSimulator(
            eleme_dataset.world, control, treatment, encoder, state,
            ABTestConfig(num_days=2, requests_per_day=25, recall_size=15, exposure_size=5, seed=3),
        )
        result = simulator.run()
        assert len(result.daily) == 2
        total_exposures = result.control.exposures + result.treatment.exposures
        assert total_exposures == 2 * 25 * 5
        rows = result.table7_rows()
        assert rows[-1]["Day"] == "Avg"
        assert len(result.figure12_time_period_rows()) == 5
        assert 0 <= result.average_control_ctr <= 1
        # Exposure shares over cities sum to one for the treatment bucket.
        city_rows = result.figure12_city_rows()
        assert np.isclose(sum(row["Exposure Ratio"] for row in city_rows), 1.0, atol=1e-6)

    def test_bucket_split_is_deterministic(self, eleme_dataset, serving_setup, small_model_config):
        state, encoder = serving_setup
        control = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        treatment = create_model("basm", eleme_dataset.schema, small_model_config)
        simulator = ABTestSimulator(eleme_dataset.world, control, treatment, encoder, state)
        assert simulator._bucket_of(42) == simulator._bucket_of(42)
        buckets = {simulator._bucket_of(user) for user in range(200)}
        assert buckets == {"control", "treatment"}
