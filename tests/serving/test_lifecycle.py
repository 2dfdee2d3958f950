"""Lifecycle tests: replay logging, incremental refresh, and hot-swap serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import ModelStore, create_model
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    OnlineRequestEncoder,
    PipelineConfig,
    Ranker,
    ReplayBuffer,
    ServingState,
    build_pipeline,
    generate_burst,
)
from repro.training import IncrementalTrainer, OnlineTrainConfig, Trainer


@pytest.fixture()
def serving_setup(eleme_dataset):
    """Fresh state + encoder per test (these tests mutate serving state)."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_dataset.log)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    return state, encoder


def _serve_traffic(pipeline, world, num_requests, day=50, seed=13, exposure=6):
    """Serve requests and feed ground-truth clicks back; returns contexts."""
    rng = np.random.default_rng(seed)
    contexts = []
    for _ in range(num_requests):
        context = world.sample_request_context(day, rng)
        impression = pipeline.run(context)
        probabilities = world.click_probabilities(
            context.user_index, impression.items, context.hour, context.city,
            (context.latitude, context.longitude),
            positions=np.arange(len(impression)), rng=rng,
        )
        clicks = (rng.random(len(impression)) < probabilities).astype(np.float32)
        pipeline.feedback(impression, clicks, rng=rng)
        contexts.append(context)
    return contexts


# ---------------------------------------------------------------------- #
# replay buffer
# ---------------------------------------------------------------------- #
def test_replay_logs_every_exposure_including_no_click(
    eleme_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=10, exposure_size=5),
    )
    replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=100))

    # Zero-click feedback must still be logged: those rows are the negatives.
    context = eleme_dataset.world.sample_request_context(50, np.random.default_rng(0))
    impression = pipeline.run(context)
    pipeline.feedback(impression, np.zeros(len(impression), dtype=np.float32))
    assert len(replay) == 1
    assert replay.rows_logged == len(impression)
    assert replay.clicks_logged == 0

    _serve_traffic(pipeline, eleme_dataset.world, 20)
    assert len(replay) == 21
    assert replay.impressions_logged == 21
    assert replay.num_rows == replay.rows_logged

    batch = replay.merged_batch()
    assert len(batch["labels"]) == replay.num_rows
    assert batch["behavior"].shape[0] == replay.num_rows
    assert batch["behavior"].shape[1] == eleme_dataset.schema.max_sequence_length
    # Sessions number the impressions in window order.
    assert batch["session"].max() == len(replay) - 1
    # Positions reflect display order within each exposure.
    assert batch["position"].max() < 5
    for name, ids in batch["fields"].items():
        assert ids.shape[0] == replay.num_rows, name


def test_replay_window_evicts_oldest(eleme_dataset, small_model_config, serving_setup):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=8, exposure_size=4),
    )
    replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=5))
    _serve_traffic(pipeline, eleme_dataset.world, 12)

    assert len(replay) == 5                      # window bounded
    assert replay.impressions_logged == 12       # lifetime counter keeps going
    window_batch = replay.merged_batch(last_n=3)
    assert window_batch["session"].max() == 2


def test_replay_captures_pre_feedback_features(
    eleme_dataset, small_model_config, serving_setup
):
    """The logged behaviour sequence must not contain the clicked item itself."""
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=8, exposure_size=4),
    )
    replay = state.attach_replay(ReplayBuffer(encoder))

    rng = np.random.default_rng(1)
    context = eleme_dataset.world.sample_request_context(50, rng)
    history_before = len(state.history(context.user_index))
    impression = pipeline.run(context)
    clicks = np.zeros(len(impression), dtype=np.float32)
    clicks[0] = 1.0
    pipeline.feedback(impression, clicks, rng=rng)

    assert len(state.history(context.user_index)) == history_before + 1
    logged = replay.merged_batch()
    # The logged mask reflects the pre-click history length.
    expected = min(history_before, eleme_dataset.schema.max_sequence_length)
    assert int(logged["behavior_mask"][0].sum()) == expected


# ---------------------------------------------------------------------- #
# incremental refresh
# ---------------------------------------------------------------------- #
def test_incremental_refresh_learns_and_decays_lr(
    eleme_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=10, exposure_size=5),
    )
    replay = state.attach_replay(ReplayBuffer(encoder))
    _serve_traffic(pipeline, eleme_dataset.world, 60)

    config = OnlineTrainConfig(batch_size=64, passes_per_refresh=2,
                               learning_rate=0.05, lr_decay=0.5, seed=3)
    trainer = IncrementalTrainer(model, config)
    assert trainer.learning_rate == pytest.approx(0.05)

    first = trainer.refresh(replay)
    assert not first.skipped
    assert first.steps > 0
    assert first.rows == replay.num_rows
    assert trainer.total_steps == first.steps
    # Training on the window lowers its BCE loss (warm start, untrained head).
    second = trainer.refresh(replay)
    assert second.mean_loss < first.mean_loss
    assert second.learning_rate == pytest.approx(0.025)
    assert trainer.rounds_completed == 2


def test_incremental_refresh_skips_tiny_windows(
    eleme_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=8, exposure_size=4),
    )
    replay = state.attach_replay(ReplayBuffer(encoder))
    _serve_traffic(pipeline, eleme_dataset.world, 3)

    before = {key: value.copy() for key, value in model.state_dict().items()}
    trainer = IncrementalTrainer(model, OnlineTrainConfig(min_impressions=8))
    result = trainer.refresh(replay)
    assert result.skipped
    assert trainer.rounds_completed == 0
    for key, value in model.state_dict().items():
        assert np.array_equal(before[key], value), key


def test_in_place_refresh_never_scores_with_stale_tables(
    eleme_dataset, small_model_config, fast_train_config, serving_setup
):
    """score -> refresh in place -> score: the fused path follows the weights.

    The refresh loop trains the very object the ranker holds (and then
    ``swap_model``-s it back in), so a trainer that left ``serving_uid``
    alone kept the ranker on item tables frozen from the *old* weights.
    """
    state, encoder = serving_setup
    world = eleme_dataset.world
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        world, model, encoder, state,
        PipelineConfig(recall_size=10, exposure_size=5),
    )
    replay = state.attach_replay(ReplayBuffer(encoder))
    _serve_traffic(pipeline, world, 60)
    requests = generate_burst(world, 6, recall_size=10, seed=5)
    ranker = pipeline.stage("rank").ranker

    def assert_fused_matches_full_forward():
        batch, offsets = encoder.encode_many(
            [r.context for r in requests], [r.candidates for r in requests], state
        )
        full = model.predict(batch)
        for index, fused in enumerate(ranker.score_many(requests, state)):
            np.testing.assert_allclose(fused, full[offsets[index]:offsets[index + 1]],
                                       atol=1e-6)

    before = ranker.score_many(requests, state)
    uid = model.serving_uid
    trainer = IncrementalTrainer(model, OnlineTrainConfig(batch_size=64, learning_rate=0.05,
                                                          seed=3))
    assert not trainer.refresh(replay).skipped
    assert not np.array_equal(before[0], ranker.score_many(requests, state)[0])
    assert_fused_matches_full_forward()      # without a swap
    pipeline.swap_model(model)
    assert_fused_matches_full_forward()      # and with one
    assert model.serving_uid != uid

    uid = model.serving_uid
    Trainer(fast_train_config).fit(model, eleme_dataset.train)
    assert_fused_matches_full_forward()
    assert model.serving_uid != uid


# ---------------------------------------------------------------------- #
# hot swap
# ---------------------------------------------------------------------- #
def test_hot_swap_serves_exactly_the_new_model(
    eleme_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    old = create_model("base_din", eleme_dataset.schema, small_model_config)
    new = create_model("base_din", eleme_dataset.schema,
                       type(small_model_config)(**{**small_model_config.__dict__, "seed": 9}))
    pipeline = build_pipeline(
        eleme_dataset.world, old, encoder, state,
        PipelineConfig(recall_size=10, exposure_size=5),
    )

    rng = np.random.default_rng(4)
    context = eleme_dataset.world.sample_request_context(50, rng)
    candidates = pipeline.stage("recall").strategy.recall(context)

    previous = pipeline.swap_model(new)
    assert previous is old
    assert pipeline.stage("rank").ranker.model is new

    swapped_scores = pipeline.stage("rank").ranker.score(context, candidates, state)
    reference_scores = Ranker(new, encoder).score(context, candidates, state)
    assert np.array_equal(swapped_scores, reference_scores)


def test_hot_swap_keeps_pinned_tables_drops_volatile(
    eleme_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=10, exposure_size=5),
    )
    _serve_traffic(pipeline, eleme_dataset.world, 10)
    assert state.features.num_pinned > 0
    assert state.features.num_volatile > 0
    pinned_before = state.features.num_pinned

    pipeline.swap_model(create_model("base_din", eleme_dataset.schema, small_model_config))
    assert state.features.num_volatile == 0
    assert state.features.num_pinned == pinned_before


def test_hot_swap_rejects_schema_mismatch(
    eleme_dataset, public_dataset, small_model_config, serving_setup
):
    state, encoder = serving_setup
    model = create_model("base_din", eleme_dataset.schema, small_model_config)
    pipeline = build_pipeline(
        eleme_dataset.world, model, encoder, state,
        PipelineConfig(recall_size=8, exposure_size=4),
    )
    alien = create_model("base_din", public_dataset.schema, small_model_config)
    with pytest.raises(ValueError, match="schema"):
        pipeline.swap_model(alien)


# ---------------------------------------------------------------------- #
# canary promotion in the A/B simulator
# ---------------------------------------------------------------------- #
def test_ab_simulator_promotes_mid_experiment(
    eleme_dataset, small_model_config, serving_setup, tmp_path
):
    state, encoder = serving_setup
    frozen = create_model("base_din", eleme_dataset.schema, small_model_config)
    treatment = create_model("base_din", eleme_dataset.schema, small_model_config)
    simulator = ABTestSimulator(
        eleme_dataset.world, frozen, treatment, encoder, state,
        ABTestConfig(num_days=2, requests_per_day=30, recall_size=8,
                     exposure_size=4, seed=17),
    )
    store = ModelStore(tmp_path / "store")
    promoted_days = []

    def refresh_and_promote(day, sim):
        if day != 1:
            return
        version = store.publish(treatment, step_count=day)
        refreshed, _ = store.load(version.name, eleme_dataset.schema)
        sim.promote(refreshed)
        promoted_days.append(day)
        assert sim.treatment_ranker.model is refreshed
        assert state.features.num_volatile == 0

    result = simulator.run(start_day=60, on_day_end=refresh_and_promote)
    assert promoted_days == [1]
    assert len(result.daily) == 2
    assert result.control.exposures > 0 and result.treatment.exposures > 0

    with pytest.raises(ValueError, match="bucket"):
        simulator.promote(treatment, bucket="holdout")
