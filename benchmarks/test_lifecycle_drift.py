"""Model lifecycle under drift: frozen serving vs the continuous-refresh loop.

The paper's deployment never serves a frozen model: OFOS click distributions
move by hour, day, and district, so the production system retrains on fresh
logs and redeploys continuously.  This benchmark reproduces that story on the
synthetic world:

1. train a registry model offline and publish it to a versioned
   :class:`repro.models.ModelStore`;
2. reload the checkpoint and hot-swap it into a running
   :class:`ServingPipeline` — scores must be **bitwise identical** to
   the original in-memory model (checkpointing is not allowed to change a
   single prediction);
3. shift the world's ground-truth preferences
   (:meth:`SyntheticWorld.drift_preferences`) and serve several days of
   traffic, logging impressions/clicks into the replay buffer;
4. every evening, the :class:`IncrementalTrainer` refreshes a warm-started
   copy on the day's log, publishes the next version, and hot-swaps it into
   the pipeline (pinned feature tables survive, behaviour snapshots expire);
5. finally both models score a fresh late-window slice labelled by the
   *drifted* click model — the refreshed model must beat the frozen one.
"""

from __future__ import annotations

import numpy as np

from repro.data import ElemeDatasetConfig, LogGenerator, make_eleme_dataset
from repro.models import ModelStore, create_model
from repro.serving import (
    OnlineRequestEncoder,
    PipelineConfig,
    ReplayBuffer,
    ServingState,
    auc_on_slice,
    build_pipeline,
    sample_labeled_slice,
)
from repro.training import IncrementalTrainer, OnlineTrainConfig, Trainer

from .conftest import (
    _SCALE,
    MODEL_CONFIG,
    TRAIN_CONFIG,
    format_rows,
    save_result,
)

if _SCALE == "large":
    DATASET_CONFIG = ElemeDatasetConfig(
        num_users=8000, num_items=2000, num_days=7, sessions_per_day=1200, seed=31
    )
    SERVING_DAYS, REQUESTS_PER_DAY, EVAL_REQUESTS = 4, 900, 1200
else:
    DATASET_CONFIG = ElemeDatasetConfig(
        num_users=2500, num_items=800, num_cities=4, num_days=5,
        sessions_per_day=450, seed=31,
    )
    SERVING_DAYS, REQUESTS_PER_DAY, EVAL_REQUESTS = 3, 400, 700

RECALL_SIZE = 12
EXPOSURE_SIZE = 6
DRIFT_MAGNITUDE = 1.0


def _serve_day(pipeline, world, state, day, num_requests, rng, window=64):
    """One simulated day: micro-batched serving with ground-truth feedback."""
    contexts = [world.sample_request_context(day, rng) for _ in range(num_requests)]
    for start in range(0, len(contexts), window):
        impressions = pipeline.run_many(contexts[start:start + window])
        for impression in impressions:
            context = impression.context
            probabilities = world.click_probabilities(
                context.user_index, impression.items, context.hour, context.city,
                (context.latitude, context.longitude),
                positions=np.arange(len(impression)), rng=rng,
            )
            clicks = (rng.random(len(impression)) < probabilities).astype(np.float32)
            pipeline.feedback(impression, clicks, rng=rng)


def test_refreshed_model_beats_frozen_under_drift(tmp_path):
    dataset = make_eleme_dataset(DATASET_CONFIG)
    world, schema = dataset.world, dataset.schema

    # --- offline phase: train and publish v1 ------------------------------ #
    frozen = create_model("base_din", schema, MODEL_CONFIG)
    offline = Trainer(TRAIN_CONFIG).fit(frozen, dataset.train)
    store = ModelStore(tmp_path / "model_store")
    v1 = store.publish(frozen, step_count=offline.steps, metadata={"phase": "offline"})

    generator = LogGenerator(world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    encoder = OnlineRequestEncoder(world, schema)

    # --- checkpoint -> reload -> hot-swap parity --------------------------- #
    reloaded, _ = store.load(v1.name, schema)
    pipeline = build_pipeline(
        world, frozen, encoder, state,
        PipelineConfig(recall_size=RECALL_SIZE, exposure_size=EXPOSURE_SIZE),
    )
    ranker = pipeline.stage("rank").ranker
    rng = np.random.default_rng(101)
    probe = world.sample_request_context(dataset.config.num_days, rng)
    candidates = pipeline.stage("recall").strategy.recall(probe)
    in_memory_scores = ranker.score(probe, candidates, state)
    pipeline.swap_model(reloaded)
    reloaded_scores = ranker.score(probe, candidates, state)
    assert np.array_equal(in_memory_scores, reloaded_scores), (
        "a reloaded checkpoint must serve bitwise-identical scores"
    )

    # --- the world drifts; serve + nightly refresh ------------------------- #
    world.drift_preferences(DRIFT_MAGNITUDE, rng=np.random.default_rng(303))
    replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=20_000))
    refreshed = reloaded  # warm start from the deployed parameters
    trainer = IncrementalTrainer(
        refreshed,
        OnlineTrainConfig(batch_size=256, passes_per_refresh=2,
                          replay_window=REQUESTS_PER_DAY,  # the day's slice
                          learning_rate=0.03, lr_decay=0.8, seed=5),
    )

    serve_rng = np.random.default_rng(404)
    start_day = dataset.config.num_days
    refresh_log = []
    for day_offset in range(SERVING_DAYS):
        day = start_day + day_offset
        _serve_day(pipeline, world, state, day, REQUESTS_PER_DAY, serve_rng)
        result = trainer.refresh(replay)
        version = store.publish(
            refreshed, step_count=offline.steps + trainer.total_steps,
            metadata={"phase": "online", "day": day},
        )
        pipeline.swap_model(refreshed)  # promote tonight's build
        refresh_log.append(
            {
                "Day": day_offset + 1,
                "Logged rows": result.rows,
                "Refresh steps": result.steps,
                "Mean loss": round(result.mean_loss, 4),
                "LR": round(result.learning_rate, 4),
                "Published": version.tag,
            }
        )
    assert store.latest_version("base_din") == 1 + SERVING_DAYS

    # --- late-window evaluation under the drifted distribution ------------- #
    requests, labels = sample_labeled_slice(
        world, EVAL_REQUESTS, recall_size=RECALL_SIZE,
        day=start_day + SERVING_DAYS, seed=909,
    )
    frozen_auc = auc_on_slice(frozen, encoder, state, requests, labels)
    refreshed_auc = auc_on_slice(refreshed, encoder, state, requests, labels)

    table = format_rows(refresh_log, title="Nightly refresh rounds")
    summary = (
        f"late-window slice ({EVAL_REQUESTS} requests, drifted world): "
        f"frozen AUC {frozen_auc:.4f} vs refreshed AUC {refreshed_auc:.4f} "
        f"(+{refreshed_auc - frozen_auc:.4f})"
    )
    save_result("lifecycle_drift", table + "\n\n" + summary)

    # The refresh loop must recover a solid chunk of the drifted signal; the
    # margin is a loose regression floor (observed gap ≈ +0.03-0.05 AUC).
    assert refreshed_auc > frozen_auc + 0.005, summary
    assert refreshed_auc >= 0.55, summary
