"""Online refresh: the full model lifecycle on a drifting synthetic world.

Walks the third pillar of the system end to end — offline training, batched
serving, **continuous refresh**:

1. train a model offline and publish it to a versioned model store;
2. reload the checkpoint and hot-swap it into a running serving pipeline
   (bitwise-identical scores, feature cache kept warm);
3. let user preferences drift, serve traffic, and log impressions/clicks
   into the replay buffer;
4. refresh the model nightly with the incremental trainer, publish each
   build, and promote it into serving;
5. compare the frozen and refreshed models on a fresh post-drift slice.

Run with:  python examples/online_refresh.py [--days 3] [--requests-per-day 400]
The model store is written under results/model_store/.  The program exits 1
when the refreshed model's AUC is not above the frozen one's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import ElemeDatasetConfig, LogGenerator, make_eleme_dataset
from repro.models import ModelConfig, ModelStore, create_model
from repro.serving import (
    OnlineRequestEncoder,
    PipelineConfig,
    ReplayBuffer,
    ServingState,
    auc_on_slice,
    build_pipeline,
    sample_labeled_slice,
)
from repro.training import IncrementalTrainer, OnlineTrainConfig, TrainConfig, Trainer

RECALL_SIZE = 12
EXPOSURE_SIZE = 6


def serve_day(pipeline, world, day, num_requests, rng, window=64):
    """Serve one day of traffic in micro-batched windows with click feedback."""
    contexts = [world.sample_request_context(day, rng) for _ in range(num_requests)]
    clicks_seen = 0
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
            clicks_seen += int(clicks.sum())
            pipeline.feedback(impression, clicks, rng=rng)
    return clicks_seen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=3,
                        help="simulated serving days after the drift")
    parser.add_argument("--requests-per-day", type=int, default=400)
    parser.add_argument("--drift", type=float, default=1.0,
                        help="magnitude of the preference drift")
    parser.add_argument("--store", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "results" / "model_store")
    args = parser.parse_args()

    # --- offline phase ---------------------------------------------------- #
    print("Generating synthetic Ele.me-style dataset ...")
    dataset = make_eleme_dataset(
        ElemeDatasetConfig(num_users=2500, num_items=800, num_cities=4,
                           num_days=5, sessions_per_day=450, seed=31)
    )
    world, schema = dataset.world, dataset.schema
    model = create_model("base_din", schema, ModelConfig(tower_units=(128, 64, 32)))
    print("Training the offline model ...")
    offline = Trainer(TrainConfig(epochs=2, batch_size=1024, warmup_steps=50)).fit(
        model, dataset.train
    )

    store = ModelStore(args.store)
    v1 = store.publish(model, step_count=offline.steps, metadata={"phase": "offline"})
    print(f"Published {v1.tag} -> {v1.path}")

    # --- deploy from the store -------------------------------------------- #
    generator = LogGenerator(world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    encoder = OnlineRequestEncoder(world, schema)
    deployed, _ = store.load(v1.name, schema)
    pipeline = build_pipeline(
        world, deployed, encoder, state,
        PipelineConfig(recall_size=RECALL_SIZE, exposure_size=EXPOSURE_SIZE),
    )
    print(f"Deployed {v1.tag} behind the serving pipeline "
          f"(schema fingerprint {schema.fingerprint()}).")

    # --- drift + serve + nightly refresh ----------------------------------- #
    print(f"\nUser preferences drift (magnitude {args.drift}) ...")
    world.drift_preferences(args.drift, rng=np.random.default_rng(303))
    replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=20_000))
    trainer = IncrementalTrainer(
        deployed,
        OnlineTrainConfig(batch_size=256, passes_per_refresh=2,
                          replay_window=args.requests_per_day,  # the day's slice
                          learning_rate=0.03, lr_decay=0.8, seed=5),
    )

    rng = np.random.default_rng(404)
    start_day = dataset.config.num_days
    for day_offset in range(args.days):
        day = start_day + day_offset
        clicks = serve_day(pipeline, world, day, args.requests_per_day, rng)
        result = trainer.refresh(replay)
        version = store.publish(
            deployed, step_count=offline.steps + trainer.total_steps,
            metadata={"phase": "online", "day": day},
        )
        pipeline.swap_model(deployed)
        print(f"  day {day_offset + 1}: {args.requests_per_day} requests, "
              f"{clicks} clicks | refresh {result.steps} steps "
              f"@ lr {result.learning_rate:.4f}, mean loss {result.mean_loss:.4f} "
              f"| promoted {version.tag}")

    # --- the payoff --------------------------------------------------------- #
    frozen, _ = store.load(v1.name, schema, version=v1.version)
    requests, labels = sample_labeled_slice(
        world, 700, recall_size=RECALL_SIZE, day=start_day + args.days, seed=909
    )
    frozen_auc = auc_on_slice(frozen, encoder, state, requests, labels)
    refreshed_auc = auc_on_slice(deployed, encoder, state, requests, labels)
    print("\nLate-window slice under the drifted distribution:")
    print(f"  frozen   {v1.tag}: AUC {frozen_auc:.4f}")
    print(f"  refreshed v{store.latest_version(v1.name):04d}: AUC {refreshed_auc:.4f}"
          f"  (+{refreshed_auc - frozen_auc:.4f})")
    print(f"\nModel store now holds versions {store.versions(v1.name)} "
          f"under {store.root}")
    if refreshed_auc <= frozen_auc:
        sys.exit(f"the refresh did not beat the frozen model: AUC {refreshed_auc:.4f} "
                 f"<= {frozen_auc:.4f}")


if __name__ == "__main__":
    main()
