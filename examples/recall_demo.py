"""Recall-stage demo: what each channel contributes and what fusion buys.

Builds a synthetic world with its serving state, fans a few requests out
over the multi-channel recall subsystem (geohash grid, popularity,
user-history expansion, embedding-ANN), prints the per-channel candidates
with their fused attribution, and compares the fused pool against the seed
proximity-only sampler on ground-truth expected CTR.

Run with:  python examples/recall_demo.py [--requests 200] [--pool-size 30]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.data import ElemeDatasetConfig, LogGenerator, make_eleme_dataset
from repro.models import ModelConfig, create_model
from repro.serving import (
    LocationBasedRecall,
    MultiChannelRecall,
    OnlineRequestEncoder,
    ServingState,
)


def expected_ctr(world, context, items):
    """Noise-free ground-truth click probability, averaged over ``items``."""
    noise_std = world.config.noise_std
    world.config.noise_std = 0.0
    try:
        return float(
            world.click_probabilities(
                context.user_index, np.asarray(items, dtype=np.int64),
                context.hour, context.city,
                (context.latitude, context.longitude),
            ).mean()
        )
    finally:
        world.config.noise_std = noise_std


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=200,
                        help="requests used for the fused-vs-proximity comparison")
    parser.add_argument("--pool-size", type=int, default=30,
                        help="candidate pool size per request")
    args = parser.parse_args()

    print("Generating synthetic world and serving state ...")
    dataset = make_eleme_dataset(
        ElemeDatasetConfig(num_users=3000, num_items=1000, num_days=5,
                           sessions_per_day=500, seed=7)
    )
    world = dataset.world
    generator = LogGenerator(world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    encoder = OnlineRequestEncoder(world, dataset.schema)
    model = create_model(
        "basm", dataset.schema,
        ModelConfig(embedding_dim=8, attention_dim=32, tower_units=(64, 32)),
    )

    fused = MultiChannelRecall.build(
        world, state, encoder=encoder, model=model,
        pool_size=args.pool_size, seed=12,
    )
    proximity = LocationBasedRecall(world, pool_size=args.pool_size, seed=12)

    # --- one request, dissected ---------------------------------------- #
    rng = np.random.default_rng(5)
    context = world.sample_request_context(dataset.config.num_days, rng)
    print(f"\nRequest: user {context.user_index}, city {context.city}, "
          f"hour {context.hour}, geohash {context.geohash}")
    per_channel = {name: found[0] for name, found in fused.channel_results([context]).items()}
    pool = fused.recall(context)
    pool_set = set(int(item) for item in pool)
    print(f"{'Channel':16s} {'returned':>8s} {'in fused pool':>13s}")
    for name in sorted(per_channel):
        candidates = per_channel[name]
        kept = sum(1 for item in candidates if int(item) in pool_set)
        print(f"{name:16s} {len(candidates):8d} {kept:13d}")
    print(f"fused pool: {len(pool)} unique candidates "
          f"(expected CTR {expected_ctr(world, context, pool):.4f} vs "
          f"proximity {expected_ctr(world, context, proximity.recall(context)):.4f})")

    # --- burst comparison ----------------------------------------------- #
    print(f"\nComparing pools over {args.requests} requests ...")
    fused_ctr, proximity_ctr = [], []
    burst = [world.sample_request_context(dataset.config.num_days, rng)
             for _ in range(args.requests)]
    for context, ours, seed_pool in zip(burst, fused.recall_many(burst),
                                        proximity.recall_many(burst)):
        fused_ctr.append(expected_ctr(world, context, ours))
        proximity_ctr.append(expected_ctr(world, context, seed_pool))
    fused_mean, proximity_mean = np.mean(fused_ctr), np.mean(proximity_ctr)
    print(f"mean expected pool CTR: fused {fused_mean:.4f} vs "
          f"proximity {proximity_mean:.4f} "
          f"({(fused_mean / proximity_mean - 1.0) * 100:+.1f}%)")


if __name__ == "__main__":
    main()
