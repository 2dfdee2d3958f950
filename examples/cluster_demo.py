"""Cluster demo: sharded workers, coalescing queues, cache, rolling deploy.

Builds a 4-worker serving cluster over the synthetic world and walks the
full story end to end:

1. an open-loop burst (every request submitted before any response is
   awaited), coalesced into worker micro-batches, with the per-shard
   request distribution and the cluster-wide merged stage telemetry;
2. byte-parity of the cluster's responses against a single pipeline;
3. the response cache answering a repeat of the identical burst;
4. a rolling deploy of a refreshed model, shard by shard with health
   probes — first a deploy whose health check rejects it (the cluster rolls
   back), then the real promotion.

Run with:  python examples/cluster_demo.py [--requests 400] [--workers 4]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.data import ElemeDatasetConfig, LogGenerator, make_eleme_dataset
from repro.models import ModelConfig, create_model
from repro.serving import (
    ClusterConfig,
    OnlineRequestEncoder,
    PipelineConfig,
    RollingDeploy,
    RollingDeployError,
    ServingState,
    build_cluster,
    build_pipeline,
    sample_burst_contexts,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=400,
                        help="requests in the demo burst")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker replicas in the cluster")
    args = parser.parse_args()

    print("Generating synthetic world and serving state ...")
    dataset = make_eleme_dataset(
        ElemeDatasetConfig(num_users=4000, num_items=1200, num_days=7,
                           sessions_per_day=600, seed=7)
    )
    generator = LogGenerator(dataset.world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    encoder = OnlineRequestEncoder(dataset.world, dataset.schema)
    model_config = ModelConfig(embedding_dim=8, attention_dim=32,
                               tower_units=(128, 64, 32))
    model = create_model("basm", dataset.schema, model_config)

    pipeline_config = PipelineConfig(recall_size=30, exposure_size=10)
    contexts = sample_burst_contexts(dataset.world, args.requests, day=100, seed=11)

    print(f"Starting a {args.workers}-worker cluster "
          "(coalescing queues, response cache) ...")
    frontend = build_cluster(
        dataset.world, model, encoder, state,
        ClusterConfig(num_workers=args.workers, max_batch=64, cache_ttl_seconds=600.0),
        pipeline_config=pipeline_config,
    )

    # ---------------------------------------------------------------- #
    # 1. open-loop burst
    # ---------------------------------------------------------------- #
    responses = frontend.serve_many(contexts)
    print(f"\nServed {len(responses)} requests")
    print(f"{'Shard':12s} {'Requests':>9s} {'Batches':>8s} {'Mean batch':>11s}")
    print("-" * 44)
    for row in frontend.worker_stats():
        print(f"{str(row['worker']):12s} {row['requests_served']:9d} "
              f"{row['batches_run']:8d} {row['mean_batch']:11.1f}")

    merged = frontend.merged_metrics()
    print("\nCluster-wide stage telemetry (merged across workers):")
    for line in merged.summary().split("; "):
        print(f"  {line}")

    # ---------------------------------------------------------------- #
    # 2. byte-parity with a single pipeline
    # ---------------------------------------------------------------- #
    baseline = build_pipeline(
        dataset.world, model, encoder, state, pipeline_config
    ).run_many(contexts)
    mismatches = sum(
        1 for mine, ref in zip(responses, baseline)
        if not np.array_equal(mine.items, ref.items)
    )
    max_diff = max(
        float(np.max(np.abs(mine.scores - ref.scores)))
        for mine, ref in zip(responses, baseline)
    )
    print(f"\nByte-parity vs single pipeline: {mismatches} item mismatches, "
          f"max |score diff| = {max_diff:.2e}")

    # ---------------------------------------------------------------- #
    # 3. the response cache on a repeat burst
    # ---------------------------------------------------------------- #
    frontend.serve_many(contexts)
    cache = frontend.cache.stats()
    print(f"\nIdentical burst again: cache hit rate {cache['hit_rate']:.1%} "
          f"({cache['hits']} hits / {cache['misses']} misses)")

    # ---------------------------------------------------------------- #
    # 4. rolling deploys: a rejected one, then the real one
    # ---------------------------------------------------------------- #
    refreshed = create_model("basm", dataset.schema, replace(model_config, seed=99))
    probes = sample_burst_contexts(dataset.world, 4, day=100, seed=23)

    print("\nRolling deploy with a health check that rejects the new model:")
    picky = RollingDeploy(frontend, probes, health_check=lambda responses: False)
    try:
        picky.run(refreshed)
    except RollingDeployError as error:
        print(f"  {error.report.summary()}")
        print("  cluster kept serving the previous model on every shard")

    print("\nRolling deploy with the default health gate:")
    report = RollingDeploy(frontend, probes).run(refreshed)
    print(f"  {report.summary()}")
    before = frontend.cache.hits
    frontend.serve(contexts[0])
    print(f"  cached responses from the old model are stranded by the version "
          f"bump (hits unchanged: {frontend.cache.hits == before})")

    frontend.close()
    print("\nDone.")


if __name__ == "__main__":
    main()
