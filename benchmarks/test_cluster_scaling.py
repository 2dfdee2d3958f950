"""Cluster serving at bench scale: byte-parity, admission, cache sweep.

Replays the same 1k-request synthetic-traffic burst (30 recalled candidates,
the paper's production recall size) through

* the **single-pipeline baseline** — one pipeline serving one request at a
  time, the per-request path a replica without the cluster's coalescing
  frontend runs; and
* **1/2/4-worker clusters** — the sharded frontend taking the burst open
  loop, workers coalescing arrivals into micro-batches.

Asserted, all deterministic:

* cluster responses are **byte-identical** to the single-pipeline baseline
  on the same request set (score parity <= 1e-8, zero item mismatches),
  and admission control rejects nothing at this queue depth;
* replaying the identical burst against a cache-enabled cluster answers
  every repeat request from the response cache;
* ``test_process_cluster_parity``: the same through 1- and 4-process
  clusters (one OS process per replica, shared-memory model tables, pipe
  transport) moves not a single byte of output (diff exactly 0).

How fast any of these configurations is comes from ``python3 bench/run.py``
(``basm_inproc`` / ``din_proc`` in BENCHMARK.json), not from this file.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ClusterConfig,
    OnlineRequestEncoder,
    PipelineConfig,
    ServingState,
    build_cluster,
    build_pipeline,
    sample_burst_contexts,
)

from .conftest import MODEL_CONFIG, format_rows, save_result

NUM_REQUESTS = 1000
DAY, SEED = 100, 11
PIPELINE_CONFIG = PipelineConfig(recall_size=30, exposure_size=10)
CLUSTER_CONFIG = ClusterConfig(max_batch=64, queue_depth=2048, cache_enabled=False)


def _setup(eleme_bench, num_requests):
    """(world, model, encoder, state), the burst, and the byte-parity oracle:
    one pipeline serving the burst one request at a time."""
    generator = LogGenerator(eleme_bench.world, eleme_bench.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_bench.log)
    encoder = OnlineRequestEncoder(eleme_bench.world, eleme_bench.schema)
    model = create_model("basm", eleme_bench.schema, MODEL_CONFIG)
    deployment = (eleme_bench.world, model, encoder, state)
    contexts = sample_burst_contexts(eleme_bench.world, num_requests, day=DAY, seed=SEED)
    pipeline = build_pipeline(*deployment, PIPELINE_CONFIG)
    return deployment, contexts, [pipeline.run(context) for context in contexts]


def _serve(deployment, contexts, baseline, workers, **kwargs):
    """One burst through a fresh cluster, compared with the baseline."""
    with build_cluster(
        *deployment, config=replace(CLUSTER_CONFIG, num_workers=workers),
        pipeline_config=PIPELINE_CONFIG, **kwargs,
    ) as frontend:
        responses, stats = frontend.serve_many(contexts), frontend.stats()
    max_diff, mismatches = 0.0, 0
    for mine, reference in zip(responses, baseline):
        if not np.array_equal(mine.items, reference.items):
            mismatches += 1
        if len(mine.scores) != len(reference.scores):
            mismatches += 1
        elif len(mine.scores):
            max_diff = max(max_diff, float(np.max(np.abs(mine.scores - reference.scores))))
    return {
        "Workers": workers,
        "Requests": len(responses),
        "Mean batch": round(stats["mean_batch"], 1),
        "Rejected": stats["rejected"],
        "Max |score diff|": max_diff,
        "Item mismatches": mismatches,
    }


def test_cluster_parity(eleme_bench):
    deployment, contexts, baseline = _setup(eleme_bench, NUM_REQUESTS)
    rows = [_serve(deployment, contexts, baseline, workers) for workers in (1, 2, 4)]

    # Cache sweep: the identical burst twice against a cache-enabled cluster;
    # the first pass misses, the second is answered entirely from the cache.
    with build_cluster(
        *deployment,
        config=replace(CLUSTER_CONFIG, cache_enabled=True, cache_ttl_seconds=600.0),
        pipeline_config=PIPELINE_CONFIG,
    ) as frontend:
        frontend.serve_many(contexts)
        frontend.serve_many(contexts)
        cache_hit_rate = frontend.cache.hit_rate

    save_result(
        "cluster_scaling",
        format_rows(rows, title="Thread-cluster parity (1k-request burst)")
        + f"\ncache sweep (identical burst twice): hit rate {cache_hit_rate:.1%}",
    )

    # Byte-parity: the cluster is a pure throughput layer over the pipeline,
    # and admission control never dropped a request at this queue depth.
    for row in rows:
        assert row["Item mismatches"] == 0
        assert row["Max |score diff|"] <= 1e-8
        assert row["Rejected"] == 0
    # Identical repeat burst -> the cache answers (first pass misses, second
    # pass hits, so the combined rate approaches 50%; floor well under it).
    assert cache_hit_rate >= 0.4, f"cache hit rate collapsed to {cache_hit_rate:.1%}"


PROC_REQUESTS = 300  # process boots dominate at bench scale; keep the burst tight


def test_process_cluster_parity(eleme_bench):
    deployment, contexts, baseline = _setup(eleme_bench, PROC_REQUESTS)
    rows = [
        _serve(deployment, contexts, baseline, workers, process_workers=True)
        for workers in (1, 4)
    ]

    save_result(
        "proc_cluster_scaling",
        format_rows(rows, title=f"Process-cluster parity ({PROC_REQUESTS}-request burst)"),
    )

    # Crossing a process boundary must not move a single byte of output.
    for row in rows:
        assert row["Item mismatches"] == 0
        assert row["Max |score diff|"] == 0.0
        assert row["Rejected"] == 0
