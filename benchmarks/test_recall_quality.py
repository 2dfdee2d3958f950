"""Recall-stage quality: fused multi-channel vs the proximity stub.

The paper's Fig. 1 pipeline puts a Recall stage in front of the BASM ranker;
until this subsystem existed the reproduction stubbed it with a single
proximity-weighted sampler.  This benchmark measures what the multi-channel
stage buys:

* **recall@pool** — how much of the ground-truth top-``EXPOSURE`` relevant
  set (the items the world's click model would most likely get clicked,
  scored over the whole city pool) each recall strategy captures in a
  ``POOL_SIZE``-item candidate pool;
* **expected exposed CTR** — end-to-end uplift: pools are ranked by a
  trained BASM model and the exposed top-k is scored by the ground-truth
  click probabilities (noise-free, position-free), isolating the recall
  stage's contribution from click sampling variance.

What the indexed geo channel costs per request is measured by
``python3 bench/run.py`` (``recall.geo_us`` / ``recall.batch_ms``).
"""

from __future__ import annotations

import numpy as np

from repro.serving import (
    LocationBasedRecall,
    MultiChannelRecall,
    Ranker,
    generate_burst,
)

from .conftest import format_rows, save_result

POOL_SIZE = 30
EXPOSURE = 10
QUALITY_REQUESTS = 300


def _true_probabilities(world, context, items):
    """Noise-free ground-truth click probability for each item."""
    noise_std = world.config.noise_std
    world.config.noise_std = 0.0
    try:
        return world.click_probabilities(
            context.user_index, np.asarray(items, dtype=np.int64),
            context.hour, context.city, (context.latitude, context.longitude),
        )
    finally:
        world.config.noise_std = noise_std


def test_fused_recall_beats_proximity_stub(eleme_bench, trained_basm, serving_environment):
    state, encoder = serving_environment
    world = eleme_bench.world

    proximity = LocationBasedRecall(world, pool_size=POOL_SIZE, seed=12)
    fused = MultiChannelRecall.build(
        world, state, encoder=encoder, model=trained_basm,
        pool_size=POOL_SIZE, seed=12,
    )
    ranker = Ranker(trained_basm, encoder)

    rng = np.random.default_rng(55)
    contexts = [world.sample_request_context(100, rng) for _ in range(QUALITY_REQUESTS)]

    recall_at_pool = {"proximity": [], "fused": []}
    exposed_ctr = {"proximity": [], "fused": []}
    for context in contexts:
        city_pool = world.recall_pool(context.city)
        truth = _true_probabilities(world, context, city_pool)
        top = min(EXPOSURE, len(city_pool))
        relevant = set(
            int(item) for item in city_pool[np.argsort(-truth, kind="stable")[:top]]
        )
        for name, strategy in (("proximity", proximity), ("fused", fused)):
            pool = strategy.recall(context, POOL_SIZE)
            recall_at_pool[name].append(
                len(relevant.intersection(int(item) for item in pool)) / len(relevant)
            )
            exposed, _ = ranker.rank(context, pool, state, EXPOSURE)
            exposed_ctr[name].append(float(_true_probabilities(world, context, exposed).mean()))

    proximity_recall = float(np.mean(recall_at_pool["proximity"]))
    fused_recall = float(np.mean(recall_at_pool["fused"]))
    proximity_ctr = float(np.mean(exposed_ctr["proximity"]))
    fused_ctr = float(np.mean(exposed_ctr["fused"]))

    rows = [
        {
            "Recall strategy": "proximity stub (full scan)",
            f"Recall@{POOL_SIZE}": round(proximity_recall, 4),
            "Expected exposed CTR": round(proximity_ctr, 4),
        },
        {
            "Recall strategy": "fused multi-channel",
            f"Recall@{POOL_SIZE}": round(fused_recall, 4),
            "Expected exposed CTR": round(fused_ctr, 4),
        },
    ]
    summary = (
        f"recall@{POOL_SIZE} of ground-truth top-{EXPOSURE}: fused {fused_recall:.4f} "
        f"vs proximity {proximity_recall:.4f}; expected exposed CTR uplift "
        f"{(fused_ctr / max(proximity_ctr, 1e-9) - 1.0) * 100:+.2f}%"
    )
    save_result(
        "recall_quality",
        format_rows(rows, title=f"Recall quality ({QUALITY_REQUESTS} requests)")
        + "\n" + summary,
    )

    # Fused multi-channel recall must strictly beat the proximity-only
    # sampler on capturing the ground-truth relevant set...
    assert fused_recall >= proximity_recall + 0.02, summary
    # ...and carry that through ranking into end-to-end exposed CTR.
    assert fused_ctr >= proximity_ctr + 0.01, summary
    # Recall@pool stays near its calibrated level (0.32 ± 35 %): a jump is as
    # suspect as a collapse on a seeded world.
    assert abs(fused_recall - 0.32) <= 0.35 * 0.32, summary


def test_fused_pools_are_deterministic_under_batching(eleme_bench, trained_basm,
                                                      serving_environment):
    """The burst path (one ``recall_many``) recalls the same pools as
    request-at-a-time calls, in either order."""
    state, encoder = serving_environment
    world = eleme_bench.world
    fused = MultiChannelRecall.build(
        world, state, encoder=encoder, model=trained_basm, pool_size=POOL_SIZE, seed=12,
    )
    burst = generate_burst(world, 50, recall_size=POOL_SIZE, day=102, seed=77, recall=fused)
    assert len({request.context.city for request in burst}) > 1
    for request in reversed(burst):
        np.testing.assert_array_equal(fused.recall(request.context), request.candidates)
    for request, pool in zip(burst, fused.recall_many([r.context for r in burst][::-1])[::-1]):
        np.testing.assert_array_equal(pool, request.candidates)
