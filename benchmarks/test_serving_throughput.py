"""Serving-engine score parity at bench scale (1k-request bursts).

Replays a 1k-request burst of synthetic-world traffic (30 recalled candidates
per request, the paper's production recall size) through the per-request
flat forward and the micro-batched engine — BASM's request-factored serving
path — and asserts the served scores sit within the fused path's 1e-6 band of
the flat ones with the same exposed-item order (up to swaps between items the
flat forward itself ties within that band).  A second test pins the
two-tower rank hot path (frozen item tables + late-bound fusion,
:mod:`repro.models.two_tower`) to the exact full-forward oracle within the
same band on the same kind of burst.  (That micro-batch packing changes no
byte is the ``array_equal`` oracle in ``tests/serving``.)

Nothing here reads a clock: how fast either engine is comes from
``python3 bench/run.py`` (``basm_inproc`` / ``din_proc`` in BENCHMARK.json).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    OnlineRequestEncoder,
    PipelineConfig,
    Ranker,
    ServingState,
    generate_burst,
)

from .conftest import MODEL_CONFIG, save_result


def _max_abs_diff(left_scores, right_scores) -> float:
    return max(
        float(np.max(np.abs(left - right))) if len(left) else 0.0
        for left, right in zip(left_scores, right_scores)
    )


def test_batched_engine_score_parity(eleme_bench, flat_join):
    generator = LogGenerator(eleme_bench.world, eleme_bench.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_bench.log)
    encoder = OnlineRequestEncoder(eleme_bench.world, eleme_bench.schema)
    model = create_model("basm", eleme_bench.schema, MODEL_CONFIG)
    requests = generate_burst(eleme_bench.world, 1000, recall_size=30)

    # Per-request loop (the seed serving path): every request re-encodes its
    # own features — flat per-candidate behaviour layout, no cross-request
    # cache — and runs its own forward pass.
    state.features.clear()
    state.features.enabled = False
    sequential_scores = []
    for request in requests:
        batch, _ = flat_join(encoder, [request.context], [request.candidates], state)
        sequential_scores.append(model.predict(batch))

    # Batched engine from a cold cache: cached, deduplicated encoding, one
    # forward per micro-batch.
    state.features.enabled = True
    state.features.clear()
    scorer = Ranker(model, encoder, max_batch_rows=2048)
    batched_scores = scorer.score_many(requests, state)

    max_diff = _max_abs_diff(sequential_scores, batched_scores)
    cache_hit_rate = state.features.hit_rate
    save_result(
        "serving_throughput",
        f"{len(requests)} requests, {sum(len(r) for r in requests)} rows in "
        f"{scorer.batches_run} micro-batches: score parity max|diff| = "
        f"{max_diff:.2e}, feature-cache hit rate {cache_hit_rate:.1%}",
    )

    # Flat forward vs request-factored serving: same model, float
    # re-association only, and nothing a user sees may move.
    assert scorer.batches_run > 1
    assert max_diff <= 1e-6
    # Exposed-item order: identical, except that at this scale (30k rows of
    # an untrained model) a few requests hold two candidates whose flat
    # scores tie within the band, and those may swap — so compare, slot by
    # slot, the flat score of the item each side exposes there.
    exposed = PipelineConfig().exposure_size
    swapped = 0
    for flat, served in zip(sequential_scores, batched_scores):
        flat_order = np.argsort(-flat, kind="stable")[:exposed]
        served_order = np.argsort(-served, kind="stable")[:exposed]
        swapped += not np.array_equal(flat_order, served_order)
        assert np.max(np.abs(flat[flat_order] - flat[served_order])) <= 1e-6
    assert swapped <= len(requests) // 100
    # Even from a cold start the burst must hit the feature cache (loose floor).
    assert cache_hit_rate >= 0.02, f"feature-cache hit rate {cache_hit_rate:.1%}"


def test_two_tower_rank_parity(eleme_bench, flat_join):
    """Fused two-tower rank vs. the exact full forward on one 1k burst.

    Both passes see the same 64-request scheduling windows: the fused one
    through :class:`Ranker`, the oracle as ``model.predict`` on the window's
    flat batch (``flat_join``), called directly.
    """
    generator = LogGenerator(eleme_bench.world, eleme_bench.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_bench.log)
    encoder = OnlineRequestEncoder(eleme_bench.world, eleme_bench.schema)
    model = create_model("base_din", eleme_bench.schema, MODEL_CONFIG)
    requests = generate_burst(eleme_bench.world, 1000, recall_size=30, seed=17)
    window = 64

    fused = Ranker(model, encoder)
    fused_scores, full_scores = [], []
    for begin in range(0, len(requests), window):
        batch = requests[begin:begin + window]
        fused_scores.extend(fused.score_many(batch, state))
        with nn.no_grad():
            rows, offsets = flat_join(
                encoder, [r.context for r in batch], [r.candidates for r in batch], state
            )
            scores = model.predict(rows)
        full_scores.extend(scores[offsets[i]:offsets[i + 1]] for i in range(len(batch)))
    max_diff = _max_abs_diff(full_scores, fused_scores)
    assert fused.batches_run > 0

    save_result(
        "two_tower_rank",
        f"parity max|diff| = {max_diff:.2e} over {len(requests)} requests",
    )

    # The fused scores must match the exact forward within float
    # re-association — the same 1e-6 band the unit tests pin.
    assert max_diff <= 1e-6
