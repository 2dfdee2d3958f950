"""Tests for the micro-batched serving engine: parity, edge cases, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    FeatureCache,
    OnlineRequestEncoder,
    PipelineConfig,
    Ranker,
    ScoreRequest,
    ServingState,
    build_pipeline,
    generate_burst,
)


@pytest.fixture(scope="module")
def engine_setup(eleme_dataset, small_model_config):
    """State carried over from the offline log, encoder, and a BASM model."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_dataset.log)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    return state, encoder, model


class TestBatchedScoreParity:
    def test_batched_scores_match_per_request_loop(self, eleme_dataset, engine_setup,
                                                   flat_join):
        """Served scores equal the flat per-request forward.

        Two definitions of one model meet here — the flat ``forward`` and the
        request-factored serving path — so the band is the fused path's 1e-6
        (float re-association), and the exposed items (the pipeline's top
        ``exposure_size``) must come out in the same order.
        That packing changes nothing is a separate, exact oracle (below).
        """
        state, encoder, model = engine_setup
        requests = generate_burst(eleme_dataset.world, 40, recall_size=12, seed=3)

        # Seed-style per-request loop: flat layout, no cross-request cache.
        state.features.clear()
        state.features.enabled = False
        sequential = []
        for request in requests:
            batch, _ = flat_join(encoder, [request.context], [request.candidates], state)
            sequential.append(model.predict(batch))
        state.features.enabled = True
        state.features.clear()

        scorer = Ranker(model, encoder, max_batch_rows=128)
        batched = scorer.score_many(requests, state)
        assert scorer.batches_run > 1
        exposed = PipelineConfig().exposure_size
        for left, right in zip(sequential, batched):
            np.testing.assert_allclose(left, right, atol=1e-6)
            np.testing.assert_array_equal(
                np.argsort(-left, kind="stable")[:exposed],
                np.argsort(-right, kind="stable")[:exposed],
            )

    def test_parity_across_micro_batch_sizes(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        requests = generate_burst(eleme_dataset.world, 16, recall_size=10, seed=4)
        reference = Ranker(model, encoder, max_batch_rows=10_000).score_many(requests, state)
        for rows in (1, 7, 64):
            scores = Ranker(model, encoder, max_batch_rows=rows).score_many(requests, state)
            for left, right in zip(reference, scores):
                assert np.array_equal(left, right)

    def test_single_candidate_request_parity(self, eleme_dataset, engine_setup):
        """A 1-candidate request must score identically alone and inside a batch."""
        state, encoder, model = engine_setup
        requests = generate_burst(eleme_dataset.world, 4, recall_size=8, seed=14)
        lone = ScoreRequest(requests[0].context, requests[0].candidates[:1])
        mixed = [requests[1], lone, requests[2]]
        batched = Ranker(model, encoder).score_many(mixed, state)[1]
        solo = Ranker(model, encoder).score_many([lone], state)[0]
        assert np.array_equal(solo, batched)


class TestEncodeSplitBatchInvariance:
    PER_ROW = ("candidates", "item_field", "combine_ids")
    PER_REQUEST = ("user_rows", "context_rows")
    PER_SLOT = ("behavior_unique", "behavior_mask_unique", "behavior_st_mask_unique")

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    def test_a_request_alone_encodes_as_its_slice_of_a_ragged_batch(
            self, eleme_dataset, engine_setup, cached):
        """Each request's ``encode_split`` arrays, encoded alone, equal its
        slice of one ragged 64-request batch byte for byte: its rows, its
        user and context row, its behaviour slot.  A request with no
        candidates owns no rows and no slot.  With the cache off the batch
        and the lone call compute every array themselves."""
        state, encoder, _ = engine_setup
        rng = np.random.default_rng(21)
        requests = generate_burst(eleme_dataset.world, 64, recall_size=12, seed=21)
        contexts = [request.context for request in requests]
        candidate_lists = [request.candidates[: rng.integers(0, 13)] for request in requests]
        candidate_lists[5] = candidate_lists[5][:0]
        state.features.clear()
        state.features.enabled = cached
        try:
            batch, offsets = encoder.encode_split(contexts, candidate_lists, state)
            alone = [encoder.encode_split([context], [candidates], state)
                     for context, candidates in zip(contexts, candidate_lists)]
        finally:
            state.features.enabled = True
            state.features.clear()

        assert set(batch) == {"row_map", "behavior_row_map",
                              *self.PER_ROW, *self.PER_REQUEST, *self.PER_SLOT}
        assert len(offsets) == 65 and offsets[6] == offsets[5]
        for index, (split, lone_offsets) in enumerate(alone):
            rows = slice(offsets[index], offsets[index + 1])
            count = rows.stop - rows.start
            assert lone_offsets.tolist() == [0, count]
            slot = batch["behavior_row_map"][rows][:1]
            slots = slice(int(slot[0]), int(slot[0]) + 1) if count else slice(0, 0)
            assert np.array_equal(batch["behavior_row_map"][rows], np.repeat(slot, count))
            for names, part in ((self.PER_ROW, rows), (self.PER_REQUEST, slice(index, index + 1)),
                                (self.PER_SLOT, slots)):
                for name in names:
                    expected = batch[name][part]
                    assert split[name].dtype == expected.dtype, (index, name)
                    assert split[name].shape == expected.shape, (index, name)
                    assert split[name].tobytes() == expected.tobytes(), (index, name)
            assert split["row_map"].tolist() == [0] * count
            assert split["behavior_row_map"].tolist() == [0] * count


class TestRankerEdgeCases:
    def test_top_k_larger_than_candidate_count(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        request = generate_burst(eleme_dataset.world, 1, recall_size=6, seed=6)[0]
        ranked = Ranker(model, encoder).rank_many([request], state, top_k=50)[0]
        assert len(ranked) == len(request.candidates)
        assert np.all(np.diff(ranked.scores) <= 1e-9)

    def test_empty_candidate_set(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        rng = np.random.default_rng(7)
        context = eleme_dataset.world.sample_request_context(70, rng)
        empty = ScoreRequest(context, np.zeros(0, dtype=np.int64))
        scores = Ranker(model, encoder).score_many([empty], state)
        assert scores[0].shape == (0,)
        ranked = Ranker(model, encoder).rank_many([empty], state, top_k=5)[0]
        assert len(ranked) == 0

    def test_encode_and_predict_with_empty_candidates(self, eleme_dataset, engine_setup,
                                                      flat_join):
        """The raw encode -> score path must survive an empty recall result."""
        state, encoder, model = engine_setup
        rng = np.random.default_rng(15)
        context = eleme_dataset.world.sample_request_context(73, rng)
        tables = model.precompute_item_tables(encoder.item_static_table(state))
        split, _ = encoder.encode_split([context], [np.zeros(0, dtype=np.int64)], state)
        assert model.score_two_tower(split, tables).shape == (0,)
        batch, _ = flat_join(encoder, [context], [np.zeros(0, dtype=np.int64)], state)
        assert model.predict(batch).shape == (0,)
        # Mixed inside one encoded batch: the empty request contributes no
        # rows and no behaviour slot, so every other request scores normally.
        other = generate_burst(eleme_dataset.world, 2, recall_size=7, seed=16)
        split, offsets = encoder.encode_split(
            [other[0].context, context, other[1].context],
            [other[0].candidates, np.zeros(0, dtype=np.int64), other[1].candidates],
            state,
        )
        assert split["behavior_unique"].shape[0] == 2
        scores = model.score_two_tower(split, tables)
        assert len(scores) == len(other[0].candidates) + len(other[1].candidates)
        assert offsets[1] == offsets[2]

    def test_mixed_empty_and_non_empty_requests(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        rng = np.random.default_rng(8)
        context = eleme_dataset.world.sample_request_context(71, rng)
        full = generate_burst(eleme_dataset.world, 3, recall_size=8, seed=9)
        requests = [full[0], ScoreRequest(context, np.zeros(0, dtype=np.int64)), full[1], full[2]]
        scores = Ranker(model, encoder).score_many(requests, state)
        assert [len(s) for s in scores] == [len(r) for r in requests]
        reference = Ranker(model, encoder).score_many(full, state)
        assert np.array_equal(scores[0], reference[0])

    def test_single_request_batch(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        request = generate_burst(eleme_dataset.world, 1, recall_size=8, seed=10)[0]
        scorer = Ranker(model, encoder)
        scores = scorer.score_many([request], state)
        assert len(scores) == 1 and len(scores[0]) == len(request.candidates)
        assert scorer.batches_run == 1

    @pytest.mark.parametrize("bad", [-1, "num_items"])
    def test_a_candidate_id_outside_the_item_range_is_refused(self, eleme_dataset,
                                                              engine_setup, bad):
        """Not wrapped to the last item (-1) and not a bare IndexError (num_items):
        refused, by name, before the encoder reads the state or its cache."""
        state, encoder, model = engine_setup
        bad = eleme_dataset.world.config.num_items if bad == "num_items" else bad
        request = generate_burst(eleme_dataset.world, 1, recall_size=4, seed=12)[0]
        candidates = np.array([bad, *request.candidates[:2]])
        ranker = Ranker(model, encoder)
        match = rf"candidate item ids must lie in \[0, \d+\), got \[{bad}\]"
        with pytest.raises(ValueError, match=match):
            ranker.rank(request.context, candidates, state, top_k=3)
        with pytest.raises(ValueError, match=match):
            ranker.score(request.context, candidates, state)
        with pytest.raises(ValueError, match=match):
            encoder.encode_split([request.context], [candidates], state=None)

    def test_invalid_arguments(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        with pytest.raises(ValueError):
            Ranker(model, encoder, max_batch_rows=0)
        with pytest.raises(ValueError):
            Ranker(model, encoder).rank_many([], state, top_k=0)


class TestRankerBatchedPaths:
    def test_rank_many_matches_rank(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        requests = generate_burst(eleme_dataset.world, 5, recall_size=10, seed=11)
        ranker = Ranker(model, encoder)
        batched = ranker.rank_many(requests, state, top_k=4)
        for request, ranked in zip(requests, batched):
            items, scores = ranker.rank(request.context, request.candidates, state, top_k=4)
            np.testing.assert_array_equal(items, ranked.items)
            np.testing.assert_allclose(scores, ranked.scores, atol=1e-8)

    def test_platform_serve_many_matches_serve_order(self, eleme_dataset, engine_setup,
                                                     small_model_config):
        state, encoder, model = engine_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=12, exposure_size=5),
        )
        rng = np.random.default_rng(12)
        contexts = [eleme_dataset.world.sample_request_context(72, rng) for _ in range(6)]
        impressions = pipeline.run_many(contexts)
        assert len(impressions) == 6
        assert all(len(impression) == 5 for impression in impressions)


class TestServePathParity:
    """Batched and sequential serving must agree end to end.

    The seed recall drew from a generator shared across requests, so
    ``serve_many`` (which recalls in burst order) and ``serve`` (request by
    request, interleaved with other traffic) produced different candidate
    pools.  With per-request deterministic recall randomness the two paths
    must produce identical pools — and therefore identical exposures and
    scores.
    """

    def test_serve_and_serve_many_identical_pools_and_scores(
        self, eleme_dataset, engine_setup
    ):
        state, encoder, model = engine_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=14, exposure_size=5),
        )
        rng = np.random.default_rng(21)
        contexts = [eleme_dataset.world.sample_request_context(75, rng) for _ in range(10)]
        batched = pipeline.run_many(contexts)
        sequential = [pipeline.run(context) for context in contexts]
        for left, right in zip(sequential, batched):
            np.testing.assert_array_equal(left.items, right.items)
            np.testing.assert_array_equal(left.scores, right.scores)

    def test_recall_pools_independent_of_serving_order(self, eleme_dataset, engine_setup):
        state, encoder, model = engine_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state,
            PipelineConfig(recall_size=12, exposure_size=4),
        )
        rng = np.random.default_rng(22)
        contexts = [eleme_dataset.world.sample_request_context(76, rng) for _ in range(6)]
        recall = pipeline.stage("recall").strategy
        forward = [recall.recall(context) for context in contexts]
        backward = [recall.recall(context) for context in reversed(contexts)]
        for pool, again in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(pool, again)


class TestFeatureCache:
    def test_lookup_hit_and_version_expiry(self):
        cache = FeatureCache()
        calls = []
        assert cache.lookup("k", 0, lambda: calls.append(1) or "v0") == "v0"
        assert cache.lookup("k", 0, lambda: calls.append(1) or "again") == "v0"
        assert cache.hits == 1 and cache.misses == 1
        # New version rebuilds.
        assert cache.lookup("k", 1, lambda: "v1") == "v1"
        assert cache.misses == 2
        assert 0.0 < cache.hit_rate < 1.0

    def test_disabled_cache_still_serves_pinned_entries(self):
        cache = FeatureCache(enabled=False)
        assert cache.lookup("static", 0, lambda: "table", pinned=True) == "table"
        assert cache.lookup("static", 0, lambda: "rebuilt", pinned=True) == "table"
        assert cache.lookup("mutable", 0, lambda: "fresh") == "fresh"
        assert cache.lookup("mutable", 0, lambda: "fresher") == "fresher"

    def test_eviction_bound_spares_pinned_entries(self):
        cache = FeatureCache(max_entries=3)
        cache.lookup("static", 0, lambda: "table", pinned=True)
        for index in range(10):
            cache.lookup(("user", index), 0, lambda: index)
        assert len(cache) == 3 + 1
        # Oldest mutable entries were evicted, the pinned table was not.
        assert cache.lookup("static", 0, lambda: "rebuilt", pinned=True) == "table"
        rebuilt = cache.lookup(("user", 0), 0, lambda: "rebuilt")
        assert rebuilt == "rebuilt"

    def test_record_clicks_invalidates_behavior_entries(self, eleme_dataset, engine_setup):
        """Feedback must expire the user's cached behaviour snapshot."""
        state, encoder, model = engine_setup
        request = generate_burst(eleme_dataset.world, 1, recall_size=8, seed=13)[0]
        context = request.context
        before, _ = encoder.encode_split([context], [request.candidates], state)
        state.record_clicks(context, request.candidates[:2], np.array([1.0, 1.0]),
                            rng=np.random.default_rng(0))
        after, _ = encoder.encode_split([context], [request.candidates], state)
        # The clicked items entered the history, so the snapshot must differ.
        assert not np.array_equal(before["behavior_unique"], after["behavior_unique"]) or (
            not np.array_equal(before["behavior_mask_unique"], after["behavior_mask_unique"])
        )
