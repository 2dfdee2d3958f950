"""Tests for the multi-channel recall subsystem: channels, fusion, wiring."""

from __future__ import annotations

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import LogGenerator
from repro.data.world import RequestContext, SyntheticWorld, WorldConfig
from repro.models import create_model
from repro.serving import (
    EmbeddingANNChannel,
    GeoGridChannel,
    LocationBasedRecall,
    MultiChannelRecall,
    OnlineRequestEncoder,
    PersonalizationPlatform,
    PopularityChannel,
    RecallChannel,
    RecallFusion,
    ServingState,
    UserHistoryChannel,
    request_rng,
    sample_burst_contexts,
)
from repro.serving.recall import fusion as fusion_module
from repro.serving.recall.channels import _top_k_by_score


@pytest.fixture(scope="module")
def recall_setup(eleme_dataset, small_model_config):
    """Serving state carried over from the offline log, encoder, model."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_dataset.log)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    return state, encoder, model


def _fresh_state(dataset, cold_every=None):
    """A private serving state from the offline log; ``cold_every=k`` strips
    the history of every k-th user (the log bootstraps one for everybody)."""
    generator = LogGenerator(dataset.world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    if cold_every:
        for user in range(0, dataset.world.config.num_users, cold_every):
            state.histories.pop(user, None)
    return state


@pytest.fixture(scope="module")
def batch_setups(eleme_dataset, small_model_config):
    """(strategy, state, 64 contexts) twice: the four-channel stack over a
    state with cold-start users, and a tiny world whose cities are smaller
    than the pool (the top-up corner)."""
    world = eleme_dataset.world
    state = _fresh_state(eleme_dataset, cold_every=7)
    encoder = OnlineRequestEncoder(world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    fused = MultiChannelRecall.build(world, state, encoder=encoder, model=model, pool_size=20)
    contexts = sample_burst_contexts(world, 64, day=60, seed=31)
    assert any(c.user_index not in state.histories for c in contexts)
    tiny = SyntheticWorld(WorldConfig(num_users=40, num_items=12, num_cities=3,
                                      num_brands=8, seed=6))
    tiny_state = ServingState(tiny)
    return [
        (fused, state, contexts),
        (MultiChannelRecall.build(tiny, tiny_state, pool_size=30), tiny_state,
         sample_burst_contexts(tiny, 64, day=1, seed=32)),
    ]


def _context(world, seed=0, day=60):
    return world.sample_request_context(day, np.random.default_rng(seed))


def _context_for_user(world, user_index, day=60, hour=12):
    """A request context pinned to a specific user (at their home)."""
    from repro.features.time_features import hour_to_time_period

    lat, lon = world.user_home[user_index]
    return RequestContext(
        user_index=int(user_index),
        day=day,
        hour=hour,
        time_period=int(hour_to_time_period(hour)),
        city=int(world.user_city[user_index]),
        latitude=float(lat),
        longitude=float(lon),
        geohash=world.user_home_geohash[user_index],
    )


def _cold_state(world):
    """A fresh serving state: every user is a cold-start user (the offline
    log generator bootstraps a history for everyone, so the shared state has
    no cold users)."""
    return ServingState(world)


def _warm_user(world, state, min_events=3):
    for user, history in state.histories.items():
        if len(history) >= min_events:
            return user
    pytest.skip("no warm user in this dataset")


class TestTopK:
    """Ties — at the cut included — go to the earlier pool position."""

    POOL = np.arange(100, 120)

    @staticmethod
    def _by_position(pool, scores, size):
        order = sorted(range(len(pool)), key=lambda slot: (-scores[slot], slot))
        return pool[order[:size]]

    def test_tied_scores_at_the_cut_single_row(self):
        scores = np.random.default_rng(1).integers(0, 3, 20).astype(float)
        top = _top_k_by_score(self.POOL, scores, 5)
        np.testing.assert_array_equal(top, [102, 103, 106, 107, 110])
        np.testing.assert_array_equal(top, self._by_position(self.POOL, scores, 5))

    def test_tied_scores_at_the_cut_matrix(self):
        scores = np.random.default_rng(2).integers(0, 3, (6, 20)).astype(float)
        for size in (1, 5, 19, 20, 40):
            top = _top_k_by_score(self.POOL, scores, size)
            assert top.shape == (6, min(size, 20))
            for row, row_scores in zip(top, scores):
                np.testing.assert_array_equal(
                    row, self._by_position(self.POOL, row_scores, size))
                np.testing.assert_array_equal(
                    row, _top_k_by_score(self.POOL, row_scores, size))


class TestRequestRng:
    def test_deterministic_and_salted(self, eleme_dataset):
        context = _context(eleme_dataset.world)
        a = request_rng(7, context, salt="geo").random(4)
        b = request_rng(7, context, salt="geo").random(4)
        c = request_rng(7, context, salt="pop").random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_distinct_requests_decorrelate(self, eleme_dataset):
        left = _context(eleme_dataset.world, seed=1)
        right = _context(eleme_dataset.world, seed=2)
        assert not np.array_equal(
            request_rng(7, left).random(4), request_rng(7, right).random(4)
        )


class TestLocationBasedRecall:
    def test_order_independent_pools(self, eleme_dataset):
        """The satellite fix: no shared mutated rng, so call order is irrelevant."""
        recall = LocationBasedRecall(eleme_dataset.world, pool_size=10, seed=5)
        a = _context(eleme_dataset.world, seed=3)
        b = _context(eleme_dataset.world, seed=4)
        forward = (recall.recall(a), recall.recall(b))
        backward_b = recall.recall(b)
        backward_a = recall.recall(a)
        np.testing.assert_array_equal(forward[0], backward_a)
        np.testing.assert_array_equal(forward[1], backward_b)

    def test_two_instances_agree(self, eleme_dataset):
        context = _context(eleme_dataset.world, seed=5)
        one = LocationBasedRecall(eleme_dataset.world, pool_size=9, seed=5)
        two = LocationBasedRecall(eleme_dataset.world, pool_size=9, seed=5)
        np.testing.assert_array_equal(one.recall(context), two.recall(context))

    def test_batch_equals_request_at_a_time(self, eleme_dataset):
        recall = LocationBasedRecall(eleme_dataset.world, pool_size=10, seed=5)
        contexts = sample_burst_contexts(eleme_dataset.world, 12, day=60, seed=33)
        for batched, context in zip(recall.recall_many(contexts, 6), contexts):
            np.testing.assert_array_equal(batched, recall.recall(context, 6))


class TestPoolSizeValidation:
    """``None`` is the configured size; zero and negatives are errors, not
    a silent fall-back to the default (``pool_size or self.pool_size``)."""

    @pytest.fixture(params=["proximity", "fused"])
    def strategy(self, request, eleme_dataset, recall_setup):
        if request.param == "proximity":
            return LocationBasedRecall(eleme_dataset.world, pool_size=9)
        return MultiChannelRecall.build(eleme_dataset.world, recall_setup[0], pool_size=9)

    def test_none_means_configured_size(self, strategy, eleme_dataset):
        context = _context(eleme_dataset.world, seed=12)
        assert len(strategy.recall(context)) == 9
        assert len(strategy.recall(context, None)) == 9
        assert [len(pool) for pool in strategy.recall_many([context, context], 4)] == [4, 4]

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_size_raises(self, strategy, eleme_dataset, bad):
        context = _context(eleme_dataset.world, seed=12)
        with pytest.raises(ValueError):
            strategy.recall(context, bad)
        with pytest.raises(ValueError):
            strategy.recall_many([context], pool_size=bad)


class TestGeoGridChannel:
    def test_returns_nearest_items(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        context = _context(world, seed=6)
        channel = GeoGridChannel(world)
        pool = channel.recall(context, state, 12, request_rng(1, context))
        assert 0 < len(pool) <= 12
        assert len(np.unique(pool)) == len(pool)
        distances = world.distance_to_request(pool, context)
        assert np.all(np.diff(distances) >= -1e-12), "pool must be distance-sorted"
        # The indexed result must contain the true nearest item of the city.
        city_pool = world.recall_pool(context.city)
        nearest = city_pool[np.argmin(world.distance_to_request(city_pool, context))]
        assert nearest in pool

    def test_sparse_grid_falls_back_to_city_pool(self):
        world = SyntheticWorld(WorldConfig(num_users=30, num_items=12, num_cities=5,
                                           num_brands=8, seed=3))
        state = ServingState(world)
        channel = GeoGridChannel(world)
        context = _context(world, seed=1, day=2)
        pool = channel.recall(context, state, 10, request_rng(1, context))
        assert len(pool) == min(10, len(world.recall_pool(context.city)))

    def test_empty_city_degrades_to_global_pool(self):
        world = SyntheticWorld(WorldConfig(num_users=30, num_items=15, num_cities=4,
                                           num_brands=8, seed=4))
        empty_city = int(world.item_city[0])
        world.items_by_city[empty_city] = np.zeros(0, dtype=np.int64)
        assert len(world.recall_pool(empty_city)) == world.config.num_items

    def test_deterministic(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        context = _context(eleme_dataset.world, seed=7)
        channel = GeoGridChannel(eleme_dataset.world)
        first = channel.recall(context, state, 10, request_rng(1, context))
        second = channel.recall(context, state, 10, request_rng(1, context))
        np.testing.assert_array_equal(first, second)

    def test_result_independent_of_prior_call_sizes(self, eleme_dataset, recall_setup):
        """The gather cache must not leak a coarser gather (built for a large
        pool) into a later small-pool request — recall is a pure function of
        (request, state, size), whatever was asked before."""
        state, _, _ = recall_setup
        world = eleme_dataset.world
        contexts = [_context(world, seed=s) for s in range(20, 30)]
        warmed = GeoGridChannel(world)
        for context in contexts:
            warmed.recall(context, state, 200, request_rng(1, context))  # forces degradation
        for context in contexts:
            fresh = GeoGridChannel(world).recall(context, state, 8, request_rng(1, context))
            reused = warmed.recall(context, state, 8, request_rng(1, context))
            np.testing.assert_array_equal(fresh, reused)


class TestPopularityChannel:
    def test_ranks_by_live_clicks(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        context = _context(world, seed=8)
        channel = PopularityChannel(world)
        boosted = int(world.recall_pool(context.city)[0])
        original = state.item_clicks[boosted]
        state.item_clicks[boosted] += 10_000
        state.item_period_clicks[boosted, context.time_period] += 10_000
        try:
            pool = channel.recall(context, state, 8, request_rng(1, context))
            assert pool[0] == boosted
        finally:
            state.item_clicks[boosted] = original
            state.item_period_clicks[boosted, context.time_period] -= 10_000

    def test_pool_smaller_than_quota(self):
        world = SyntheticWorld(WorldConfig(num_users=30, num_items=10, num_cities=3,
                                           num_brands=8, seed=5))
        state = ServingState(world)
        context = _context(world, seed=2, day=1)
        pool = PopularityChannel(world).recall(context, state, 50, request_rng(1, context))
        assert len(pool) == len(world.recall_pool(context.city))
        assert len(np.unique(pool)) == len(pool)


class TestUserHistoryChannel:
    def test_cold_start_user_yields_nothing(self, eleme_dataset):
        world = eleme_dataset.world
        state = _cold_state(world)
        context = _context_for_user(world, 0)
        pool = UserHistoryChannel(world).recall(context, state, 10, request_rng(1, context))
        assert len(pool) == 0

    def test_expands_recent_categories_same_city(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        user = _warm_user(world, state)
        context = _context_for_user(world, user)
        history = state.histories[user]
        pool = UserHistoryChannel(world).recall(context, state, 12, request_rng(1, context))
        assert 0 < len(pool) <= 12
        assert len(np.unique(pool)) == len(pool)
        # Every expanded item is in the request's city and shares a category
        # with the history (revisited own clicks included by construction).
        history_categories = set(history.categories)
        for item in pool:
            assert int(world.item_city[item]) == context.city
            assert int(world.item_category[item]) in history_categories

    def test_revisits_recent_same_city_shop_first(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        user = _warm_user(world, state)
        context = _context_for_user(world, user)
        recent_same_city = [
            item for item in reversed(state.histories[user].items)
            if int(world.item_city[item]) == context.city
        ]
        if not recent_same_city:
            pytest.skip("history has no same-city clicks")
        pool = UserHistoryChannel(world).recall(context, state, 12, request_rng(1, context))
        assert pool[0] == recent_same_city[0]


class TestEmbeddingANNChannel:
    def test_cold_start_user_yields_nothing(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        world = eleme_dataset.world
        channel = EmbeddingANNChannel.from_model(world, encoder, model, state)
        cold = _cold_state(world)
        context = _context_for_user(world, 0)
        assert len(channel.recall(context, cold, 10, request_rng(1, context))) == 0

    def test_warm_user_gets_city_candidates(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        world = eleme_dataset.world
        channel = EmbeddingANNChannel.from_model(world, encoder, model, state)
        user = _warm_user(world, state)
        context = _context_for_user(world, user)
        pool = channel.recall(context, state, 10, request_rng(1, context))
        assert 0 < len(pool) <= 10
        assert len(np.unique(pool)) == len(pool)
        assert all(int(world.item_city[item]) == context.city for item in pool)

    def test_export_shapes_and_normalisation(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        table = encoder.item_static_table(state)
        vectors = model.export_item_embeddings(table)
        assert vectors.shape == (
            eleme_dataset.world.config.num_items,
            table.shape[1] * model.config.embedding_dim,
        )
        assert vectors.dtype == np.float32  # the serving dtype, not float64
        norms = np.linalg.norm(vectors, axis=1)
        np.testing.assert_allclose(norms[norms > 1e-6], 1.0, atol=1e-6)
        with pytest.raises(ValueError):
            model.export_item_embeddings(table[0])

    def test_refresh_rejects_mismatched_rows(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        channel = EmbeddingANNChannel.from_model(eleme_dataset.world, encoder, model, state)
        with pytest.raises(ValueError):
            channel.refresh(channel.item_embeddings[:-1])


class TestRecallFusion:
    CHANNELS = {
        "alpha": np.array([1, 2, 3, 4, 5, 6]),
        "bravo": np.array([3, 4, 7, 8, 9, 10]),
        "charlie": np.array([11, 12, 13, 14, 15, 16]),
    }

    def test_no_duplicates_and_truncation(self):
        fused = RecallFusion().fuse(self.CHANNELS, pool_size=9)
        assert len(fused) == 9
        assert len(np.unique(fused)) == 9

    def test_quotas_respected_when_channels_are_deep(self):
        fusion = RecallFusion(quotas={"alpha": 2.0, "bravo": 1.0, "charlie": 1.0})
        fused = fusion.fuse(self.CHANNELS, pool_size=8)
        # alpha owns half the pool, the others a quarter each.
        assert sum(1 for item in fused if item in {1, 2, 3, 4, 5, 6}) >= 4
        counts = fusion.quota_counts(list(self.CHANNELS), 8)
        assert counts == {"alpha": 4, "bravo": 2, "charlie": 2}

    def test_stable_under_channel_permutation(self):
        forward = RecallFusion().fuse(dict(self.CHANNELS), pool_size=9)
        reordered = {name: self.CHANNELS[name] for name in ["charlie", "alpha", "bravo"]}
        backward = RecallFusion().fuse(reordered, pool_size=9)
        np.testing.assert_array_equal(forward, backward)

    def test_short_channel_is_backfilled(self):
        channels = {
            "alpha": np.array([1]),                      # cold-start-like channel
            "bravo": np.array([2, 3, 4, 5, 6, 7, 8, 9]),
        }
        fused = RecallFusion().fuse(channels, pool_size=6)
        assert len(fused) == 6
        assert 1 in fused

    def test_duplicate_across_channels_counted_once(self):
        channels = {"alpha": np.array([1, 2, 3]), "bravo": np.array([1, 2, 3])}
        fused = RecallFusion().fuse(channels, pool_size=6)
        np.testing.assert_array_equal(np.sort(fused), [1, 2, 3])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            RecallFusion(quotas={"alpha": -1.0})
        with pytest.raises(ValueError):
            RecallFusion().fuse(self.CHANNELS, pool_size=0)

    def test_largest_remainder_accounts_every_slot(self):
        counts = RecallFusion(quotas={"a": 1, "b": 1, "c": 1}).quota_counts(
            ["a", "b", "c"], 10
        )
        assert sum(counts.values()) == 10


class TestMultiChannelRecall:
    def test_full_unique_pool(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        recall = MultiChannelRecall.build(
            eleme_dataset.world, state, encoder=encoder, model=model, pool_size=20
        )
        context = _context(eleme_dataset.world, seed=9)
        pool = recall.recall(context)
        assert len(pool) == 20
        assert len(np.unique(pool)) == 20
        override = recall.recall(context, pool_size=7)
        assert len(override) == 7

    def test_deterministic_across_instances(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        context = _context(eleme_dataset.world, seed=10)
        pools = [
            MultiChannelRecall.build(
                eleme_dataset.world, state, encoder=encoder, model=model,
                pool_size=15, seed=11,
            ).recall(context)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(pools[0], pools[1])

    def test_duplicate_channel_names_rejected(self, eleme_dataset, recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        with pytest.raises(ValueError):
            MultiChannelRecall(world, state, [PopularityChannel(world),
                                              PopularityChannel(world)])

    def test_model_requires_encoder(self, eleme_dataset, recall_setup):
        state, _, model = recall_setup
        with pytest.raises(ValueError):
            MultiChannelRecall.build(eleme_dataset.world, state, model=model)

    def test_tiny_city_returns_whole_pool(self):
        world = SyntheticWorld(WorldConfig(num_users=40, num_items=12, num_cities=3,
                                           num_brands=8, seed=6))
        state = ServingState(world)
        recall = MultiChannelRecall.build(world, state, pool_size=30)
        context = _context(world, seed=3, day=1)
        pool = recall.recall(context)
        city_pool = world.recall_pool(context.city)
        assert len(pool) == min(30, len(city_pool))
        assert set(pool) <= set(int(i) for i in city_pool)

    def test_platform_escape_hatch_uses_given_recall(self, eleme_dataset, recall_setup):
        state, encoder, model = recall_setup
        legacy = LocationBasedRecall(eleme_dataset.world, pool_size=9, seed=5)
        platform = PersonalizationPlatform(
            eleme_dataset.world, model, encoder, state,
            recall_size=9, exposure_size=4, recall=legacy,
        )
        assert platform.recall is legacy
        context = _context(eleme_dataset.world, seed=11)
        impression = platform.serve(context)
        assert len(impression) == 4

    def test_swap_model_refreshes_ann_vectors(self, eleme_dataset, recall_setup,
                                              small_model_config):
        state, encoder, model = recall_setup
        world = eleme_dataset.world
        platform = PersonalizationPlatform(
            world, model, encoder, state, recall_size=10, exposure_size=4
        )
        ann = [channel for channel in platform.recall.channels
               if isinstance(channel, EmbeddingANNChannel)]
        assert len(ann) == 1
        before = ann[0].item_embeddings.copy()
        replacement = create_model("basm", eleme_dataset.schema, small_model_config)
        # Same config/seed builds identical embeddings; perturb to make the
        # refresh observable.
        rng = np.random.default_rng(3)
        weight = replacement.embedder.embedding.weight.data
        weight[:] += rng.normal(0.0, 0.5, size=weight.shape).astype(weight.dtype)
        contexts = [
            _context_for_user(world, int(np.flatnonzero(world.user_city == city)[0]))
            for city in sorted(world.items_by_city)
        ]
        stale = ann[0].recall_many(contexts, state, 10, None)
        platform.swap_model(replacement)
        assert not np.array_equal(before, ann[0].item_embeddings)
        # Every city's scoring matrix moved with the swap, not only the
        # item-ordered one: the refreshed channel answers like a fresh build.
        fresh = EmbeddingANNChannel.from_model(world, encoder, replacement, state)
        refreshed = ann[0].recall_many(contexts, state, 10, None)
        for got, want, old in zip(refreshed, fresh.recall_many(contexts, state, 10, None), stale):
            assert len(got) == 10
            np.testing.assert_array_equal(got, want)
            assert not np.array_equal(got, old)

    def test_refresh_is_one_attribute_assignment(self, eleme_dataset, recall_setup):
        """The item-ordered matrix and the per-city matrices are replaced
        together: there is no moment at which a reader can hold one version
        of the first and another of the second."""
        state, encoder, model = recall_setup

        class Recording(EmbeddingANNChannel):
            assigned = None

            def __setattr__(self, name, value):
                if self.assigned is not None:
                    self.assigned.append(name)
                super().__setattr__(name, value)

        channel = Recording.from_model(eleme_dataset.world, encoder, model, state)
        channel.assigned = []
        channel.refresh(channel.item_embeddings * 2.0)
        assert len(channel.assigned) == 1

    def test_scoring_during_refresh_never_mixes_versions(self, eleme_dataset, recall_setup):
        """Scoring threads race a thread that keeps refreshing the vectors:
        every returned list equals one version's — a query built from one
        matrix is never scored against the other's city rows."""
        state, encoder, model = recall_setup
        world = eleme_dataset.world
        channel = EmbeddingANNChannel.from_model(world, encoder, model, state)
        rng = np.random.default_rng(4)
        versions = [channel.item_embeddings.copy(),
                    rng.normal(size=channel.item_embeddings.shape).astype(np.float32)]
        contexts = sample_burst_contexts(world, 6, day=60, seed=34)
        expected = []
        for vectors in versions:
            channel.refresh(vectors)
            expected.append(channel.recall_many(contexts, state, 10, None))
        assert not any(np.array_equal(a, b) for a, b in zip(*expected))
        stop = threading.Event()
        errors, seen = [], set()

        def score():
            try:
                for _ in range(60):
                    for slot, got in enumerate(channel.recall_many(contexts, state, 10, None)):
                        matches = [np.array_equal(got, want[slot]) for want in expected]
                        assert any(matches), "list belongs to neither version"
                        seen.add(matches.index(True))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def refresh():
            flip = 0
            while not stop.is_set():
                flip ^= 1
                channel.refresh(versions[flip])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            refresher = threading.Thread(target=refresh)
            scorers = [threading.Thread(target=score) for _ in range(4)]
            refresher.start()
            for thread in scorers:
                thread.start()
            for thread in scorers:
                thread.join(timeout=120)
            stop.set()
            refresher.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in scorers + [refresher])
        assert not errors, errors
        assert seen == {0, 1}


class _DrawingChannel(RecallChannel):
    """A channel that does draw: shuffles the city pool with its stream."""

    name = "drawing"

    def __init__(self, world):
        self.world = world
        self.draws = []

    def recall_many(self, contexts, state, size, rng_for):
        out = []
        for context in contexts:
            rng = rng_for(context)
            self.draws.append(rng.random(4))
            out.append(rng.permutation(self.world.recall_pool(context.city))[:size])
        return out


class _CountingLock:
    def __init__(self, lock):
        self.lock, self.acquisitions = lock, 0

    def __enter__(self):
        self.acquisitions += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class _LengthProbe(list):
    """A history list that logs its length whenever a window is sliced off,
    then yields the interpreter for ``pause`` seconds — long enough for a
    feedback thread that is not locked out to append in between."""

    def __init__(self, values, log, pause=0.0):
        super().__init__(values)
        self.log, self.pause = log, pause

    def __getitem__(self, key):
        self.log.append(len(self))
        time.sleep(self.pause)
        return super().__getitem__(key)


class TestBatchContract:
    """``recall_many`` is the implementation and ``recall`` the batch of one:
    a pool never depends on which other requests share its batch."""

    PARENT_DIGEST = "73c0758aea805f685d5191550bb697fc251f615ab968e8815bdb4a483b5e62d1"

    @settings(max_examples=40)
    @given(
        setup=st.integers(min_value=0, max_value=1),
        picks=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=40),
        size=st.sampled_from([1, 7, 20, 45]),
    )
    def test_pool_independent_of_batch_composition(self, batch_setups, setup, picks, size):
        """Random subsets, orders and repeats of a fixed 64-context sample."""
        strategy, state, sample = batch_setups[setup]
        batch = [sample[pick] for pick in picks]

        def rng_for(context):
            return request_rng(1, context)

        for slot, pool in enumerate(strategy.recall_many(batch, size)):
            np.testing.assert_array_equal(pool, strategy.recall_many([batch[slot]], size)[0])
            assert pool.dtype == np.int64 and len(np.unique(pool)) == len(pool)
            assert len(pool) == min(size, len(strategy.world.recall_pool(batch[slot].city)))
        for channel in strategy.channels:
            for slot, found in enumerate(channel.recall_many(batch, state, size, rng_for)):
                alone = channel.recall_many([batch[slot]], state, size, rng_for)[0]
                np.testing.assert_array_equal(found, alone)

    def test_drawing_channel_sees_the_same_stream_on_both_entry_points(self, eleme_dataset,
                                                                       recall_setup):
        state, _, _ = recall_setup
        world = eleme_dataset.world
        contexts = sample_burst_contexts(world, 8, day=60, seed=35)
        batched = _DrawingChannel(world)
        strategy = MultiChannelRecall(world, state, [batched], pool_size=6, seed=9)
        lists = strategy.channel_results(contexts)["drawing"]
        single = _DrawingChannel(world)
        for context, found in zip(contexts, lists):
            rng = request_rng(9, context, salt="drawing")
            np.testing.assert_array_equal(single.recall(context, state, 6, rng), found)
        assert len(single.draws) == len(batched.draws) == 8
        for one, many in zip(single.draws, batched.draws):
            assert one.tobytes() == many.tobytes()
        assert len({draw.tobytes() for draw in batched.draws}) == 8

    def test_deterministic_channels_build_no_generator(self, batch_setups, monkeypatch):
        strategy, _, sample = batch_setups[0]
        calls = []
        monkeypatch.setattr(
            fusion_module, "request_rng", lambda *args, **kwargs: calls.append(args))
        strategy.recall_many(sample)
        strategy.recall(sample[0])
        assert calls == []

    def test_one_lock_acquisition_per_state_reading_channel(self, batch_setups, monkeypatch):
        strategy, state, sample = batch_setups[0]
        counter = _CountingLock(state.lock)
        monkeypatch.setattr(state, "lock", counter)
        for channel in strategy.channels:
            counter.acquisitions = 0
            channel.recall_many(sample, state, 20, None)
            assert counter.acquisitions <= 1, channel.name
        counter.acquisitions = 0
        strategy.recall_many(sample)
        assert 1 <= counter.acquisitions <= len(strategy.channels)

    def test_one_quota_split_per_batch(self, batch_setups, monkeypatch):
        strategy, _, sample = batch_setups[0]
        calls = []
        split = strategy.fusion.quota_counts
        monkeypatch.setattr(
            strategy.fusion, "quota_counts",
            lambda names, size: calls.append(size) or split(names, size))
        strategy.recall_many(sample)
        assert calls == [20]

    def test_feedback_during_recall_never_misaligns_history_windows(self, eleme_dataset):
        """A feedback thread appends multi-click events while a batch
        snapshots the same user's history: the item and the category window
        are always cut from lists of equal length."""
        world = eleme_dataset.world
        state = _fresh_state(eleme_dataset)
        user = _warm_user(world, state)
        context = _context_for_user(world, user)
        history = state.histories[user]
        item_lengths, category_lengths = [], []
        history.items = _LengthProbe(history.items, item_lengths, pause=1e-3)
        history.categories = _LengthProbe(history.categories, category_lengths)
        channel = UserHistoryChannel(world)
        clicked = world.recall_pool(context.city)[:5]
        stop = threading.Event()

        def feed():
            while not stop.is_set():
                state.record_clicks(context, clicked, np.ones(len(clicked)))

        feeder = threading.Thread(target=feed)
        try:
            feeder.start()
            for _ in range(25):
                for found in channel.recall_many([context] * 8, state, 12, None):
                    assert len(np.unique(found)) == len(found) > 0
        finally:
            stop.set()
            feeder.join(timeout=30)
        assert not feeder.is_alive()
        assert len(item_lengths) == 25 * 8
        assert item_lengths == category_lengths
        assert len(set(item_lengths)) > 1, "the feeder never interleaved"

    def test_fused_pools_match_the_parent_commit(self, eleme_dataset, small_model_config):
        """sha256 over the fused pools of a seeded 256-context sample (39 of
        them cold-start users), recorded from the request-at-a-time stage
        this batched one replaced: the refactor moved no pool."""
        world = eleme_dataset.world
        state = _fresh_state(eleme_dataset, cold_every=7)
        strategy = MultiChannelRecall.build(
            world, state, encoder=OnlineRequestEncoder(world, eleme_dataset.schema),
            model=create_model("basm", eleme_dataset.schema, small_model_config),
            pool_size=20, seed=5,
        )
        contexts = sample_burst_contexts(world, 256, day=60, seed=2024)
        digests = []
        for pools in (strategy.recall_many(contexts),
                      [strategy.recall(context) for context in contexts]):
            digest = hashlib.sha256()
            for pool in pools:
                digest.update(pool.astype(np.int64).tobytes() + b"|")
            digests.append(digest.hexdigest())
        assert digests == [self.PARENT_DIGEST, self.PARENT_DIGEST]
