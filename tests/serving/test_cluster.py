"""Tests for the sharded serving cluster: consistent-hash routing, the
coalescing worker queues and admission control, the versioned TTL response
cache, byte-parity with the single-pipeline baseline, rolling deploys with
health-gated rollback, merged cluster telemetry, and the thread-safety of
the shared serving state under a concurrent feedback burst.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ClusterConfig,
    ClusterWorker,
    ConsistentHashRing,
    OnlineRequestEncoder,
    PipelineConfig,
    ReplayBuffer,
    ResponseCache,
    RollingDeploy,
    RollingDeployError,
    ServingState,
    build_cluster,
    build_pipeline,
    sample_burst_contexts,
)


def fresh_state(eleme_dataset):
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    return ServingState.from_log_generator(generator, eleme_dataset.log)


@pytest.fixture(scope="module")
def cluster_setup(eleme_dataset, small_model_config):
    state = fresh_state(eleme_dataset)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    return state, encoder, model


PIPELINE_CONFIG = PipelineConfig(recall_size=12, exposure_size=5)


def burst_from_threads(frontend, contexts, client_threads):
    """Submit round-robin shares from N client threads; responses in order."""
    futures = [None] * len(contexts)

    def submit_share(offset):
        for index in range(offset, len(contexts), client_threads):
            futures[index] = frontend.submit(contexts[index])

    threads = [threading.Thread(target=submit_share, args=(offset,), daemon=True)
               for offset in range(client_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    return [future.result(timeout=60.0) for future in futures]


# ---------------------------------------------------------------------- #
# sharding
# ---------------------------------------------------------------------- #
class TestConsistentHashRing:
    def test_deterministic_and_covers_all_workers(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=64)
        owners = {ring.shard_for(user) for user in range(500)}
        assert owners == {"a", "b", "c"}
        again = ConsistentHashRing(["a", "b", "c"], virtual_nodes=64)
        assert all(ring.shard_for(u) == again.shard_for(u) for u in range(500))

    def test_add_worker_moves_bounded_fraction(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=64)
        users = list(range(2000))
        before = ring.assignment(users)
        ring.add_worker("d")
        after = ring.assignment(users)
        moved = [user for user in users if before[user] != after[user]]
        # Ideal is 1/4 of keys; a naive modulo mapping would move ~3/4.
        assert 0 < len(moved) / len(users) < 0.45
        # Every moved key moved *to* the new worker, never between old ones.
        assert all(after[user] == "d" for user in moved)

    def test_remove_worker_moves_only_its_keys(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=64)
        users = list(range(2000))
        before = ring.assignment(users)
        ring.remove_worker("d")
        after = ring.assignment(users)
        for user in users:
            if before[user] != "d":
                assert after[user] == before[user]
            else:
                assert after[user] != "d"

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], virtual_nodes=0)
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.remove_worker("a")
        with pytest.raises(KeyError):
            ring.remove_worker("zz")
        with pytest.raises(ValueError):
            ring.add_worker("a")


# ---------------------------------------------------------------------- #
# response cache
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestResponseCache:
    def test_roundtrip_ttl_and_stats(self):
        clock = FakeClock()
        cache = ResponseCache(ttl_seconds=10.0, max_entries=8, clock=clock)
        assert cache.get("k") is None
        cache.put("k", "response")
        assert cache.get("k") == "response"
        clock.now = 9.9
        assert cache.get("k") == "response"
        clock.now = 10.0  # entry born at t=0 expires at t=10
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 2
        assert stats["expirations"] == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_prefers_stale_entries(self):
        cache = ResponseCache(ttl_seconds=100.0, max_entries=2, clock=FakeClock())
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now least-recent
        cache.put("c", 3)
        assert cache.get("b") is None and cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_key_versioning(self, eleme_dataset):
        rng = np.random.default_rng(0)
        context = eleme_dataset.world.sample_request_context(2, rng)
        base = ResponseCache.key_for(context, model_version=0, feature_version=4)
        assert base == ResponseCache.key_for(context, 0, 4)
        assert base != ResponseCache.key_for(context, 1, 4)  # hot swap
        assert base != ResponseCache.key_for(context, 0, 5)  # record_clicks
        other = eleme_dataset.world.sample_request_context(2, rng)
        assert base != ResponseCache.key_for(other, 0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(ttl_seconds=0)
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)


# ---------------------------------------------------------------------- #
# coalescing and admission control
# ---------------------------------------------------------------------- #
class TestCoalescingWorker:
    """Thread-only corners; the contract both worker kinds share (exact
    micro-batches, admission, batch failure, swap atomicity, stop) lives in
    ``tests/serving/test_worker_contract.py``."""

    def build_worker(self, eleme_dataset, cluster_setup, **kwargs):
        state, encoder, model = cluster_setup
        pipeline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PIPELINE_CONFIG
        )
        return ClusterWorker("w0", pipeline, **kwargs)

    def test_max_batch_one_disables_coalescing(self, eleme_dataset, cluster_setup):
        worker = self.build_worker(eleme_dataset, cluster_setup, max_batch=1)
        contexts = sample_burst_contexts(eleme_dataset.world, 6, day=2, seed=22)
        futures = [worker.submit(request) for request in contexts]
        worker.start()
        [future.result(timeout=30.0) for future in futures]
        worker.stop()
        assert worker.batches_run == 6

    def test_submits_racing_stop_never_hang(self, eleme_dataset, cluster_setup):
        """Every submit racing stop() raises or gets a future that resolves."""
        worker = self.build_worker(eleme_dataset, cluster_setup, max_batch=4).start()
        context = sample_burst_contexts(eleme_dataset.world, 1, day=2, seed=25)[0]
        futures = []

        def submit_until_refused():
            try:
                while True:
                    futures.append(worker.submit(context))
            except RuntimeError:
                pass

        threads = [threading.Thread(target=submit_until_refused, daemon=True)
                   for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            worker.stop()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)  # all refused
        assert worker.depth == 0
        for future in futures:  # served, or failed by a drain — never pending
            assert isinstance(future.exception(timeout=30.0), (RuntimeError, type(None)))

    def test_validation(self, eleme_dataset, cluster_setup):
        with pytest.raises(ValueError):
            self.build_worker(eleme_dataset, cluster_setup, max_batch=0)
        with pytest.raises(ValueError):
            self.build_worker(eleme_dataset, cluster_setup, queue_depth=0)


# ---------------------------------------------------------------------- #
# frontend: byte-parity with the single-pipeline baseline
# ---------------------------------------------------------------------- #
class TestClusterParity:
    def test_cluster_output_is_byte_identical_to_single_pipeline(
        self, eleme_dataset, cluster_setup
    ):
        state, encoder, model = cluster_setup
        contexts = sample_burst_contexts(eleme_dataset.world, 80, day=2, seed=31)
        baseline = build_pipeline(
            eleme_dataset.world, model, encoder, state, PIPELINE_CONFIG
        ).run_many(contexts)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=4, cache_enabled=False, max_batch=16),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            responses = burst_from_threads(frontend, contexts, client_threads=6)
            shards = {
                frontend.worker_for(context).worker_id for context in contexts
            }
        assert len(responses) == len(contexts)
        for reference, response in zip(baseline, responses):
            np.testing.assert_array_equal(reference.candidates, response.candidates)
            np.testing.assert_array_equal(reference.items, response.items)
            np.testing.assert_array_equal(reference.scores, response.scores)
        assert len(shards) > 1  # the burst genuinely spread across workers

    def test_user_always_lands_on_its_shard(self, eleme_dataset, cluster_setup):
        state, encoder, model = cluster_setup
        contexts = sample_burst_contexts(eleme_dataset.world, 40, day=2, seed=32)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=4, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            for context in contexts:
                first = frontend.worker_for(context)
                assert frontend.worker_for(context) is first

    def test_merged_metrics_cover_whole_burst(self, eleme_dataset, cluster_setup):
        state, encoder, model = cluster_setup
        contexts = sample_burst_contexts(eleme_dataset.world, 30, day=2, seed=34)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=3, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            frontend.serve_many(contexts)
            merged = frontend.merged_metrics()
            per_worker = [
                worker.metrics.stats("recall").requests
                for worker in frontend.workers.values()
                if "recall" in worker.metrics.stages()
            ]
        assert merged.stats("recall").requests == 30
        assert merged.stats("rank").requests == 30
        assert sum(per_worker) == 30 and len(per_worker) > 1
        assert merged.stats("rank").items_in == 30 * PIPELINE_CONFIG.recall_size


# ---------------------------------------------------------------------- #
# response cache integration
# ---------------------------------------------------------------------- #
class TestCacheIntegration:
    def build_frontend(self, eleme_dataset, cluster_setup, state=None):
        base_state, encoder, model = cluster_setup
        return build_cluster(
            eleme_dataset.world, model, encoder, state or base_state,
            ClusterConfig(num_workers=2, cache_enabled=True, cache_ttl_seconds=300.0),
            pipeline_config=PIPELINE_CONFIG,
        )

    def test_repeat_request_is_served_from_cache(self, eleme_dataset, cluster_setup):
        context = sample_burst_contexts(eleme_dataset.world, 1, day=2, seed=41)[0]
        with self.build_frontend(eleme_dataset, cluster_setup) as frontend:
            first = frontend.serve(context)
            again = frontend.serve(context)
            assert frontend.cache.hits == 1
            assert again is first  # the literal cached response object
            np.testing.assert_array_equal(first.items, again.items)
            served = sum(w.requests_served for w in frontend.workers.values())
        assert served == 1  # the hit never reached a worker queue

    def test_a_broken_cache_fill_is_served_through_and_counted(self, eleme_dataset,
                                                               cluster_setup, monkeypatch):
        """The fill hook runs on the dispatcher: its failure must neither fail
        the request nor vanish — the frontend's aggregate counts it."""
        contexts = sample_burst_contexts(eleme_dataset.world, 6, day=2, seed=43)
        with self.build_frontend(eleme_dataset, cluster_setup) as frontend:
            def broken_put(key, response):
                raise OSError("cache is on fire")

            monkeypatch.setattr(frontend.cache, "put", broken_put)
            responses = frontend.serve_many(contexts)
            assert [response.context for response in responses] == contexts
            stats = frontend.stats()
        assert stats["on_done_failures"] == 6 and stats["batch_failures"] == 0
        assert stats["requests_served"] == 6 and stats["cache"]["entries"] == 0

    def test_feedback_invalidates_user_entries(self, eleme_dataset, cluster_setup):
        _, encoder, model = cluster_setup
        state = fresh_state(eleme_dataset)
        context = sample_burst_contexts(eleme_dataset.world, 1, day=2, seed=42)[0]
        with self.build_frontend(eleme_dataset, cluster_setup, state=state) as frontend:
            first = frontend.serve(context)
            frontend.feedback(first, np.ones(len(first.items), dtype=np.float32))
            # record_clicks bumped user_version -> the key changed -> re-serve.
            frontend.serve(context)
            assert frontend.cache.hits == 0
            served = sum(w.requests_served for w in frontend.workers.values())
        assert served == 2

    def test_hot_swap_invalidates_cached_responses(self, eleme_dataset, cluster_setup,
                                                   small_model_config):
        _, encoder, model = cluster_setup
        state = fresh_state(eleme_dataset)
        context = sample_burst_contexts(eleme_dataset.world, 1, day=2, seed=43)[0]
        refreshed = create_model("basm", eleme_dataset.schema, small_model_config)
        with self.build_frontend(eleme_dataset, cluster_setup, state=state) as frontend:
            frontend.serve(context)
            frontend.worker_for(context).swap_model(refreshed)
            frontend.serve(context)  # model_version changed -> key miss
            assert frontend.cache.hits == 0
            served = sum(w.requests_served for w in frontend.workers.values())
        assert served == 2


# ---------------------------------------------------------------------- #
# rolling deploys
# ---------------------------------------------------------------------- #
class TestRollingDeploy:
    def test_deploy_promotes_every_shard_and_preserves_parity(
        self, eleme_dataset, cluster_setup, small_model_config
    ):
        from dataclasses import replace

        state, encoder, model = cluster_setup
        refreshed = create_model(
            "basm", eleme_dataset.schema, replace(small_model_config, seed=99)
        )
        contexts = sample_burst_contexts(eleme_dataset.world, 20, day=2, seed=51)
        probes = sample_burst_contexts(eleme_dataset.world, 3, day=2, seed=52)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=3, cache_enabled=True),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            report = RollingDeploy(frontend, probes).run(refreshed)
            assert report.completed and not report.rolled_back
            assert [shard.healthy for shard in report.shards] == [True] * 3
            assert all(
                worker.model_version == 1 for worker in frontend.workers.values()
            )
            responses = frontend.serve_many(contexts)
        reference = build_pipeline(
            eleme_dataset.world, refreshed, encoder, state, PIPELINE_CONFIG
        ).run_many(contexts)
        for ref, response in zip(reference, responses):
            np.testing.assert_array_equal(ref.items, response.items)
            np.testing.assert_array_equal(ref.scores, response.scores)

    def test_failed_health_check_rolls_back_every_shard(
        self, eleme_dataset, cluster_setup, small_model_config
    ):
        from dataclasses import replace

        state, encoder, model = cluster_setup
        refreshed = create_model(
            "basm", eleme_dataset.schema, replace(small_model_config, seed=77)
        )
        contexts = sample_burst_contexts(eleme_dataset.world, 15, day=2, seed=53)
        probes = sample_burst_contexts(eleme_dataset.world, 2, day=2, seed=54)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=3, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            before = frontend.serve_many(contexts)
            # The second shard's probe fails -> abort + roll back shard 1 and 2.
            verdicts = iter([True, False])
            deploy = RollingDeploy(
                frontend, probes,
                health_check=lambda responses: next(verdicts, True),
            )
            with pytest.raises(RollingDeployError) as excinfo:
                deploy.run(refreshed)
            report = excinfo.value.report
            assert report.rolled_back and not report.completed
            assert [shard.healthy for shard in report.shards] == [True, False]
            # Each touched shard swapped forward then back: version 2; the
            # never-reached shard stays at 0.
            versions = sorted(w.model_version for w in frontend.workers.values())
            assert versions == [0, 2, 2]
            after = frontend.serve_many(contexts)
        for ref, response in zip(before, after):
            np.testing.assert_array_equal(ref.items, response.items)
            np.testing.assert_array_equal(ref.scores, response.scores)

    def test_schema_mismatch_aborts_without_serving_impact(
        self, eleme_dataset, public_dataset, cluster_setup, small_model_config
    ):
        state, encoder, model = cluster_setup
        alien = create_model("basm", public_dataset.schema, small_model_config)
        probes = sample_burst_contexts(eleme_dataset.world, 2, day=2, seed=55)
        contexts = sample_burst_contexts(eleme_dataset.world, 10, day=2, seed=56)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=2, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            before = frontend.serve_many(contexts)
            with pytest.raises(RollingDeployError):
                RollingDeploy(frontend, probes).run(alien)
            assert all(w.model_version == 0 for w in frontend.workers.values())
            after = frontend.serve_many(contexts)
        for ref, response in zip(before, after):
            np.testing.assert_array_equal(ref.scores, response.scores)

    def test_probe_validation(self, eleme_dataset, cluster_setup):
        state, encoder, model = cluster_setup
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=1, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            with pytest.raises(ValueError):
                RollingDeploy(frontend, [])


# ---------------------------------------------------------------------- #
# shared-state thread safety (the satellite regression test)
# ---------------------------------------------------------------------- #
class TestThreadedFeedbackBurst:
    def test_concurrent_record_clicks_apply_exactly(self, eleme_dataset):
        """Threaded feedback burst: every click lands, nothing interleaves.

        Without ``ServingState.lock`` this fails two ways: the numpy
        read-modify-write counters lose updates, and concurrent history
        appends make ``behavior_snapshot`` read ragged parallel lists and
        crash the replay encode mid-``record_clicks``.
        """
        state = fresh_state(eleme_dataset)
        encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=64))
        rng = np.random.default_rng(0)
        context = eleme_dataset.world.sample_request_context(2, rng)
        user = context.user_index
        num_threads, iterations, num_items = 8, 250, 4
        items = np.arange(1, num_items + 1, dtype=np.int64)
        clicks = np.ones(num_items, dtype=np.float32)
        base_clicks = int(state.user_clicks[user])
        base_version = int(state.user_version[user])
        base_history = len(state.history(user))
        replay_before = replay.impressions_logged

        barrier = threading.Barrier(num_threads)
        errors = []

        def pound(seed: int) -> None:
            thread_rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(iterations):
                    state.record_clicks(context, items, clicks, rng=thread_rng)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=pound, args=(seed,)) for seed in range(num_threads)
        ]
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent preemption
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous_interval)

        assert not errors, f"feedback thread crashed: {errors[0]!r}"
        total_feedbacks = num_threads * iterations
        total_clicks = total_feedbacks * num_items
        assert int(state.user_clicks[user]) - base_clicks == total_clicks
        assert int(state.user_version[user]) - base_version == total_feedbacks
        assert replay.impressions_logged - replay_before == total_feedbacks
        history = state.history(user)
        assert len(history) - base_history == total_clicks
        # The seven parallel history lists stayed aligned.
        for parallel in (history.categories, history.brands, history.periods,
                         history.hours, history.cities, history.geohash_prefixes):
            assert len(parallel) == len(history.items)

    def test_concurrent_serving_and_feedback_smoke(self, eleme_dataset, cluster_setup):
        """Serving keeps running while feedback mutates state concurrently."""
        _, encoder, model = cluster_setup
        state = fresh_state(eleme_dataset)
        contexts = sample_burst_contexts(eleme_dataset.world, 30, day=2, seed=61)
        with build_cluster(
            eleme_dataset.world, model, encoder, state,
            ClusterConfig(num_workers=2, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG,
        ) as frontend:
            first = frontend.serve_many(contexts)

            def feed() -> None:
                for response in first:
                    frontend.feedback(
                        response, np.ones(len(response.items), dtype=np.float32)
                    )

            feeder = threading.Thread(target=feed)
            feeder.start()
            second = frontend.serve_many(contexts)
            feeder.join()
        assert len(second) == len(contexts)
        assert all(len(response.items) > 0 for response in second)
        assert int(state.user_clicks.sum()) > 0
