"""Cross-process cluster test tier: parity, crash/respawn, leaks, single writer.

The process cluster's proof burden, per suite:

* **envelope round-trip** — ``ServeRequest`` / ``ServeResponse`` cross the
  pipe as elements of one batch frame per micro-batch that normalise numpy
  scalar context fields to plain scalars; a malformed batch frame is a
  ``ValueError``, never a misattributed response; ``ClusterOverloadError``
  also survives pickling (futures);
* **injectable clock** — every ``ResponseCache`` TTL comparison reads the
  injected clock (a booby-trapped ``time.monotonic`` proves no path sneaks
  past it), so frozen-clock tests are deterministic;
* **byte parity** — the process cluster's (items, scores, candidates) are
  byte-identical to the single-pipeline baseline, before and after a
  replicated feedback round, with every replica's state fingerprint equal
  to the parent writer's;
* **crash/respawn** — SIGKILL a worker process: the supervisor respawns it
  warm from the durable store into the *same* handle (ring stable), the
  replica catches up to the writer's fingerprint, and serving resumes —
  on the model last *deployed*, under a ``model_version`` that never runs
  backwards (so no stranded response-cache entry is replayed);
* **no leaked segments** — after clean *and* unclean (SIGKILL) shutdown the
  publisher holds no live segments and ``/dev/shm`` holds no files with the
  pool's prefix (the CI job additionally runs ``-W error::UserWarning`` so a
  resource-tracker leak warning at interpreter exit fails the build);
* **one pipe, many callers** — serving, feedback, two sync callers and
  swaps from more threads than cores share one RPC channel with no
  correlation ids, and every caller still gets its own reply;
* **single-writer feedback** — a multi-threaded feedback burst through the
  frontend keeps the journal dense-sequenced (1..N, no gaps or duplicates)
  while every worker replica converges to the writer's fingerprint;
* **weights-only segments** — a published segment carries ``weights.*`` and
  nothing else; a worker booted from it builds its own two-tower item
  tables, byte-equal to the parent's ``precompute_item_tables``.
"""

from __future__ import annotations

import copy
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ClusterConfig,
    ClusterOverloadError,
    DurableStateStore,
    OnlineRequestEncoder,
    PipelineConfig,
    ResponseCache,
    ServingState,
    build_cluster,
    build_pipeline,
    sample_burst_contexts,
)
from repro.serving.cluster import codec
from repro.serving.cluster.procworker import WorkerBootstrap, _ChildWorker
from repro.serving.durable.journal import scan_journal
from repro.serving.durable.snapshot import state_fingerprint
from repro.serving.pipeline import ServeRequest, ServeResponse, StageMetrics
from repro.data.world import RequestContext

pytestmark = pytest.mark.proc_cluster

PIPELINE_CONFIG = PipelineConfig(recall_size=12, exposure_size=5)
PROC_CONFIG = ClusterConfig(num_workers=2, cache_enabled=False)


def fresh_state(eleme_dataset):
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    return ServingState.from_log_generator(generator, eleme_dataset.log)


@pytest.fixture(scope="module")
def proc_setup(eleme_dataset, small_model_config):
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    # wide_deep supports the two-tower split, so every worker process also
    # builds frozen item tables from the shared weights — the richest path.
    model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
    return eleme_dataset, encoder, model


def numpy_scalar_context() -> RequestContext:
    """A context exactly as world sampling produces it: numpy scalar fields."""
    return RequestContext(
        user_index=np.int64(17), day=np.int64(100), hour=np.int64(9),
        time_period=np.int64(1), city=np.int64(2),
        latitude=np.float64(31.2), longitude=np.float64(121.5),
        geohash="wtw3sz",
    )


# ---------------------------------------------------------------------- #
# satellite: envelope / exception round-trips across process boundaries
# ---------------------------------------------------------------------- #
class TestEnvelopeRoundTrip:
    def test_overload_error_round_trips(self):
        error = ClusterOverloadError("worker 'w-0' queue is full (512 pending)")
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is ClusterOverloadError
        assert str(clone) == str(error)

    def test_codec_serve_and_response_frames(self):
        request = ServeRequest(
            context=numpy_scalar_context(), request_id="r-9", scenario="default"
        )
        kind, payload = codec.decode_frame(codec.encode_serve(7, request))
        assert kind == codec.SERVE
        corr, decoded = codec.decode_serve(payload)
        assert corr == 7
        assert decoded == ServeRequest(
            context=RequestContext(17, 100, 9, 1, 2, 31.2, 121.5, "wtw3sz"),
            request_id="r-9", scenario="default",
        )
        for field in ("user_index", "day", "hour", "time_period", "city"):
            assert type(getattr(decoded.context, field)) is int
        assert type(decoded.context.latitude) is float

        response = ServeResponse(
            request=request,
            candidates=np.arange(5, dtype=np.int64),
            items=np.array([4, 2], dtype=np.int64),
            scores=np.array([0.25, 0.125], dtype=np.float32),
        )
        kind, payload = codec.decode_frame(codec.encode_serve_response(7, response))
        assert kind == codec.RESPONSE
        corr, decoded = codec.decode_serve_response(payload)
        assert corr == 7
        np.testing.assert_array_equal(decoded.items, response.items)
        assert decoded.scores.dtype == np.float32
        np.testing.assert_array_equal(decoded.scores, response.scores)
        np.testing.assert_array_equal(decoded.candidates, response.candidates)

        _, payload = codec.decode_frame(
            codec.encode_serve_response(8, ServeResponse(request=request))
        )
        _, empty = codec.decode_serve_response(payload)
        assert empty.candidates is None and empty.items is None and empty.scores is None

    def test_codec_error_frame_restores_registered_types(self):
        kind, payload = codec.decode_frame(
            codec.encode_error(ClusterOverloadError("full"))
        )
        assert kind == codec.ERROR
        error = codec.decode_error(payload)
        assert type(error) is ClusterOverloadError and str(error) == "full"

        class Evil(Exception):
            pass

        _, payload = codec.decode_frame(codec.encode_error(Evil("boom")))
        error = codec.decode_error(payload)
        assert type(error) is RuntimeError  # unknown types never rehydrate
        assert str(error) == "Evil: boom"


class TestBatchFrames:
    """One frame per micro-batch each way: count + position-tagged elements."""

    @staticmethod
    def batch():
        requests = [
            ServeRequest(context=numpy_scalar_context(), request_id=f"r-{i}",
                         scenario="default")
            for i in range(3)
        ]
        responses = [
            ServeResponse(
                request=requests[0], candidates=np.arange(5, dtype=np.int64),
                items=np.array([4, 2], dtype=np.int64),
                scores=np.array([0.25, 0.125], dtype=np.float32),
            ),
            ServeResponse(request=requests[1]),  # nothing served: all None
            ServeResponse(
                request=requests[2], candidates=np.zeros(0, dtype=np.int64),
                items=np.zeros(0, dtype=np.int64), scores=np.zeros(0, dtype=np.float32),
            ),
        ]
        return requests, responses

    def test_round_trip(self):
        requests, responses = self.batch()
        frame = codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, requests)
        kind, payload = codec.decode_frame(frame)
        assert kind == codec.SERVE_BATCH
        decoded = codec.decode_batch(payload, codec.decode_serve)
        assert decoded == requests
        assert all(type(request.context.user_index) is int for request in decoded)
        assert type(decoded[0].context.latitude) is float

        metrics = StageMetrics()
        metrics.record("recall", 0.25, 3, 0, 17)
        metrics.record("rank", 0.5, 3, 17, 4)
        frame = codec.encode_response_batch(responses, metrics)
        kind, payload = codec.decode_frame(frame)
        assert kind == codec.RESPONSE_BATCH
        decoded, stages = codec.decode_response_batch(payload)
        assert stages == [("recall", 0.25, 3, 0, 17), ("rank", 0.5, 3, 17, 4)]
        assert [response.request for response in decoded] == requests
        np.testing.assert_array_equal(decoded[0].scores, responses[0].scores)
        assert decoded[0].scores.dtype == np.float32
        assert decoded[1].candidates is None and decoded[1].items is None
        assert decoded[1].scores is None
        assert decoded[2].items.shape == (0,) and decoded[2].scores.dtype == np.float32

        empty = codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, [])
        assert codec.decode_batch(empty[1:], codec.decode_serve) == []
        empty = codec.encode_response_batch([], StageMetrics())
        assert codec.decode_response_batch(empty[1:]) == ([], [])

    def test_position_mismatch_is_loud(self):
        requests, _ = self.batch()
        positions = iter((0, 2, 1))
        frame = codec.encode_batch(
            codec.SERVE_BATCH,
            lambda _, request: codec.encode_serve(next(positions), request),
            requests,
        )
        with pytest.raises(ValueError, match="element 1 carries position 2"):
            codec.decode_batch(frame[1:], codec.decode_serve)

    def test_truncated_or_overcounted_frames_are_value_errors(self):
        requests, _ = self.batch()
        payload = codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, requests)[1:]
        for cut in (0, 2, 4, 6, len(payload) // 2, len(payload) - 1):
            with pytest.raises(ValueError):
                codec.decode_batch(payload[:cut], codec.decode_serve)
        overcounted = (99).to_bytes(4, "little") + payload[4:]
        with pytest.raises(ValueError, match="declares 99 elements, holds 3"):
            codec.decode_batch(overcounted, codec.decode_serve)
        with pytest.raises(ValueError, match="trailing"):
            codec.decode_batch(payload + b"\x00", codec.decode_serve)


# ---------------------------------------------------------------------- #
# satellite: ResponseCache clock injection
# ---------------------------------------------------------------------- #
class TestResponseCacheClock:
    def test_all_ttl_paths_use_injected_clock(self, monkeypatch):
        """Booby-trap ``time.monotonic``: any TTL path reading it directly
        (instead of the injected clock) explodes."""
        now = [1000.0]
        cache = ResponseCache(ttl_seconds=10.0, max_entries=8, clock=lambda: now[0])

        def bomb():  # pragma: no cover - failing is the point
            raise AssertionError("ResponseCache read time.monotonic directly")

        monkeypatch.setattr(time, "monotonic", bomb)
        response = ServeResponse(request=ServeRequest(context=numpy_scalar_context()))
        cache.put("key", response)
        assert cache.get("key") is response
        now[0] += 9.99
        assert cache.get("key") is response
        now[0] += 0.02  # past the TTL
        assert cache.get("key") is None
        assert cache.expirations == 1

    def test_purge_expired_uses_injected_clock(self, monkeypatch):
        now = [0.0]
        cache = ResponseCache(ttl_seconds=5.0, max_entries=8, clock=lambda: now[0])
        monkeypatch.setattr(
            time, "monotonic",
            lambda: (_ for _ in ()).throw(AssertionError("direct clock read")),
        )
        response = ServeResponse(request=ServeRequest(context=numpy_scalar_context()))
        cache.put("a", response)
        now[0] = 2.0
        cache.put("b", response)
        assert cache.purge_expired() == 0
        now[0] = 6.0  # "a" expired at 5.0, "b" expires at 7.0
        assert cache.purge_expired() == 1
        assert len(cache) == 1 and cache.get("b") is response


# ---------------------------------------------------------------------- #
# tentpole: cross-process byte parity under replicated feedback
# ---------------------------------------------------------------------- #
class TestProcessClusterParity:
    def test_byte_parity_and_replica_fingerprints(self, proc_setup):
        dataset, encoder, model = proc_setup
        contexts = sample_burst_contexts(dataset.world, 48, day=100, seed=11)

        baseline_state = fresh_state(dataset)
        pipeline = build_pipeline(
            dataset.world, model, encoder, baseline_state, PIPELINE_CONFIG
        )
        baseline_first = [pipeline.run(context) for context in contexts]

        proc_state = fresh_state(dataset)
        frontend = build_cluster(
            dataset.world, model, encoder, proc_state,
            config=PROC_CONFIG, pipeline_config=PIPELINE_CONFIG,
            process_workers=True,
        )
        try:
            cluster_first = frontend.serve_many(contexts)
            self._assert_parity(baseline_first, cluster_first)

            # One identical feedback round on both states (same rng streams),
            # then the cluster serves again: replicas must have applied the
            # parent's mutations, or scores drift.
            for index, (base, proc) in enumerate(
                zip(baseline_first[:16], cluster_first[:16])
            ):
                clicks = (
                    np.random.default_rng(100 + index).random(len(base.items)) < 0.5
                ).astype(np.float64)
                pipeline.feedback(base, clicks, rng=np.random.default_rng(index))
                frontend.feedback(proc, clicks, rng=np.random.default_rng(index))
            assert proc_state.feedback_seq == baseline_state.feedback_seq

            parent_fingerprint = state_fingerprint(proc_state)
            assert parent_fingerprint == state_fingerprint(baseline_state)
            for handle in frontend.pool.workers:
                reply = self._synced(handle, proc_state.feedback_seq)
                assert reply["fingerprint"] == parent_fingerprint

            baseline_second = [pipeline.run(context) for context in contexts]
            cluster_second = frontend.serve_many(contexts)
            self._assert_parity(baseline_second, cluster_second)
        finally:
            frontend.close()
        assert frontend.pool.leaked_segments() == []

    @staticmethod
    def _synced(handle, target_seq: int, timeout: float = 20.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            reply = handle.sync()
            if reply["applied_seq"] >= target_seq or time.monotonic() > deadline:
                return reply
            time.sleep(0.02)

    @staticmethod
    def _assert_parity(expected, actual):
        assert len(expected) == len(actual)
        for base, proc in zip(expected, actual):
            np.testing.assert_array_equal(base.candidates, proc.candidates)
            np.testing.assert_array_equal(base.items, proc.items)
            assert base.scores.dtype == proc.scores.dtype
            np.testing.assert_array_equal(base.scores, proc.scores)


# ---------------------------------------------------------------------- #
# tentpole: SIGKILL → warm respawn; segment hygiene on both shutdown paths
# ---------------------------------------------------------------------- #
class TestCrashRespawnAndLeaks:
    def test_sigkill_respawn_serves_again_with_matching_state(self, proc_setup):
        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        contexts = sample_burst_contexts(dataset.world, 16, day=100, seed=13)
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=PROC_CONFIG, pipeline_config=PIPELINE_CONFIG,
            process_workers=True,
        )
        pool = frontend.pool
        prefix = pool.publisher.prefix
        try:
            first = frontend.serve_many(contexts)
            for response in first[:6]:
                frontend.feedback(
                    response, np.ones(len(response.items)),
                    rng=np.random.default_rng(5),
                )
            victim = pool.workers[0]
            metrics = victim.metrics
            counted = {name: metrics.stats(name).calls for name in metrics.stages()}
            assert counted and counted["rank"] == victim.batches_run > 0
            _kill_and_await_respawn(victim)
            assert victim.respawns == 1
            # The telemetry is the handle's, not the process's: a respawn
            # neither replaces nor empties it.
            assert victim.metrics is metrics
            assert {name: metrics.stats(name).calls for name in counted} == counted

            # Warm boot: the replica recovered snapshot ⊕ journal ⊕ stream up
            # to the writer's exact state.
            reply = TestProcessClusterParity._synced(victim, state.feedback_seq)
            assert reply["applied_seq"] == state.feedback_seq
            assert reply["fingerprint"] == state_fingerprint(state)

            # The ring never changed, and the respawned worker serves.
            again = frontend.serve_many(contexts)
            assert len(again) == len(contexts)
            assert all(response.items is not None for response in again)
            assert metrics.stats("rank").calls == victim.batches_run > counted["rank"]
        finally:
            frontend.close()
        # Unclean death happened mid-run; shutdown must still unlink all.
        assert pool.leaked_segments() == []
        assert _dev_shm_entries(prefix) == []

    def test_respawn_after_deploy_serves_the_deployed_model(
        self, proc_setup, small_model_config
    ):
        """A respawn boots from the model the handle last deployed, not from
        the model the pool was constructed with."""
        dataset, encoder, model = proc_setup
        deployed = _second_model(dataset, small_model_config)
        contexts = sample_burst_contexts(dataset.world, 16, day=100, seed=23)
        expected = build_pipeline(
            dataset.world, deployed, encoder, fresh_state(dataset), PIPELINE_CONFIG
        ).run_many(contexts)
        frontend = build_cluster(
            dataset.world, model, encoder, fresh_state(dataset),
            config=ClusterConfig(num_workers=1, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG, process_workers=True,
        )
        pool = frontend.pool
        try:
            victim = pool.workers[0]
            for promoted in (deployed, model, deployed):
                victim.swap_model(promoted)
            assert victim.model_version == 3
            TestProcessClusterParity._assert_parity(expected, frontend.serve_many(contexts))

            _kill_and_await_respawn(victim)
            assert victim.model_version == 3
            TestProcessClusterParity._assert_parity(expected, frontend.serve_many(contexts))
        finally:
            frontend.close()
        assert pool.leaked_segments() == []
        assert pool.publisher.published == pool.publisher.unlinked

    def test_model_version_never_runs_backwards(self, proc_setup, small_model_config):
        """``model_version`` keys the response cache, so it must survive a
        respawn: a version reused after one would replay entries the earlier
        deploy of that number stranded."""
        dataset, encoder, model = proc_setup
        other = _second_model(dataset, small_model_config)
        contexts = sample_burst_contexts(dataset.world, 8, day=100, seed=29)
        expected = build_pipeline(
            dataset.world, model, encoder, fresh_state(dataset), PIPELINE_CONFIG
        ).run_many(contexts)
        frontend = build_cluster(
            dataset.world, model, encoder, fresh_state(dataset),
            config=ClusterConfig(num_workers=1, cache_enabled=True,
                                 cache_ttl_seconds=600.0),
            pipeline_config=PIPELINE_CONFIG, process_workers=True,
        )
        try:
            victim = frontend.pool.workers[0]
            versions = [victim.model_version]
            victim.swap_model(other)
            versions.append(victim.model_version)
            frontend.serve_many(contexts)  # cached under this version, other's bytes
            for promoted in (model, other):
                victim.swap_model(promoted)
                versions.append(victim.model_version)
            _kill_and_await_respawn(victim)
            versions.append(victim.model_version)
            victim.swap_model(model)
            versions.append(victim.model_version)
            assert versions == [0, 1, 2, 3, 3, 4]
            # Re-scored by the model now deployed, not replayed from the
            # entries version 1 left behind.
            hits = frontend.cache.hits
            TestProcessClusterParity._assert_parity(expected, frontend.serve_many(contexts))
            assert frontend.cache.hits == hits
        finally:
            frontend.close()
        assert frontend.pool.leaked_segments() == []

    def test_clean_shutdown_leaves_no_segments(self, proc_setup):
        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=ClusterConfig(num_workers=1, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG, process_workers=True,
        )
        pool = frontend.pool
        prefix = pool.publisher.prefix
        assert pool.leaked_segments(), "a running pool must hold live segments"
        frontend.serve_many(sample_burst_contexts(dataset.world, 4, day=100, seed=17))
        frontend.close()
        assert pool.leaked_segments() == []
        assert _dev_shm_entries(prefix) == []
        assert pool.publisher.published == pool.publisher.unlinked


class TestRpcChannelUnderContention:
    def test_concurrent_callers_each_get_their_own_reply(self, proc_setup):
        """More callers than cores on one pipe.  Serving, feedback, two sync
        callers and swaps share it with no correlation ids: a reply read by
        the wrong caller would surface as a wrong-kind error, a response for
        another request, or a replica that drifted from the writer."""
        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        contexts = sample_burst_contexts(dataset.world, 8, day=100, seed=31)
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=ClusterConfig(num_workers=1, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG, process_workers=True,
        )
        handle = frontend.pool.workers[0]
        errors = []

        def guarded(body, rounds):
            def run():
                try:
                    for _ in range(rounds):
                        body()
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)
            return threading.Thread(target=run, daemon=True)

        def serve():
            for context, response in zip(contexts, frontend.serve_many(contexts)):
                assert response.context == context and len(response.items) > 0

        def sync():
            assert set(handle.sync()) == {"applied_seq", "fingerprint"}

        try:
            clicked = frontend.serve_many(contexts)[0]
            threads = [
                guarded(serve, 12), guarded(serve, 12),
                guarded(lambda: frontend.feedback(
                    clicked, np.ones(len(clicked.items)), rng=np.random.default_rng(7)
                ), 40),
                guarded(sync, 40), guarded(sync, 40),
                guarded(lambda: handle.swap_model(copy.deepcopy(model)), 3),
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert handle.model_version == 3 and handle.batch_failures == 0
            assert state.feedback_seq == 40
            reply = TestProcessClusterParity._synced(handle, state.feedback_seq)
            assert reply["fingerprint"] == state_fingerprint(state)
        finally:
            frontend.close()
        assert frontend.pool.leaked_segments() == []


class TestWeightsOnlySegments:
    def test_worker_builds_the_parents_tables_from_shared_weights(self, proc_setup):
        """Boot the worker class in-process exactly as a spawned child boots
        (durable-store recovery + the pool's published segment) and compare
        the tables its ranker builds on first use with the parent's."""
        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=ClusterConfig(num_workers=1, cache_enabled=False),
            pipeline_config=PIPELINE_CONFIG, process_workers=True,
        )
        pool = frontend.pool
        try:
            manifest = pool.publish_model(pool.model)
            assert all(name.startswith("weights.") for name in manifest["tensors"])
            assert set(manifest["tensors"]) == {
                f"weights.{name}" for name in model.state_dict()
            }
            child = _ChildWorker(
                WorkerBootstrap(
                    worker_id="in-process-probe", world=dataset.world,
                    schema=encoder.schema, model_name=model.name,
                    model_config=model.config, model_manifest=manifest,
                    pipeline_config=PIPELINE_CONFIG,
                    durable_root=str(pool.durable.root),
                    geohash_match_prefix=state.geohash_match_prefix,
                ),
                conn=None,
            )
            ranker = child.pipeline.stage("rank").ranker
            assert ranker.item_tables is None
            assert not any(p.data.flags.writeable for p in ranker.model.parameters())
            contexts = sample_burst_contexts(dataset.world, 6, day=100, seed=19)
            served = child.pipeline.run_many(contexts)
            _, built = ranker.item_tables

            expected = model.precompute_item_tables(encoder.item_static_table(state))
            assert sorted(built.tables) == sorted(expected.tables)
            assert built.static_cols == expected.static_cols
            for name, table in expected.tables.items():
                assert built.tables[name].dtype == table.dtype == np.float32
                assert built.tables[name].tobytes() == table.tobytes()
            # The frozen weight transposes too: private, writable copies of
            # the child's own (read-only, shared) parameters, the parent's bytes.
            assert set(map(id, built.weights_t)) <= set(map(id, ranker.model.parameters()))
            assert [w.tobytes() for w in built.weights_t.values()] == [
                w.tobytes() for w in expected.weights_t.values()
            ] and built.weights_t
            assert all(w.flags.owndata for w in built.weights_t.values())
            # And the real worker process serves the same bytes from them.
            TestProcessClusterParity._assert_parity(served, frontend.serve_many(contexts))
            del ranker, built, served
            child.segment.close()
        finally:
            frontend.close()
        assert pool.leaked_segments() == []
        assert _dev_shm_entries(pool.publisher.prefix) == []


def _second_model(dataset, model_config):
    """Same architecture, different weights: what a deploy promotes."""
    return create_model(
        "wide_deep", dataset.schema, replace(model_config, seed=model_config.seed + 1)
    )


def _kill_and_await_respawn(victim, timeout: float = 30.0) -> None:
    """SIGKILL the worker's process, then wait for its successor's READY."""
    killed_pid = victim.process.pid
    os.kill(killed_pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        process = victim.process
        if process is not None and process.pid != killed_pid and victim.wait_ready(0.1):
            return
        time.sleep(0.05)
    raise AssertionError("supervisor did not respawn the worker")


def _dev_shm_entries(prefix: str):
    shm_root = Path("/dev/shm")
    if not shm_root.exists():  # pragma: no cover - non-Linux hosts
        return []
    return [entry.name for entry in shm_root.iterdir() if entry.name.startswith(prefix)]


# ---------------------------------------------------------------------- #
# tentpole: single-writer journal under a multi-threaded feedback burst
# ---------------------------------------------------------------------- #
class TestSingleWriterFeedback:
    def test_journal_dense_under_concurrent_feedback(self, proc_setup, tmp_path):
        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        durable = DurableStateStore(tmp_path / "durable", fsync="every-write")
        contexts = sample_burst_contexts(dataset.world, 32, day=100, seed=19)
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=PROC_CONFIG, pipeline_config=PIPELINE_CONFIG,
            process_workers=True, durable=durable,
        )
        try:
            responses = frontend.serve_many(contexts)

            errors = []

            def feed(share: int) -> None:
                try:
                    for index in range(share, len(responses), 4):
                        response = responses[index]
                        clicks = (
                            np.random.default_rng(index).random(len(response.items))
                            < 0.5
                        ).astype(np.float64)
                        frontend.feedback(
                            response, clicks, rng=np.random.default_rng(1000 + index)
                        )
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=feed, args=(share,)) for share in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

            # The single writer's journal: exactly one dense sequence per
            # feedback, no interleaving artefacts from the client threads.
            scan = scan_journal(durable.journal_path)
            assert not scan.torn_tail
            sequences = [sequence for sequence, _ in scan.records]
            assert sequences == list(range(1, len(responses) + 1))
            assert state.feedback_seq == len(responses)

            # Every replica converges to the writer's exact state.
            parent_fingerprint = state_fingerprint(state)
            for handle in frontend.pool.workers:
                reply = TestProcessClusterParity._synced(handle, state.feedback_seq)
                assert reply["applied_seq"] == state.feedback_seq
                assert reply["fingerprint"] == parent_fingerprint
        finally:
            frontend.close()
            durable.close()
        assert frontend.pool.leaked_segments() == []

    def test_each_committed_event_is_encoded_once(self, proc_setup, tmp_path, monkeypatch):
        """Journal and replication fan-out both attached: the journal record
        and every replica's FEEDBACK frame carry one encoding of the event."""
        from repro.serving import wire

        dataset, encoder, model = proc_setup
        state = fresh_state(dataset)
        durable = DurableStateStore(tmp_path / "durable", fsync="off")
        frontend = build_cluster(
            dataset.world, model, encoder, state,
            config=PROC_CONFIG, pipeline_config=PIPELINE_CONFIG,
            process_workers=True, durable=durable,
        )
        try:
            responses = frontend.serve_many(
                sample_burst_contexts(dataset.world, 5, day=100, seed=37)
            )
            assert state.journal is not None and len(frontend.pool.workers) == 2
            encodes = []
            pack_context = wire.pack_context
            monkeypatch.setattr(
                wire, "pack_context",
                lambda context: encodes.append(context) or pack_context(context),
            )
            for index, response in enumerate(responses):
                frontend.feedback(
                    response, np.ones(len(response.items)), rng=np.random.default_rng(index)
                )
            monkeypatch.undo()
            assert state.feedback_seq == len(responses)
            assert encodes == [response.context for response in responses]
            parent_fingerprint = state_fingerprint(state)
            for handle in frontend.pool.workers:
                reply = TestProcessClusterParity._synced(handle, state.feedback_seq)
                assert reply["fingerprint"] == parent_fingerprint
        finally:
            frontend.close()
            durable.close()
        assert frontend.pool.leaked_segments() == []
