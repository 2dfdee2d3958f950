"""Cross-process cluster test tier: parity, crash/respawn, leaks, single writer.

The process cluster's proof burden, per suite:

* **envelope round-trip** — ``ServeRequest`` / ``ServeResponse`` cross the
  pipe as codec frames that normalise numpy scalar context fields to plain
  scalars; ``ClusterOverloadError`` also survives pickling (futures);
* **injectable clock** — every ``ResponseCache`` TTL comparison reads the
  injected clock (a booby-trapped ``time.monotonic`` proves no path sneaks
  past it), so frozen-clock tests are deterministic;
* **byte parity** — the process cluster's (items, scores, candidates) are
  byte-identical to the single-pipeline baseline, before and after a
  replicated feedback round, with every replica's state fingerprint equal
  to the parent writer's;
* **crash/respawn** — SIGKILL a worker process: the supervisor respawns it
  warm from the durable store into the *same* handle (ring stable), the
  replica catches up to the writer's fingerprint, and serving resumes;
* **no leaked segments** — after clean *and* unclean (SIGKILL) shutdown the
  publisher holds no live segments and ``/dev/shm`` holds no files with the
  pool's prefix (the CI job additionally runs ``-W error::UserWarning`` so a
  resource-tracker leak warning at interpreter exit fails the build);
* **single-writer feedback** — a multi-threaded feedback burst through the
  frontend keeps the journal dense-sequenced (1..N, no gaps or duplicates)
  while every worker replica converges to the writer's fingerprint;
* **weights-only segments** — a published segment carries ``weights.*`` and
  nothing else; a worker booted from it builds its own two-tower item
  tables, byte-equal to the parent's ``precompute_item_tables``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
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
from repro.serving.pipeline import ServeRequest, ServeResponse
from repro.data.world import RequestContext

pytestmark = pytest.mark.proc_cluster

PIPELINE_CONFIG = PipelineConfig(recall_size=12, exposure_size=5)
PROC_CONFIG = ClusterConfig(num_workers=2, cache_enabled=False, max_wait_ms=2.0)


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
            codec.encode_error(3, ClusterOverloadError("full"))
        )
        assert kind == codec.ERROR
        corr, error = codec.decode_error(payload)
        assert corr == 3 and type(error) is ClusterOverloadError

        class Evil(Exception):
            pass

        _, payload = codec.decode_frame(codec.encode_error(4, Evil("boom")))
        _, error = codec.decode_error(payload)
        assert type(error) is RuntimeError  # unknown types never rehydrate
        assert "Evil" in str(error)


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
            killed_pid = victim.process.pid
            os.kill(killed_pid, signal.SIGKILL)

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                process = victim.process
                if (
                    process is not None and process.pid != killed_pid
                    and victim.wait_ready(0.1)
                ):
                    break
                time.sleep(0.05)
            assert victim.process.pid != killed_pid, "supervisor did not respawn"
            assert victim.respawns == 1

            # Warm boot: the replica recovered snapshot ⊕ journal ⊕ stream up
            # to the writer's exact state.
            reply = TestProcessClusterParity._synced(victim, state.feedback_seq)
            assert reply["applied_seq"] == state.feedback_seq
            assert reply["fingerprint"] == state_fingerprint(state)

            # The ring never changed, and the respawned worker serves.
            again = frontend.serve_many(contexts)
            assert len(again) == len(contexts)
            assert all(response.items is not None for response in again)
        finally:
            frontend.close()
        # Unclean death happened mid-run; shutdown must still unlink all.
        assert pool.leaked_segments() == []
        assert _dev_shm_entries(prefix) == []

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
                    max_batch=8, max_wait_ms=0.0,
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
            # And the real worker process serves the same bytes from them.
            TestProcessClusterParity._assert_parity(served, frontend.serve_many(contexts))
            del ranker, built, served
            child.segment.close()
        finally:
            frontend.close()
        assert pool.leaked_segments() == []
        assert _dev_shm_entries(pool.publisher.prefix) == []


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
