"""One worker contract, both transports.

A thread replica (:class:`ClusterWorker` over an in-process pipeline) and a
process replica (:class:`ProcessWorkerHandle`, a ``ClusterWorker`` whose
engine's ``run_many`` crosses a pipe) share one queue, one dispatcher and
one set of counters — so admission control, batch-failure containment,
swap atomicity, shutdown and ``stats()`` are stated once here and run
against both kinds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.data import LogGenerator
from repro.models import create_model
from repro.serving import (
    ClusterConfig,
    ClusterOverloadError,
    ClusterWorker,
    OnlineRequestEncoder,
    PipelineConfig,
    ProcessWorkerPool,
    ServingState,
    StageMetrics,
    build_pipeline,
    sample_burst_contexts,
)

PIPELINE_CONFIG = PipelineConfig(recall_size=12, exposure_size=5)
STATS_KEYS = {
    "worker", "requests_served", "batches_run", "mean_batch", "rejected",
    "batch_failures", "model_version", "depth",
}


class Deployment:
    """What one test needs: an unstarted worker of the parametrised kind and
    single-pipeline baselines over identical fresh states."""

    def __init__(self, kind, dataset, model_config):
        self.kind = kind
        self.dataset = dataset
        self.encoder = OnlineRequestEncoder(dataset.world, dataset.schema)
        self.model_a = create_model("wide_deep", dataset.schema, model_config)
        self.model_b = create_model(
            "wide_deep", dataset.schema, replace(model_config, seed=model_config.seed + 1)
        )
        self._closers = []

    def fresh_state(self):
        generator = LogGenerator(self.dataset.world, self.dataset.config.log_config())
        return ServingState.from_log_generator(generator, self.dataset.log)

    def contexts(self, count, seed):
        return sample_burst_contexts(self.dataset.world, count, day=100, seed=seed)

    def baseline(self, model, contexts):
        pipeline = build_pipeline(
            self.dataset.world, model, self.encoder, self.fresh_state(), PIPELINE_CONFIG
        )
        return pipeline.run_many(contexts)

    def worker(self, **knobs) -> ClusterWorker:
        """An *unstarted* worker: requests submitted before ``start()`` sit in
        its queue, which makes micro-batch boundaries deterministic."""
        world, state = self.dataset.world, self.fresh_state()
        if self.kind == "thread":
            metrics = StageMetrics()
            pipeline = build_pipeline(
                world, self.model_a, self.encoder, state, PIPELINE_CONFIG, metrics=metrics
            )
            worker = ClusterWorker("worker-0", pipeline, metrics=metrics, **knobs)
            self._closers.append(worker.stop)
            return worker
        pool = ProcessWorkerPool(
            world, self.model_a, self.encoder, state,
            config=ClusterConfig(num_workers=1, cache_enabled=False, **knobs),
            pipeline_config=PIPELINE_CONFIG,
        )
        self._closers.append(pool.close)
        pool.start().wait_healthy()
        return pool.workers[0]

    def close(self):
        for closer in self._closers:
            closer()


@pytest.fixture(params=["thread", pytest.param("process", marks=pytest.mark.proc_cluster)])
def deployment(request, eleme_dataset, small_model_config):
    made = Deployment(request.param, eleme_dataset, small_model_config)
    yield made
    made.close()


def same_bytes(left, right) -> bool:
    return all(
        getattr(left, name).tobytes() == getattr(right, name).tobytes()
        for name in ("candidates", "items", "scores")
    )


class TestWorkerContract:
    def test_queued_burst_coalesces_into_exact_micro_batches(self, deployment):
        worker = deployment.worker(max_batch=8)
        contexts = deployment.contexts(20, seed=21)
        # Queue everything before the dispatcher starts: the drain must pack
        # ceil(20/8) = 3 micro-batches, preserving submission order.
        futures = [worker.submit(context) for context in contexts]
        worker.start()
        responses = [future.result(timeout=60.0) for future in futures]
        assert worker.batches_run == 3
        assert worker.requests_served == 20
        expected = deployment.baseline(deployment.model_a, contexts)
        assert all(same_bytes(got, want) for got, want in zip(responses, expected))
        assert [response.context for response in responses] == contexts

    def test_full_queue_rejects_nonblocking_submits(self, deployment):
        worker = deployment.worker(queue_depth=4)
        contexts = deployment.contexts(5, seed=23)
        futures = [worker.submit(context, block=False) for context in contexts[:4]]
        assert worker.depth == 4
        with pytest.raises(ClusterOverloadError):
            worker.submit(contexts[4], block=False)
        with pytest.raises(ClusterOverloadError):
            worker.submit(contexts[4], timeout=0.01)
        assert worker.rejected == 2 and worker.stats()["rejected"] == 2
        worker.start()
        assert all(len(f.result(timeout=60.0).items) > 0 for f in futures)

    def test_failing_batch_fails_that_batch_only(self, deployment):
        worker = deployment.worker(max_batch=4)
        contexts = deployment.contexts(7, seed=24)
        # No such city: the recall stage raises KeyError for the whole batch.
        poison = replace(contexts[1], city=999)
        first = [contexts[0], poison, contexts[2], contexts[3]]
        futures = [worker.submit(context) for context in first + contexts[4:6]]
        worker.start()
        for future in futures[:4]:
            assert type(future.exception(timeout=60.0)) is KeyError
        for future in futures[4:]:
            assert future.exception(timeout=60.0) is None
        assert worker.batch_failures == 1
        assert worker.batches_run == 1 and worker.requests_served == 2
        # ... and the worker is still serving.
        assert len(worker.submit(contexts[6]).result(timeout=60.0).items) > 0
        assert worker.stats()["batch_failures"] == 1

    def test_swap_mid_burst_lands_between_micro_batches(self, deployment):
        worker = deployment.worker(max_batch=4)
        contexts = deployment.contexts(28, seed=25)
        old = deployment.baseline(deployment.model_a, contexts)
        new = deployment.baseline(deployment.model_b, contexts)
        assert not any(same_bytes(a, b) for a, b in zip(old, new))
        futures = [worker.submit(context) for context in contexts[:24]]
        worker.start()
        futures[0].result(timeout=60.0)
        worker.swap_model(deployment.model_b)  # contends with the running burst
        assert worker.model_version == 1
        futures += [worker.submit(context) for context in contexts[24:]]
        responses = [future.result(timeout=60.0) for future in futures]
        by_new = [same_bytes(got, want) for got, want in zip(responses, new)]
        by_old = [same_bytes(got, want) for got, want in zip(responses, old)]
        # Wholly old or wholly new, never a mixture ...
        assert all(a != b for a, b in zip(by_old, by_new))
        # ... old before the swap, new after it, switching once, and only at
        # a micro-batch boundary (batches of 4 in submission order).
        assert by_old[0] and all(by_new[24:])
        switch = by_new.index(True)
        assert all(by_new[switch:]) and not any(by_new[:switch])
        assert switch % 4 == 0

    def test_stop_fails_parked_requests_and_refuses_new_ones(self, deployment):
        worker = deployment.worker()
        contexts = deployment.contexts(2, seed=26)
        parked = worker.submit(contexts[0])
        worker.stop()  # never started; the parked future must not hang
        with pytest.raises(RuntimeError):
            parked.result(timeout=5.0)
        with pytest.raises(RuntimeError):
            worker.submit(contexts[1])
        assert worker.depth == 0  # nothing left parked without a dispatcher

    def test_stats_keys_are_the_same_in_both_kinds(self, deployment):
        worker = deployment.worker().start()
        worker.submit(deployment.contexts(1, seed=27)[0]).result(timeout=60.0)
        stats = worker.stats()
        extra = {"respawns"} if deployment.kind == "process" else set()
        assert set(stats) == STATS_KEYS | extra
        assert stats["requests_served"] == stats["batches_run"] == 1
        assert stats["mean_batch"] == 1.0 and stats["depth"] == 0
        assert worker.metrics.stats("rank").calls == 1
