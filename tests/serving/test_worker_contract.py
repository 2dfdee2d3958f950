"""One worker contract, both transports.

A thread replica (:class:`ClusterWorker` over an in-process pipeline) and a
process replica (:class:`ProcessWorkerHandle`, a ``ClusterWorker`` whose
engine's ``run_many`` crosses a pipe) share one queue, one dispatcher and
one set of counters — so admission control, batch-failure containment,
swap atomicity, shutdown, ``stats()`` and the stage telemetry in
``worker.metrics`` are stated once here and run against both kinds.  So is
the dispatch policy (work-conserving: a batch is whatever is already queued,
never waited for), stepped one ``run_many`` at a time through a gate on the
engine — events with hard timeouts, no sleep and no clock.
"""

from __future__ import annotations

import threading
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
    "batch_failures", "on_done_failures", "model_version", "depth",
}
WAIT_S = 60.0  # a hard timeout on every wait: it fails the test, never paces it


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

    def stage_counts(self, batches):
        """What one pipeline books serving ``batches``, one ``run_many`` each."""
        metrics = StageMetrics()
        pipeline = build_pipeline(
            self.dataset.world, self.model_a, self.encoder, self.fresh_state(),
            PIPELINE_CONFIG, metrics=metrics,
        )
        for batch in batches:
            pipeline.run_many(batch)
        return stage_counts(metrics)

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


class Gate:
    """Holds a worker's engine at the door of ``run_many``.

    Every call records the contexts it was handed and the worker's
    ``model_version`` on the way in and out, signals ``entered`` and blocks
    until :meth:`open` lets exactly one call through — so the test decides
    what is in the queue at the moment the dispatcher comes back for more.
    Works on both kinds: a process replica's ``run_many`` is parent-side.
    """

    def __init__(self, worker: ClusterWorker) -> None:
        self.batches = []
        self.versions = []
        self._entered = threading.Semaphore(0)
        self._opened = threading.Semaphore(0)
        inner = worker.engine.run_many

        def run_many(requests):
            self.batches.append([getattr(item, "context", item) for item in requests])
            version = worker.model_version
            self._entered.release()
            if not self._opened.acquire(timeout=WAIT_S):
                raise TimeoutError("the test never opened the gate")
            responses = inner(requests)
            self.versions.append((version, worker.model_version))
            return responses

        worker.engine.run_many = run_many

    def await_batch(self) -> list:
        """Block until the dispatcher is inside ``run_many``; its batch."""
        assert self._entered.acquire(timeout=WAIT_S), "no batch reached the engine"
        return self.batches[-1]

    def open(self, times: int = 1) -> None:
        for _ in range(times):
            self._opened.release()


def stage_counts(metrics: StageMetrics) -> dict:
    """Per stage: calls, requests, items in, items out (the exact counters)."""
    return {
        name: (stats.calls, stats.requests, stats.items_in, stats.items_out)
        for name in metrics.stages()
        for stats in [metrics.stats(name)]
    }


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
        # The worker's telemetry is what one pipeline books for those three
        # micro-batches — in the parent, for a process replica too.
        assert stage_counts(worker.metrics) == deployment.stage_counts(
            [contexts[:8], contexts[8:16], contexts[16:]]
        )

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


class TestStageTelemetry:
    """``worker.metrics`` is a plain parent-side :class:`StageMetrics` in both
    kinds: a process replica's stage records ride its batch replies."""

    def test_reading_metrics_does_not_wait_for_a_batch(self, deployment):
        worker = deployment.worker(max_batch=4)
        gate = Gate(worker)
        worker.start()
        contexts = deployment.contexts(2, seed=36)
        first = worker.submit(contexts[0])
        gate.await_batch()
        gate.open()
        first.result(timeout=WAIT_S)
        second = worker.submit(contexts[1])
        gate.await_batch()  # held inside run_many from here on
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(stage_counts(worker.metrics)), daemon=True
        )
        reader.start()
        reader.join(timeout=WAIT_S)
        assert not reader.is_alive(), "reading worker.metrics waited for the batch"
        assert seen == [deployment.stage_counts([contexts[:1]])]
        gate.open()
        second.result(timeout=WAIT_S)
        assert stage_counts(worker.metrics) == deployment.stage_counts(
            [contexts[:1], contexts[1:]]
        )

    def test_a_failed_batch_records_no_stage(self, deployment):
        """The rule, in both kinds: telemetry counts served batches, as
        ``batches_run`` does.  A batch that raises records no stage — not even
        the ones that ran before the stage that raised."""
        worker = deployment.worker(max_batch=4)
        contexts = deployment.contexts(6, seed=37)
        # Recall serves this context; the rank stage's encoder rejects it.
        poison = replace(contexts[1], time_period=-1)
        recall = build_pipeline(
            deployment.dataset.world, deployment.model_a, deployment.encoder,
            deployment.fresh_state(), PIPELINE_CONFIG,
        ).stage("recall")
        assert len(recall.strategy.recall_many([poison])[0]) > 0
        first = [contexts[0], poison, contexts[2], contexts[3]]
        futures = [worker.submit(context) for context in first + contexts[4:6]]
        worker.start()
        for future in futures[:4]:
            assert type(future.exception(timeout=WAIT_S)) is ValueError
        for future in futures[4:]:
            assert future.exception(timeout=WAIT_S) is None
        assert worker.batch_failures == 1 and worker.batches_run == 1
        assert stage_counts(worker.metrics) == deployment.stage_counts([contexts[4:6]])


class TestDispatchPolicy:
    """Work-conserving dispatch: block for the first request, take what is
    already queued (up to ``max_batch``), execute.  No timer to wait out."""

    def test_a_lone_request_is_a_batch_of_one(self, deployment):
        worker = deployment.worker(max_batch=8)
        gate = Gate(worker)
        worker.start()
        context = deployment.contexts(1, seed=31)[0]
        future = worker.submit(context)
        # The idle dispatcher took it straight to the engine: nothing else was
        # queued, and it did not wait for anything else to be.
        assert gate.await_batch() == [context]
        assert worker.depth == 0 and not future.done()
        gate.open()
        assert future.result(timeout=WAIT_S).context == context
        assert worker.stats()["mean_batch"] == 1.0

    def test_batches_grow_only_while_one_is_executing(self, deployment):
        worker = deployment.worker(max_batch=4)
        gate = Gate(worker)
        worker.start()
        contexts = deployment.contexts(8, seed=32)
        futures = [worker.submit(contexts[0])]
        assert gate.await_batch() == contexts[:1]
        # Gate shut = a batch is executing: k = 6 arrivals queue up behind it
        # and leave as min(k, max_batch) = 4 in submit order, then the rest.
        futures += [worker.submit(context) for context in contexts[1:7]]
        assert worker.depth == 6
        gate.open()
        assert gate.await_batch() == contexts[1:5]
        assert worker.depth == 2
        gate.open()
        assert gate.await_batch() == contexts[5:7]
        # Fewer than max_batch are queued and the dispatcher does not wait for
        # more: the eighth request, submitted now, is its own batch.
        futures.append(worker.submit(contexts[7]))
        gate.open()
        assert gate.await_batch() == contexts[7:]
        gate.open()
        responses = [future.result(timeout=WAIT_S) for future in futures]
        assert [response.context for response in responses] == contexts
        assert len(gate.batches) == worker.batches_run == 4
        expected = deployment.baseline(deployment.model_a, contexts)
        assert all(same_bytes(got, want) for got, want in zip(responses, expected))

    def test_swap_lands_between_gated_batches(self, deployment):
        worker = deployment.worker(max_batch=2)
        gate = Gate(worker)
        worker.start()
        contexts = deployment.contexts(5, seed=33)
        futures = [worker.submit(context) for context in contexts[:1]]
        gate.await_batch()
        futures += [worker.submit(context) for context in contexts[1:]]
        swapped = threading.Event()
        swapper = threading.Thread(
            target=lambda: (worker.swap_model(deployment.model_b), swapped.set())
        )
        swapper.start()
        # A batch is executing, so the swap cannot have landed ...
        assert worker.model_version == 0 and not swapped.is_set()
        gate.open(times=3)
        responses = [future.result(timeout=WAIT_S) for future in futures]
        assert swapped.wait(timeout=WAIT_S) and worker.model_version == 1
        swapper.join(timeout=WAIT_S)
        assert not swapper.is_alive()
        # ... and when it does, it is never inside one: the version a batch
        # saw on the way in is the version it saw on the way out.
        assert len(gate.versions) == 3
        assert all(entered == left for entered, left in gate.versions)
        old = deployment.baseline(deployment.model_a, contexts)
        new = deployment.baseline(deployment.model_b, contexts)
        for index, (version, _) in enumerate(gate.versions):
            served_by = new if version else old
            for slot in ([0], [1, 2], [3, 4])[index]:
                assert same_bytes(responses[slot], served_by[slot])

    def test_full_queue_still_rejects_while_a_batch_executes(self, deployment):
        worker = deployment.worker(max_batch=2, queue_depth=3)
        gate = Gate(worker)
        worker.start()
        contexts = deployment.contexts(5, seed=34)
        futures = [worker.submit(contexts[0])]
        gate.await_batch()
        futures += [worker.submit(context, block=False) for context in contexts[1:4]]
        with pytest.raises(ClusterOverloadError):
            worker.submit(contexts[4], block=False)
        assert worker.rejected == 1 and worker.depth == 3
        gate.open(times=3)
        assert [f.result(timeout=WAIT_S).context for f in futures] == contexts[:4]
        assert gate.batches == [contexts[:1], contexts[1:3], contexts[3:4]]


class TestOnDoneFailuresAreCounted:
    def test_a_raising_hook_is_contained_and_counted(self, deployment):
        """A broken cache fill must not kill serving — nor stay invisible."""
        worker = deployment.worker(max_batch=4)
        contexts = deployment.contexts(3, seed=35)
        filled = []

        def broken(response):
            raise OSError("cache is on fire")

        futures = [
            worker.submit(contexts[0], on_done=broken),
            worker.submit(contexts[1], on_done=filled.append),
            worker.submit(contexts[2], on_done=broken),
        ]
        worker.start()
        responses = [future.result(timeout=WAIT_S) for future in futures]
        assert [response.context for response in responses] == contexts
        assert filled == [responses[1]]
        assert worker.on_done_failures == 2 == worker.stats()["on_done_failures"]
        assert worker.batch_failures == 0 and worker.requests_served == 3
