"""One serving-cluster worker: a coalescing request queue over a pipeline.

A :class:`ClusterWorker` owns one serving engine — a
:class:`repro.serving.pipeline.ServingPipeline`, or for a process replica
the child's pipeline one frame away — and a bounded request queue drained
by a dedicated dispatcher thread.  The dispatcher is *work-conserving*: it
blocks for the first pending request, takes whatever else is already queued
(up to ``max_batch``) and serves the micro-batch through one ``run_many``
call — it never waits for a batch to fill.  An idle worker therefore serves
a lone request at once, and batches grow by themselves exactly while a
batch is executing: under load per-request arrivals still turn into the
batched scoring path (one model forward per micro-batch — the engine-level
throughput win).

Admission control is the bounded queue: a non-blocking submit against a
full queue raises :class:`ClusterOverloadError` instead of letting latency
grow without bound (the frontend surfaces the rejection count), while a
blocking submit applies backpressure to the producing client thread.

Model promotion is atomic with respect to micro-batches: ``swap_model``
takes the same execution lock the dispatcher holds while serving a batch,
so every request is scored either entirely by the old model or entirely by
the new one, and the worker's ``model_version`` counter — part of the
response-cache key — bumps with the swap.
"""

from __future__ import annotations

import copy
import queue
import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Union

from ...data.world import RequestContext
from ...models.base import BaseCTRModel
from ..pipeline import ServeRequest, ServingPipeline, StageMetrics

__all__ = ["ClusterOverloadError", "ClusterWorker"]


class ClusterOverloadError(RuntimeError):
    """A worker's queue is full and the submit was not allowed to block."""


class _Pending:
    """One enqueued request with its completion future and cache hook."""

    __slots__ = ("request", "future", "on_done")

    def __init__(self, request: ServeRequest, future: Future,
                 on_done: Optional[Callable] = None) -> None:
        self.request = request
        self.future = future
        self.on_done = on_done


class ClusterWorker:
    """A worker replica: queue + dispatcher thread + one pipeline engine."""

    def __init__(
        self,
        worker_id: str,
        engine: ServingPipeline,
        max_batch: int = 64,
        queue_depth: int = 512,
        metrics: Optional[StageMetrics] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.worker_id = worker_id
        self.engine = engine
        self.max_batch = max_batch
        self.queue: "queue.Queue[_Pending]" = queue.Queue(maxsize=queue_depth)
        #: The worker's own telemetry accumulator (its pipeline records into
        #: it); merged cluster-wide by the frontend.
        self.metrics = metrics
        #: Bumped on every ``swap_model``; part of the response-cache key, so
        #: a deploy strands all entries served by the previous model.
        self.model_version = 0
        self.requests_served = 0
        self.batches_run = 0
        self.rejected = 0
        self.batch_failures = 0
        self.on_done_failures = 0
        self._stop = threading.Event()
        # Held while a micro-batch executes and while a model swaps: swaps
        # are atomic between micro-batches, never inside one.
        self._exec_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name=f"cluster-worker-{worker_id}", daemon=True
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterWorker":
        if not self._thread.is_alive() and not self._stop.is_set():
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the dispatcher; pending requests fail with a shutdown error."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)
        self._fail_pending()

    def _fail_pending(self) -> None:
        while True:
            try:
                pending = self.queue.get_nowait()
            except queue.Empty:
                break
            pending.future.set_exception(
                RuntimeError(f"worker {self.worker_id!r} stopped before serving")
            )

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Union[ServeRequest, RequestContext],
        on_done: Optional[Callable] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> Future:
        """Enqueue one request; returns the future its response will fill.

        ``block=False`` (or a ``timeout`` that elapses) against a full queue
        raises :class:`ClusterOverloadError` — admission control instead of
        unbounded queueing.  ``on_done(response)`` runs on the dispatcher
        thread right before the future resolves (the frontend's cache-fill
        hook).  A stopped worker raises ``RuntimeError``.
        """
        future: Future = Future()
        pending = _Pending(request, future, on_done)
        try:
            self.queue.put(pending, block=block, timeout=timeout)
        except queue.Full:
            self.rejected += 1
            raise ClusterOverloadError(
                f"worker {self.worker_id!r} queue is full "
                f"({self.queue.maxsize} pending requests)"
            ) from None
        if self._stop.is_set():
            # No dispatcher will ever take this request, and stop()'s own
            # drain may already have run: fail what is parked, then refuse.
            self._fail_pending()
            raise RuntimeError(f"worker {self.worker_id!r} is stopped")
        return future

    @property
    def depth(self) -> int:
        """Requests currently queued (approximate under concurrency)."""
        return self.queue.qsize()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self.queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            # Only what is already queued: whatever arrives while this batch
            # executes is the next one.
            while len(batch) < self.max_batch:
                try:
                    batch.append(self.queue.get_nowait())
                except queue.Empty:
                    break
            self._execute(batch)

    def _execute(self, batch: List[_Pending]) -> None:
        with self._exec_lock:
            try:
                responses = self.engine.run_many([pending.request for pending in batch])
            except BaseException as error:  # noqa: BLE001 - forwarded to callers
                self.batch_failures += 1
                for pending in batch:
                    pending.future.set_exception(error)
                return
        self.batches_run += 1
        self.requests_served += len(batch)
        for pending, response in zip(batch, responses):
            if pending.on_done is not None:
                try:
                    pending.on_done(response)
                except Exception:  # noqa: BLE001 - cache fill must not kill serving
                    self.on_done_failures += 1
            pending.future.set_result(response)

    # ------------------------------------------------------------------ #
    # model lifecycle
    # ------------------------------------------------------------------ #
    def swap_model(self, model: BaseCTRModel, replicate: bool = True) -> BaseCTRModel:
        """Promote ``model`` on the worker's engine, between micro-batches.

        Drives :meth:`ServingPipeline.swap_model` (schema fingerprint check,
        volatile feature-cache drop, embedding-ANN vector re-export) — the
        per-shard building block :class:`RollingDeploy` sequences.  Returns
        the previous model for rollback.

        ``replicate`` (the default) installs this worker's *own deep copy*
        of the model, like a production replica loading its own copy of the
        published checkpoint.  This is a thread-safety requirement, not a
        nicety: ``predict`` flips the model's train/eval mode around every
        forward, so a model object shared by concurrently serving workers
        would race (one worker's mode restore flips batch-norm to batch
        statistics under another worker's forward).  Pass ``replicate=False``
        only to reinstall a model this worker already owns (rollback).
        """
        with self._exec_lock:
            if replicate:
                model = copy.deepcopy(model)
            previous = self.engine.swap_model(model)
            self.model_version += 1
            return previous

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        return {
            "worker": self.worker_id,
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "mean_batch": self.requests_served / max(self.batches_run, 1),
            "rejected": self.rejected,
            "batch_failures": self.batch_failures,
            "on_done_failures": self.on_done_failures,
            "model_version": self.model_version,
            "depth": self.depth,
        }
