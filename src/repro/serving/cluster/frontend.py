"""The cluster frontend: shard routing, response cache, request fan-in.

:class:`ClusterFrontend` is the single entry point client threads talk to.
For each request it

1. resolves the owning shard on the consistent-hash ring (``user_index`` →
   worker, so one user's traffic and feedback always land on one replica);
2. consults the :class:`repro.serving.cluster.cache.ResponseCache` under the
   versioned key ``(user, context-hash, shard model-version, user feature-
   version)`` — a hit returns a completed future without touching a queue;
3. on a miss, submits to the shard worker's coalescing queue and hooks the
   cache fill onto the response future.

``serve_many`` is the open-loop burst entry: it submits every request
before waiting on any response, so concurrent arrivals coalesce into the
workers' micro-batches, and returns responses in input order.

The frontend is provably safe to put in front of a single pipeline: stages
never mutate serving state, every worker's pipeline is built from the
same configuration over the same shared :class:`ServingState`, and
recall draws per-request deterministic randomness — so for any request set
the cluster's (items, scores, candidates) are byte-identical to the
single-pipeline baseline, whichever shard served them and however they were
micro-batched (pinned by ``tests/serving/test_cluster.py`` and
``benchmarks/test_cluster_scaling.py``).

``build_cluster`` assembles the canonical deployment: N workers, each with
its own pipeline built by :func:`repro.serving.pipeline.build_pipeline` and
its own :class:`StageMetrics` accumulator, behind one frontend with one ring
and one response cache.
"""

from __future__ import annotations

import copy
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ...data.world import RequestContext, SyntheticWorld
from ...models.base import BaseCTRModel
from ..durable import DurableStateStore
from ..encoder import OnlineRequestEncoder
from ..pipeline import (
    PipelineConfig,
    ServeRequest,
    ServeResponse,
    StageMetrics,
    build_pipeline,
)
from ..state import ServingState
from .cache import ResponseCache
from .sharding import ConsistentHashRing
from .worker import ClusterWorker

__all__ = ["ClusterConfig", "ClusterFrontend", "build_cluster"]


@dataclass
class ClusterConfig:
    """Declarative description of one serving cluster."""

    num_workers: int = 4
    #: Coalescing: at most this many already-queued requests per micro-batch.
    max_batch: int = 64
    #: Admission control: pending requests per worker before backpressure.
    queue_depth: int = 512
    cache_enabled: bool = True
    cache_ttl_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")


class ClusterFrontend:
    """Shard-routing, cache-fronted fan-in over N coalescing workers."""

    def __init__(
        self,
        workers: Sequence[ClusterWorker],
        state: ServingState,
        cache: Optional[ResponseCache] = None,
        durable: Optional[DurableStateStore] = None,
        pool=None,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        self.workers: Dict[str, ClusterWorker] = {}
        for worker in workers:
            if worker.worker_id in self.workers:
                raise ValueError(f"duplicate worker id {worker.worker_id!r}")
            self.workers[worker.worker_id] = worker
        self.state = state
        self.cache = cache
        #: The cluster's durable store (journal + snapshots), when persistence
        #: is enabled: ``RollingDeploy`` snapshots through it before promoting
        #: and :meth:`snapshot` exposes it for periodic checkpointing.
        self.durable = durable
        #: The owning :class:`~repro.serving.cluster.supervisor.
        #: ProcessWorkerPool` when the workers are process handles; closing
        #: the frontend closes the pool (processes, segments, supervisor).
        self.pool = pool
        self.ring = ConsistentHashRing(list(self.workers))
        self.warmed_requests = 0
        self.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterFrontend":
        for worker in self.workers.values():
            worker.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        if self.pool is not None:
            self.pool.close(timeout=timeout)
            return
        for worker in self.workers.values():
            worker.stop(timeout=timeout)

    def __enter__(self) -> "ClusterFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_request(request: Union[ServeRequest, RequestContext]) -> ServeRequest:
        if isinstance(request, RequestContext):
            return ServeRequest(context=request)
        return request

    def worker_for(self, request: Union[ServeRequest, RequestContext]) -> ClusterWorker:
        """The shard replica owning this request's user."""
        request = self._as_request(request)
        return self.workers[self.ring.shard_for(request.context.user_index)]

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Union[ServeRequest, RequestContext],
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> Future:
        """Route one request: cache lookup, then the shard worker's queue.

        Returns a future that resolves to the :class:`ServeResponse` — an
        already-completed one on a cache hit.  With ``block=False`` a full
        shard queue raises
        :class:`repro.serving.cluster.worker.ClusterOverloadError`.
        """
        request = self._as_request(request)
        worker = self.worker_for(request)
        on_done = None
        if self.cache is not None:
            user = request.context.user_index
            key = ResponseCache.key_for(
                request.context,
                worker.model_version,
                int(self.state.user_version[user]),
            )
            cached = self.cache.get(key)
            if cached is not None:
                future: Future = Future()
                future.set_result(cached)
                return future
            cache = self.cache

            def on_done(response: ServeResponse, _key=key, _cache=cache) -> None:
                _cache.put(_key, response)
        return worker.submit(request, on_done=on_done, block=block, timeout=timeout)

    def serve(
        self, request: Union[ServeRequest, RequestContext], timeout: float = 60.0
    ) -> ServeResponse:
        """Serve one request synchronously (latency path)."""
        return self.submit(request).result(timeout=timeout)

    def serve_many(
        self,
        requests: Sequence[Union[ServeRequest, RequestContext]],
        timeout: float = 300.0,
    ) -> List[ServeResponse]:
        """Open-loop burst: submit everything, then gather in input order.

        All requests enter their shard queues before any response is
        awaited, so concurrent arrivals coalesce into micro-batches; a full
        queue applies backpressure to this (client) thread rather than
        dropping the request.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def snapshot(self):
        """Publish a snapshot generation of the shared state (durable only)."""
        if self.durable is None:
            raise RuntimeError("this cluster has no durable store attached")
        return self.durable.snapshot(self.state)

    def warm(self, requests: Sequence[Union[ServeRequest, RequestContext]],
             timeout: float = 300.0) -> int:
        """Prefill the response and feature caches by serving ``requests``.

        The warm-boot path for a recovered cluster: serving the state's
        recovered ``recent_contexts`` through the normal submit path fills
        the response cache under each shard's current model version and
        rebuilds the behaviour-snapshot cache entries, so the first real
        burst hits like a warm process.  Stages never mutate serving state,
        so warming is invisible apart from cache occupancy and telemetry.
        """
        self.serve_many(requests, timeout=timeout)
        self.warmed_requests += len(requests)
        return len(requests)

    # ------------------------------------------------------------------ #
    # feedback
    # ------------------------------------------------------------------ #
    def feedback(self, response: ServeResponse, clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        """Route click feedback to the shard that served the response.

        Runs on the calling thread; the state write itself is serialised by
        ``ServingState.lock``, and shard routing keeps one user's feedback
        ordered with that user's serving on a single replica.
        """
        worker = self.worker_for(response.request)
        worker.engine.feedback(response, clicks, rng=rng)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def merged_metrics(self) -> StageMetrics:
        """One cluster-wide StageMetrics combining every worker's accumulator."""
        return StageMetrics.merged(
            [w.metrics for w in self.workers.values() if w.metrics is not None]
        )

    def worker_stats(self) -> List[dict]:
        return [worker.stats() for worker in self.workers.values()]

    def stats(self) -> dict:
        workers = self.worker_stats()
        combined = {
            "num_workers": len(workers),
            "requests_served": sum(w["requests_served"] for w in workers),
            "batches_run": sum(w["batches_run"] for w in workers),
            "rejected": sum(w["rejected"] for w in workers),
            "batch_failures": sum(w["batch_failures"] for w in workers),
            "on_done_failures": sum(w["on_done_failures"] for w in workers),
        }
        combined["mean_batch"] = (
            combined["requests_served"] / max(combined["batches_run"], 1)
        )
        if self.cache is not None:
            combined["cache"] = self.cache.stats()
        return combined


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #
def build_cluster(
    world: SyntheticWorld,
    model: BaseCTRModel,
    encoder: OnlineRequestEncoder,
    state: ServingState,
    config: Optional[ClusterConfig] = None,
    pipeline_config: Optional[PipelineConfig] = None,
    durable: Optional[DurableStateStore] = None,
    process_workers: bool = False,
) -> ClusterFrontend:
    """Assemble N identical worker replicas behind one frontend.

    Every worker's engine is its *own* pipeline, built by
    :func:`build_pipeline` from ``pipeline_config`` (own ranker, own recall
    strategy built from the same seed — identical per-request pools by the
    recall determinism invariant) over the *shared* ``state``, plus its own
    ``StageMetrics`` and — like a production replica loading the published
    checkpoint — its own deep copy of the model (a deployed model must not
    change under serving while its caller keeps training the same object
    in place; parameters are copied bitwise, so replicas score identically).

    With ``durable`` the cluster's feedback path journals into that store:
    ``state`` is attached (genesis snapshot included when the store is
    empty — recovered states are already attached and skip this), the
    frontend exposes ``snapshot()``, and ``RollingDeploy`` snapshots before
    promoting.  A durable cluster serves the state's ``recent_contexts``
    once on boot, so a recovered cluster starts with warm response/feature
    caches.

    With ``process_workers`` each replica's pipeline runs in a real
    ``multiprocessing`` process behind a :class:`~repro.serving.cluster.
    procworker.ProcessWorkerHandle` — the same :class:`ClusterWorker` queue
    and dispatcher, one frame per micro-batch each way: model weights are
    published once into shared memory, the parent process is the single
    feedback writer, and a supervisor respawns dead workers warm from the
    durable store (the pool creates a throwaway one when ``durable`` is
    None).
    """
    config = config or ClusterConfig()
    pipeline_config = pipeline_config or PipelineConfig()
    pool = None
    if process_workers:
        # Imported lazily: supervisor imports this module for ClusterConfig.
        from .supervisor import ProcessWorkerPool

        pool = ProcessWorkerPool(
            world, model, encoder, state,
            config=config,
            pipeline_config=pipeline_config,
            durable=durable,
        )
        pool.start()
        try:
            pool.wait_healthy()
        except Exception:
            pool.close()
            raise
        workers, durable = pool.workers, pool.durable
    else:
        workers = []
        for index in range(config.num_workers):
            metrics = StageMetrics()
            engine = build_pipeline(
                world, copy.deepcopy(model), encoder, state, pipeline_config,
                metrics=metrics,
            )
            workers.append(
                ClusterWorker(
                    f"worker-{index}",
                    engine,
                    max_batch=config.max_batch,
                    queue_depth=config.queue_depth,
                    metrics=metrics,
                )
            )
        if durable is not None and state.journal is None:
            durable.attach(state)
    cache = None
    if config.cache_enabled:
        cache = ResponseCache(ttl_seconds=config.cache_ttl_seconds)
    frontend = ClusterFrontend(workers, state, cache=cache, durable=durable, pool=pool)
    if durable is not None and state.recent_contexts:
        frontend.warm(list(state.recent_contexts))
    return frontend
