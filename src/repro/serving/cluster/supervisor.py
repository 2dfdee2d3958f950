"""Process-worker pool + supervisor: spawn, monitor, respawn warm.

:class:`ProcessWorkerPool` owns everything the process cluster shares:

* the :class:`~repro.serving.cluster.shm.SegmentPublisher` holding model
  weights (published once per model version, mapped read-only by every
  worker);
* the durable store the single-writer state journals into — workers boot
  and *re*-boot warm from its snapshot ⊕ journal, so a respawn costs a
  recovery, not a cold start (a throwaway ``fsync="off"`` store is created
  when the caller didn't bring one: the process cluster needs the durable
  substrate even when the deployment doesn't want persistence);
* the per-worker :class:`~repro.serving.cluster.procworker.
  ProcessWorkerHandle` objects the frontend routes to.

The spawn protocol is what makes replication gapless: a new pipe is
installed on the handle first, then — under the state lock, so no feedback
can commit in between — the pool snapshots the authoritative state and (on
first spawn) registers the handle's feedback listener.  Every mutation is
therefore either inside the snapshot the child recovers from or delivered
as a FEEDBACK frame with a higher sequence; the child's sequence-skip makes
redelivery harmless and a gap impossible.  The parent starts no thread per
process: the child's READY is consumed by the first call made over the new
pipe (or by :meth:`ProcessWorkerPool.wait_healthy`).

:class:`Supervisor` is the liveness loop: it polls worker processes,
counts a death (SIGKILL, OOM, fatal frame), and respawns into the *same*
handle — worker id, ring position, queued requests, ``model_version`` and
the deployed model never change across a crash.
"""

from __future__ import annotations

import tempfile
import threading
import time
from multiprocessing import get_context
from typing import Dict, List, Optional

from ...data.world import SyntheticWorld
from ...models.base import BaseCTRModel
from ..encoder import OnlineRequestEncoder
from ..pipeline import PipelineConfig
from ..state import ServingState
from .frontend import ClusterConfig
from .procworker import ProcessWorkerHandle, WorkerBootstrap, _worker_main
from .shm import SegmentPublisher

__all__ = ["ProcessWorkerPool", "Supervisor"]

_SPAWN = get_context("spawn")
#: Seconds between the supervisor's liveness sweeps.
_POLL_INTERVAL_S = 0.1


class ProcessWorkerPool:
    """N worker processes sharing one model publication and one state writer."""

    def __init__(
        self,
        world: SyntheticWorld,
        model: BaseCTRModel,
        encoder: OnlineRequestEncoder,
        state: ServingState,
        config: Optional[ClusterConfig] = None,
        pipeline_config: Optional[PipelineConfig] = None,
        durable=None,
    ) -> None:
        from ..durable import DurableStateStore

        self.world = world
        self.model = model
        self.encoder = encoder
        self.state = state
        self.config = config or ClusterConfig()
        self.pipeline_config = pipeline_config or PipelineConfig()
        self._own_durable = durable is None
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if durable is None:
            # The durable substrate is how workers (re)boot warm; when the
            # deployment didn't ask for persistence, a throwaway store with
            # fsync off provides it at in-memory-journal cost.
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-proc-cluster-")
            durable = DurableStateStore(self._tempdir.name, fsync="off")
        self.durable = durable
        self.publisher = SegmentPublisher()
        self._manifests: Dict[int, dict] = {}  # serving_uid -> live manifest
        self._lifecycle_lock = threading.Lock()
        self.workers: List[ProcessWorkerHandle] = []
        self._fanout_listener = None
        self.supervisor: Optional["Supervisor"] = None

    # ------------------------------------------------------------------ #
    # model publication
    # ------------------------------------------------------------------ #
    def publish_model(self, model: BaseCTRModel) -> dict:
        """Publish ``model``'s weights into one shared segment (idempotent).

        One segment per model *serving identity*, every ``state_dict`` entry
        under ``weights.<name>``.
        """
        uid = model.serving_uid
        manifest = self._manifests.get(uid)
        if manifest is not None and manifest["segment"] in self.publisher.live_segments():
            return manifest
        tensors = {
            f"weights.{name}": array for name, array in model.state_dict().items()
        }
        manifest = self.publisher.publish(tensors)
        self._manifests[uid] = manifest
        return manifest

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ProcessWorkerPool":
        with self._lifecycle_lock:
            if self.workers:
                return self
            if self.state.journal is None:
                self.durable.attach(self.state)
            # All handles exist before any process spawns, so the fan-out
            # listener registered with the first spawn's snapshot already
            # covers every replica.
            for index in range(self.config.num_workers):
                self.workers.append(ProcessWorkerHandle(self, f"worker-{index}"))
            for handle in self.workers:
                self._spawn_into(handle)
            self.supervisor = Supervisor(self)
            self.supervisor.start()
        return self

    def _spawn_into(self, handle: ProcessWorkerHandle) -> None:
        """Spawn a fresh process into ``handle`` (first boot and respawn)."""
        parent_conn, child_conn = _SPAWN.Pipe(duplex=True)
        # Install the pipe *before* the snapshot: a feedback event committed
        # after the snapshot lands in the new pipe (the child skips anything
        # its recovery already covers), never in a dead one.  The process
        # boots from the model the handle last deployed — not the pool's boot
        # model — so a respawn after a deploy keeps serving what
        # ``model_version`` (and every response-cache key) says it serves.
        model, manifest = handle.adopt_pipe(parent_conn)
        bootstrap = WorkerBootstrap(
            worker_id=handle.worker_id,
            world=self.world,
            schema=self.encoder.schema,
            model_name=model.name,
            model_config=model.config,
            model_manifest=manifest,
            pipeline_config=self.pipeline_config,
            durable_root=str(self.durable.root),
            geohash_match_prefix=self.state.geohash_match_prefix,
        )
        with self.state.lock:
            self.durable.snapshot(self.state)
            if self._fanout_listener is None:
                workers = self.workers

                def fanout(sequence, event, _workers=workers) -> None:
                    raw = event.to_bytes()  # the journal's encode, fanned to N pumps
                    for worker in _workers:
                        worker.enqueue_feedback(sequence, raw)

                self.state.add_feedback_listener(fanout)
                self._fanout_listener = fanout
        process = _SPAWN.Process(
            target=_worker_main,
            args=(bootstrap, child_conn),
            name=f"proc-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process

    def respawn(self, handle: ProcessWorkerHandle) -> None:
        """Replace a dead worker process, warm from the durable store."""
        with self._lifecycle_lock:
            if handle._closed:
                return
            process = handle.process
            if process is not None and process.is_alive():
                return  # raced with liveness: it recovered / was respawned
            if process is not None:
                process.join(0.1)
            handle.respawns += 1
            self._spawn_into(handle)

    def wait_healthy(self, timeout: float = 120.0) -> None:
        """Block until every worker process reports READY."""
        deadline = time.monotonic() + timeout
        for handle in self.workers:
            # A replica that dies while booting is respawned: keep asking.
            while not handle.wait_ready(max(deadline - time.monotonic(), 0.0)):
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"worker {handle.worker_id!r} did not become ready within "
                        f"{timeout:.0f}s"
                        + (f" (fatal: {handle.fatal_error})" if handle.fatal_error else "")
                    )
                time.sleep(0.05)

    def close(self, timeout: float = 10.0) -> None:
        """Stop supervision, workers, replication, and unlink every segment."""
        with self._lifecycle_lock:
            if self.supervisor is not None:
                self.supervisor.stop()
                self.supervisor = None
            for handle in self.workers:
                handle.stop(timeout=timeout)
            if self._fanout_listener is not None:
                self.state.remove_feedback_listener(self._fanout_listener)
                self._fanout_listener = None
            # Detach the journal this pool attached, so the caller's state
            # can join another cluster (or another pool) afterwards.
            if self._own_durable and self.state.journal is self.durable.journal:
                self.state.journal = None
            self.publisher.close()
            self._manifests.clear()
            if self._own_durable:
                self.durable.close()
                if self._tempdir is not None:
                    self._tempdir.cleanup()
                    self._tempdir = None

    def leaked_segments(self) -> List[str]:
        """Shared-memory segments still linked — must be ``[]`` after close."""
        return self.publisher.live_segments()

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class Supervisor:
    """Liveness monitor: detect dead worker processes and respawn them warm."""

    def __init__(self, pool: ProcessWorkerPool) -> None:
        self.pool = pool
        self.deaths_seen = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._monitor_loop, name="proc-cluster-supervisor", daemon=True
        )

    def start(self) -> "Supervisor":
        if not self._thread.is_alive():
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(_POLL_INTERVAL_S):
            for handle in self.pool.workers:
                process = handle.process
                if process is None or handle._closed:
                    continue
                if not process.is_alive():
                    self.deaths_seen += 1
                    try:
                        self.pool.respawn(handle)
                    except Exception:  # noqa: BLE001 - keep supervising others
                        pass
