"""Process-isolated cluster workers: child main loop + parent-side handle.

The threaded :class:`~repro.serving.cluster.worker.ClusterWorker` escapes
nothing — CPU-bound ranking serialises on the GIL, so adding workers adds
only coalescing.  This module runs each worker in a real ``multiprocessing``
process (spawn context) and keeps the rest of the cluster oblivious:
:class:`ProcessWorkerHandle` lives in the parent and mimics the
``ClusterWorker`` surface (``submit`` → ``Future``, ``swap_model``,
``metrics``, ``stats``, ``model_version``), so :class:`ClusterFrontend`,
:class:`RollingDeploy` and the load generator drive either kind unchanged.

Data plane (per worker, one duplex ``Pipe``):

* parent → child: :data:`~repro.serving.cluster.codec.SERVE` frames (compact
  pickle-free codec, one correlation id each), :data:`FEEDBACK` replication
  frames, control frames (swap / stats / sync / stop);
* child → parent: :data:`RESPONSE` / :data:`ERROR` frames matched back to
  futures by correlation id, plus control replies.

The child coalesces exactly like the threaded dispatcher: after the first
``SERVE`` frame it polls the pipe until ``max_batch`` requests are in hand
or ``max_wait_ms`` elapses, and serves the whole micro-batch through one
``run_many``.  A control frame arriving mid-gather flushes the batch first,
so model swaps stay atomic between micro-batches — the same invariant the
thread worker enforces with its execution lock.

State plane — the **single-writer** discipline: the parent process owns the
authoritative :class:`ServingState`.  Click feedback funnels through the
handle's ``engine.feedback`` into ``state.record_clicks`` (journaled via
the existing ``attach_journal`` hook, dense sequence numbers), and a
feedback listener streams each committed ``(seq, event)`` to every worker,
where it re-applies through the same deterministic ``apply_feedback`` the
journal replay uses.  Children skip sequences they already hold (their boot
snapshot covers them) and treat a gap as fatal — replicas are provably
byte-identical to the parent, which the parity suite checks with
:func:`~repro.serving.durable.snapshot.state_fingerprint`.

Model plane: weights come from shared memory
(:mod:`repro.serving.cluster.shm`) — the child builds the model architecture
from config, then *adopts* the read-only views in place of its own arrays
(inference never writes parameters or buffers), so N workers share one
physical copy of every weight tensor.  Everything derived from the weights —
a two-tower model's frozen item tables — the child's
:class:`~repro.serving.ranker.Ranker` builds on first use, exactly as an
in-process one does.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ...data.world import RequestContext, SyntheticWorld
from ...features.schema import FeatureSchema
from ...models.base import BaseCTRModel, ModelConfig
from ...models.registry import create_model
from ..pipeline import (
    PipelineConfig,
    ServeRequest,
    ServeResponse,
    StageMetrics,
    build_pipeline,
)
from . import codec
from .shm import MappedSegment
from .worker import ClusterOverloadError

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from .supervisor import ProcessWorkerPool

__all__ = ["ProcessWorkerHandle", "WorkerBootstrap"]


@dataclass
class WorkerBootstrap:
    """Everything a spawned worker needs to boot, shipped as the spawn arg.

    Deliberately *excludes* model weights and serving state: weights arrive
    by shared-memory manifest, state by durable-store recovery plus the
    feedback stream.  What remains is small configuration — the spawn pickle
    stays light no matter how big the model is.
    """

    worker_id: str
    world: SyntheticWorld
    schema: FeatureSchema
    model_name: str
    model_config: ModelConfig
    model_manifest: dict
    pipeline_config: PipelineConfig
    durable_root: str
    geohash_match_prefix: int
    max_batch: int
    max_wait_ms: float


# ---------------------------------------------------------------------- #
# zero-copy weight adoption
# ---------------------------------------------------------------------- #
def _adopt_state_dict_views(model: BaseCTRModel, segment: MappedSegment) -> None:
    """Point ``model``'s parameters and buffers at the shared read-only views.

    ``load_state_dict`` copies by contract (training mutates in place); the
    serve-only child wants the opposite — every worker sharing one physical
    copy — so the views are installed directly.  Inference runs under
    ``no_grad`` + ``inference_mode`` and eval-mode batch norm only *reads*
    its running stats, so nothing ever writes through these views; numpy
    would raise on the read-only buffer if something did.
    """
    for name, param in model.named_parameters():
        view = segment[f"weights.{name}"]
        if view.shape != param.data.shape:
            raise ValueError(
                f"shared tensor {name!r} has shape {view.shape}, "
                f"model expects {param.data.shape}"
            )
        param.data = view
    for key, module, attribute in model._named_buffers():
        object.__setattr__(module, attribute, segment[f"weights.{key}"])


# ---------------------------------------------------------------------- #
# child side
# ---------------------------------------------------------------------- #
class _ChildWorker:
    """The worker process: boot from durable store + shared segments, serve."""

    def __init__(self, bootstrap: WorkerBootstrap, conn) -> None:
        from ..durable import DurableStateStore
        from ..encoder import OnlineRequestEncoder

        self.bootstrap = bootstrap
        self.conn = conn
        self.max_batch = int(bootstrap.max_batch)
        self.max_wait_ms = float(bootstrap.max_wait_ms)
        self.metrics = StageMetrics()
        self.model_version = 0
        self.requests_served = 0
        self.batches_run = 0
        self.batch_failures = 0
        self.feedback_applied = 0
        self.feedback_skipped = 0

        self.encoder = OnlineRequestEncoder(bootstrap.world, bootstrap.schema)
        # Warm boot: latest snapshot ⊕ journal replay from the shared durable
        # store — the parent snapshots under the state lock right before
        # spawning, so everything this recovery misses arrives as FEEDBACK
        # frames with sequence > our recovered high-water mark.
        store = DurableStateStore(bootstrap.durable_root, fsync="off")
        try:
            self.state, self.recovery = store.recover(
                bootstrap.world,
                encoder=self.encoder,
                geohash_match_prefix=bootstrap.geohash_match_prefix,
                attach=False,
                warm=True,
            )
        finally:
            store.close()
        model, self.segment = self._materialise_model(bootstrap.model_manifest)
        self.pipeline = build_pipeline(
            bootstrap.world, model, self.encoder, self.state,
            bootstrap.pipeline_config, metrics=self.metrics,
        )

    # ------------------------------------------------------------------ #
    def _materialise_model(self, manifest: dict) -> Tuple[BaseCTRModel, MappedSegment]:
        segment = MappedSegment(manifest)
        model = create_model(
            self.bootstrap.model_name, self.bootstrap.schema, self.bootstrap.model_config
        )
        _adopt_state_dict_views(model, segment)
        return model, segment

    def _install_model(self, manifest: dict) -> None:
        """Hot-swap onto a newly published segment (version bump included)."""
        model, segment = self._materialise_model(manifest)
        self.pipeline.swap_model(model)
        previous, self.segment = self.segment, segment
        previous.close()
        self.model_version += 1

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        self.conn.send_bytes(
            codec.encode_control(
                codec.READY,
                {
                    "worker": self.bootstrap.worker_id,
                    "applied_seq": int(self.state.feedback_seq),
                    "recovery": self.recovery.summary(),
                },
            )
        )
        while True:
            blob = self.conn.recv_bytes()
            kind, payload = codec.decode_frame(blob)
            if kind == codec.SERVE:
                leftover = self._serve_batch(payload)
                if leftover is None:
                    continue
                kind, payload = leftover
            if self._handle_control(kind, payload):
                return

    def _serve_batch(self, first_payload: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Coalesce SERVE frames into one micro-batch; return any control
        frame that interrupted the gather (handled by the caller *after* the
        batch flushes, keeping swaps atomic between micro-batches)."""
        batch: List[Tuple[int, ServeRequest]] = [codec.decode_serve(first_payload)]
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        leftover: Optional[Tuple[bytes, bytes]] = None
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if not self.conn.poll(max(remaining, 0)):
                break
            kind, payload = codec.decode_frame(self.conn.recv_bytes())
            if kind != codec.SERVE:
                leftover = (kind, payload)
                break
            batch.append(codec.decode_serve(payload))
        self._execute(batch)
        return leftover

    def _execute(self, batch: List[Tuple[int, ServeRequest]]) -> None:
        try:
            responses = self.pipeline.run_many([request for _, request in batch])
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            self.batch_failures += 1
            for corr, _ in batch:
                self.conn.send_bytes(codec.encode_error(corr, error))
            return
        self.batches_run += 1
        self.requests_served += len(batch)
        for (corr, _), response in zip(batch, responses):
            self.conn.send_bytes(codec.encode_serve_response(corr, response))

    # ------------------------------------------------------------------ #
    def _handle_control(self, kind: bytes, payload: bytes) -> bool:
        from ..durable.journal import FeedbackEvent
        from ..durable.snapshot import state_fingerprint

        if kind == codec.FEEDBACK:
            sequence, raw = codec.decode_feedback(payload)
            if sequence <= self.state.feedback_seq:
                # Boot snapshot (or a redelivery after respawn) already
                # covers this mutation; applying twice would double-count.
                self.feedback_skipped += 1
                return False
            if sequence != self.state.feedback_seq + 1:
                raise RuntimeError(
                    f"feedback gap: replica at seq {self.state.feedback_seq}, "
                    f"stream delivered {sequence}"
                )
            event = FeedbackEvent.from_bytes(raw)
            self.state.apply_feedback(
                event.context, event.items, event.clicks, event.orders
            )
            self.state.feedback_seq = sequence
            self.feedback_applied += 1
        elif kind == codec.SWAP:
            self._install_model(codec.decode_control(payload)["manifest"])
            self.conn.send_bytes(
                codec.encode_control(codec.SWAPPED, {"version": self.model_version})
            )
        elif kind == codec.STATS:
            self.conn.send_bytes(
                codec.encode_control(
                    codec.STATS_REPLY,
                    {
                        "requests_served": self.requests_served,
                        "batches_run": self.batches_run,
                        "batch_failures": self.batch_failures,
                        "model_version": self.model_version,
                        "feedback_applied": self.feedback_applied,
                        "feedback_skipped": self.feedback_skipped,
                        "metrics": self.metrics.to_payload(),
                    },
                )
            )
        elif kind == codec.SYNC:
            self.conn.send_bytes(
                codec.encode_control(
                    codec.SYNC_REPLY,
                    {
                        "applied_seq": int(self.state.feedback_seq),
                        "fingerprint": state_fingerprint(self.state),
                    },
                )
            )
        elif kind == codec.STOP:
            return True
        else:
            raise RuntimeError(f"unexpected frame kind {kind!r} in worker")
        return False


def _worker_main(bootstrap: WorkerBootstrap, conn) -> None:
    """Spawn entry point of one worker process."""
    try:
        _ChildWorker(bootstrap, conn).run()
    except (EOFError, OSError):
        # Parent went away (pipe closed) — exit quietly, nothing to report to.
        pass
    except BaseException as error:  # noqa: BLE001 - last-resort report
        try:
            conn.send_bytes(
                codec.encode_control(
                    codec.FATAL,
                    {
                        "worker": bootstrap.worker_id,
                        "type": type(error).__name__,
                        "message": str(error),
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except Exception:  # noqa: BLE001 - the pipe may already be gone
            pass
    finally:
        try:
            conn.close()
        except Exception:  # noqa: BLE001
            pass


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class _ParentFeedbackEngine:
    """The single-writer funnel behind ``handle.engine.feedback``.

    The frontend calls ``worker.engine.feedback(response, clicks)`` — in the
    thread cluster that hits the worker's pipeline over the shared state; in
    the process cluster every click must mutate the *parent's* authoritative
    state instead (journal + listener broadcast replicate it outward), so
    the handle exposes this shim with the same signature and semantics as
    :meth:`ExposureLogStage.feedback`.
    """

    def __init__(self, state, order_probability: float) -> None:
        self.state = state
        self.order_probability = order_probability

    def feedback(self, response: ServeResponse, clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.state.record_clicks(
            response.context, response.items, np.asarray(clicks),
            order_probability=self.order_probability, rng=rng,
        )


class _PendingRequest:
    __slots__ = ("future", "on_done")

    def __init__(self, future: Future, on_done: Optional[Callable]) -> None:
        self.future = future
        self.on_done = on_done


class ProcessWorkerHandle:
    """Parent-side stand-in for one worker process, ClusterWorker-shaped.

    Owns the pipe, the admission semaphore (the process analogue of the
    thread worker's bounded queue), the correlation table matching RESPONSE
    frames back to futures, and the feedback pump streaming the single
    writer's mutations to the replica.  The handle survives its process:
    :meth:`~repro.serving.cluster.supervisor.ProcessWorkerPool.respawn`
    swaps in a fresh pipe + process while ``worker_id`` and identity stay
    stable, so the frontend's ring never reshuffles on a crash.
    """

    def __init__(
        self,
        pool: "ProcessWorkerPool",
        worker_id: str,
        queue_depth: int,
        max_batch: int,
        max_wait_ms: float,
        order_probability: float,
    ) -> None:
        self.pool = pool
        self.worker_id = worker_id
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.queue_depth = queue_depth
        self.engine = _ParentFeedbackEngine(pool.state, order_probability)
        self.model_version = 0
        self.rejected = 0
        self.respawns = 0
        self.process = None
        self.ready_info: dict = {}
        self._conn = None
        self._epoch = 0
        self._closed = False
        self._manifest: Optional[dict] = None
        self._segment_name: Optional[str] = None
        self._model: Optional[BaseCTRModel] = None
        self._slots = threading.BoundedSemaphore(queue_depth)
        self._corr = 0
        self._pending: Dict[int, _PendingRequest] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._ready = threading.Event()
        self._replies: Dict[bytes, SimpleQueue] = {
            codec.SWAPPED: SimpleQueue(),
            codec.STATS_REPLY: SimpleQueue(),
            codec.SYNC_REPLY: SimpleQueue(),
        }
        self._feedback_queue: SimpleQueue = SimpleQueue()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"feedback-pump-{worker_id}", daemon=True
        )
        self._pump.start()
        self._cached_stats: dict = {}
        self._cached_metrics = StageMetrics()
        self.fatal_error: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # lifecycle (driven by the pool / supervisor)
    # ------------------------------------------------------------------ #
    def start(self) -> "ProcessWorkerHandle":
        return self  # the pool spawns processes; frontend.start() is a no-op

    @property
    def running(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()

    def adopt_process(self, process, conn, epoch: int) -> None:
        """Install a freshly spawned process + pipe (spawn and respawn path)."""
        with self._send_lock:
            old = self._conn
            self._conn = conn
            self._epoch = epoch
        if old is not None:
            try:
                old.close()  # unblocks the superseded reader thread
            except OSError:
                pass
        self.process = process
        self._ready.clear()

    def wait_ready(self, timeout: float = 60.0) -> bool:
        return self._ready.wait(timeout)

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: STOP frame, join, then terminate as a last resort."""
        self._closed = True
        process = self.process
        try:
            self._send(codec.encode_control(codec.STOP))
        except (OSError, ValueError, AttributeError):
            pass
        if process is not None and process.is_alive():
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._fail_pending(RuntimeError(
            f"worker {self.worker_id!r} stopped before serving"
        ))
        if self._segment_name is not None:
            self.pool.publisher.release(self._segment_name)
            self._segment_name = None
        with self._send_lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None

    # ------------------------------------------------------------------ #
    # admission + serving
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Union[ServeRequest, RequestContext],
        on_done: Optional[Callable] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> Future:
        """Send one request to the worker process; returns its future.

        Admission control mirrors the thread worker's bounded queue: at most
        ``queue_depth`` requests in flight, a non-blocking submit over that
        raises :class:`ClusterOverloadError`, a blocking one backpressures
        the client thread.
        """
        if isinstance(request, RequestContext):
            request = ServeRequest(context=request)
        acquired = (
            self._slots.acquire(timeout=timeout) if block and timeout is not None
            else self._slots.acquire(blocking=block)
        )
        if not acquired:
            self.rejected += 1
            raise ClusterOverloadError(
                f"worker {self.worker_id!r} has {self.queue_depth} requests "
                f"in flight"
            )
        future: Future = Future()
        with self._pending_lock:
            self._corr += 1
            corr = self._corr
            self._pending[corr] = _PendingRequest(future, on_done)
        try:
            self._send(codec.encode_serve(corr, request))
        except (OSError, ValueError, AttributeError) as error:
            with self._pending_lock:
                self._pending.pop(corr, None)
            self._release_slot()
            raise RuntimeError(
                f"worker {self.worker_id!r} is not accepting requests: {error}"
            ) from error
        return future

    @property
    def depth(self) -> int:
        """Requests currently in flight to the process (admission gauge)."""
        with self._pending_lock:
            return len(self._pending)

    def _release_slot(self) -> None:
        try:
            self._slots.release()
        except ValueError:  # pragma: no cover - respawn/stop races
            pass

    def _send(self, blob: bytes) -> None:
        with self._send_lock:
            conn = self._conn
            if conn is None:
                raise OSError("pipe is closed")
            conn.send_bytes(blob)

    # ------------------------------------------------------------------ #
    # reader thread (one per spawned process)
    # ------------------------------------------------------------------ #
    def reader_loop(self, conn, epoch: int) -> None:
        try:
            while True:
                blob = conn.recv_bytes()
                kind, payload = codec.decode_frame(blob)
                if kind == codec.RESPONSE:
                    corr, response = codec.decode_serve_response(payload)
                    self._resolve(corr, response, None)
                elif kind == codec.ERROR:
                    corr, error = codec.decode_error(payload)
                    self._resolve(corr, None, error)
                elif kind == codec.READY:
                    self.ready_info = codec.decode_control(payload)
                    self._ready.set()
                elif kind == codec.FATAL:
                    self.fatal_error = codec.decode_control(payload)
                    break
                elif kind in self._replies:
                    self._replies[kind].put(codec.decode_control(payload))
        except (EOFError, OSError):
            pass
        finally:
            self._on_disconnect(epoch)

    def _resolve(self, corr: int, response: Optional[ServeResponse],
                 error: Optional[BaseException]) -> None:
        with self._pending_lock:
            pending = self._pending.pop(corr, None)
        if pending is None:
            return  # request already failed over a disconnect
        self._release_slot()
        if error is not None:
            pending.future.set_exception(error)
            return
        if pending.on_done is not None:
            try:
                pending.on_done(response)
            except Exception:  # noqa: BLE001 - cache fill must not kill serving
                pass
        pending.future.set_result(response)

    def _on_disconnect(self, epoch: int) -> None:
        with self._send_lock:
            if self._epoch != epoch:
                return  # a respawn already superseded this pipe
        self._fail_pending(RuntimeError(
            f"worker {self.worker_id!r} process died mid-flight"
        ))

    def _fail_pending(self, error: BaseException) -> None:
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for entry in pending.values():
            self._release_slot()
            entry.future.set_exception(error)

    # ------------------------------------------------------------------ #
    # feedback replication
    # ------------------------------------------------------------------ #
    def enqueue_feedback(self, sequence: int, event_bytes: bytes) -> None:
        """Called by the state's feedback listener (under the state lock)."""
        self._feedback_queue.put((sequence, event_bytes))

    def _pump_loop(self) -> None:
        while True:
            try:
                item = self._feedback_queue.get(timeout=0.2)
            except Empty:
                if self._closed:
                    return
                continue
            if item is None:
                return
            sequence, event_bytes = item
            frame = codec.encode_feedback(sequence, event_bytes)
            # Retry until delivered: a send can only fail while the process
            # is being respawned, and the respawned child's boot snapshot
            # covers (or its seq-skip ignores) anything re-sent — so the
            # stream never drops an event a live replica still needs.
            while not self._closed:
                try:
                    self._send(frame)
                    break
                except (OSError, ValueError):
                    time.sleep(0.05)

    def close_pump(self) -> None:
        self._closed = True
        self._feedback_queue.put(None)

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    def _request_reply(self, request_kind: bytes, reply_kind: bytes,
                       payload: Optional[dict] = None, timeout: float = 30.0) -> dict:
        with self._control_lock:
            queue = self._replies[reply_kind]
            while True:  # drop stale replies from a died-mid-reply epoch
                try:
                    queue.get_nowait()
                except Empty:
                    break
            self._send(codec.encode_control(request_kind, payload))
            return queue.get(timeout=timeout)

    def swap_model(self, model: BaseCTRModel, replicate: bool = True) -> BaseCTRModel:
        """Republish ``model`` into shared memory and hot-swap the process.

        ``replicate`` is accepted for :class:`ClusterWorker` signature
        parity; a worker process always materialises its own model object
        over the shared views, so there is nothing to deep-copy here.
        """
        manifest = self.pool.publish_model(model)
        reply = self._request_reply(
            codec.SWAP, codec.SWAPPED, {"manifest": manifest}
        )
        previous_segment = self._segment_name
        self.pool.publisher.retain(manifest["segment"])
        self._manifest = manifest
        self._segment_name = manifest["segment"]
        if previous_segment is not None and previous_segment != self._segment_name:
            self.pool.publisher.release(previous_segment)
        previous = self._model
        self._model = model
        self.model_version = int(reply.get("version", self.model_version + 1))
        return previous if previous is not None else model

    def sync(self, timeout: float = 30.0) -> dict:
        """Barrier probe: the replica's applied sequence + state fingerprint."""
        return self._request_reply(codec.SYNC, codec.SYNC_REPLY, timeout=timeout)

    def fetch_stats(self, timeout: float = 10.0) -> dict:
        try:
            reply = self._request_reply(codec.STATS, codec.STATS_REPLY, timeout=timeout)
        except (Empty, OSError, ValueError, KeyError):
            return self._cached_stats
        self._cached_metrics = StageMetrics.from_payload(reply.pop("metrics", {}))
        self._cached_stats = reply
        return reply

    @property
    def metrics(self) -> StageMetrics:
        """This replica's StageMetrics (fetched over the control pipe)."""
        self.fetch_stats()
        return self._cached_metrics

    def stats(self) -> dict:
        child = dict(self.fetch_stats())
        child.pop("feedback_applied", None)
        child.pop("feedback_skipped", None)
        served = int(child.get("requests_served", 0))
        batches = int(child.get("batches_run", 0))
        return {
            "worker": self.worker_id,
            "requests_served": served,
            "batches_run": batches,
            "mean_batch": served / max(batches, 1),
            "rejected": self.rejected,
            "batch_failures": int(child.get("batch_failures", 0)),
            "model_version": self.model_version,
            "depth": self.depth,
            "respawns": self.respawns,
        }
