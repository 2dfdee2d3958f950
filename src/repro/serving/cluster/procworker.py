"""Process-isolated cluster workers: child main loop + parent-side handle.

The threaded :class:`~repro.serving.cluster.worker.ClusterWorker` escapes
nothing — CPU-bound ranking serialises on the GIL, so adding workers adds
only coalescing.  This module runs each replica's *pipeline* in a real
``multiprocessing`` process (spawn context) and changes nothing else:
:class:`ProcessWorkerHandle` **is** a ``ClusterWorker`` — queue,
work-conserving dispatcher, admission control, counters and
``model_version`` are the inherited ones, in the parent — whose ``engine`` is a
:class:`_RemoteEngine`, the child's pipeline one frame away.  So
:class:`ClusterFrontend`, :class:`RollingDeploy` and the load generator
drive either kind unchanged.

Data plane (per worker, one duplex ``Pipe`` driven as an RPC channel — see
:meth:`ProcessWorkerHandle._call`): ``engine.run_many`` sends **one**
:data:`~repro.serving.cluster.codec.SERVE_BATCH` frame per coalesced
micro-batch and blocks for **one** reply, a :data:`RESPONSE_BATCH` or one
:data:`ERROR` that the dispatcher sets on every future of that batch; swap
and sync calls have the same shape; :data:`FEEDBACK` replication frames are
one-way and :data:`STOP` ends the child.  The child is a strict
read-a-frame / answer-a-frame loop — no deadline, no polling, no gathering —
so a swap is atomic between micro-batches by construction, the invariant
the thread worker's execution lock gives.  Telemetry rides the reply: a
:data:`RESPONSE_BATCH` carries the stage records of the batch it answers and
the handle books them into its own :class:`StageMetrics`, so a process
replica's ``metrics`` is a plain parent-side object, as a thread replica's
is, that no call waits for and no respawn resets.

State plane — the **single-writer** discipline: the parent process owns the
authoritative :class:`ServingState`.  Click feedback funnels through
``engine.feedback`` into ``state.record_clicks`` (journaled via the
existing ``attach_journal`` hook, dense sequence numbers), and a feedback
listener streams each committed ``(seq, event)`` to every worker, where it
re-applies through the same deterministic ``apply_feedback`` the journal
replay uses.  Children skip sequences they already hold (their boot
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
in-process one does.  The handle remembers the model it last deployed, and a
respawn boots from *that* one.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from queue import SimpleQueue
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

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
from .worker import ClusterWorker

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from .supervisor import ProcessWorkerPool

__all__ = ["ProcessWorkerHandle", "WorkerBootstrap"]

#: How long a control call (swap / sync) waits for its reply before
#: the replica is declared hung — see :meth:`ProcessWorkerHandle._call`.
_CONTROL_TIMEOUT_S = 30.0


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
            bootstrap.pipeline_config,
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
        """Hot-swap onto a newly published segment."""
        model, segment = self._materialise_model(manifest)
        self.pipeline.swap_model(model)
        previous, self.segment = self.segment, segment
        previous.close()

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Read a frame, answer it, repeat: FEEDBACK has no answer, STOP ends."""
        self.conn.send_bytes(
            codec.encode_control(
                codec.READY,
                {
                    "applied_seq": int(self.state.feedback_seq),
                    "recovery": self.recovery.summary(),
                },
            )
        )
        while True:
            kind, payload = codec.decode_frame(self.conn.recv_bytes())
            if kind == codec.FEEDBACK:
                self._apply_feedback(payload)
            elif kind == codec.STOP:
                return
            else:
                try:
                    reply = self._answer(kind, payload)
                except Exception as error:  # noqa: BLE001 - forwarded to the caller
                    reply = codec.encode_error(error)
                self.conn.send_bytes(reply)

    def _answer(self, kind: bytes, payload: bytes) -> bytes:
        from ..durable.snapshot import state_fingerprint

        if kind == codec.SERVE_BATCH:
            requests = codec.decode_batch(payload, codec.decode_serve)
            metrics = self.pipeline.metrics
            metrics.reset()  # the reply carries this batch's stages alone
            responses = self.pipeline.run_many(requests)
            return codec.encode_response_batch(responses, metrics)
        if kind == codec.SWAP:
            self._install_model(codec.decode_control(payload)["manifest"])
            return codec.encode_control(codec.SWAPPED)
        if kind == codec.SYNC:
            return codec.encode_control(
                codec.SYNC_REPLY,
                {
                    "applied_seq": int(self.state.feedback_seq),
                    "fingerprint": state_fingerprint(self.state),
                },
            )
        raise RuntimeError(f"unexpected frame kind {kind!r} in worker")

    def _apply_feedback(self, payload: bytes) -> None:
        from ..durable.journal import FeedbackEvent

        sequence, raw = codec.decode_feedback(payload)
        if sequence <= self.state.feedback_seq:
            # Boot snapshot (or a redelivery after respawn) already covers
            # this mutation; applying twice would double-count.
            return
        if sequence != self.state.feedback_seq + 1:
            # Fatal on purpose: the respawn's fresh snapshot heals the gap.
            raise RuntimeError(
                f"feedback gap: replica at seq {self.state.feedback_seq}, "
                f"stream delivered {sequence}"
            )
        event = FeedbackEvent.from_bytes(raw)
        self.state.apply_feedback(
            event.context, event.items, event.clicks, event.orders
        )
        self.state.feedback_seq = sequence


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
class _RemoteEngine:
    """The engine a process replica's dispatcher drives: the child's
    pipeline, one frame away.

    ``run_many`` is the whole data plane — one batch frame out, one reply
    frame back, whose stage records it books into the handle's ``metrics``.
    ``feedback`` is the single-writer funnel: where a thread
    worker's pipeline writes the shared state, every click here must mutate
    the *parent's* authoritative state (journal + listener broadcast
    replicate it outward), with the signature and semantics of
    :meth:`ExposureLogStage.feedback`.
    """

    def __init__(self, handle: "ProcessWorkerHandle", order_probability: float) -> None:
        self.handle = handle
        self.state = handle.pool.state
        self.order_probability = order_probability

    def run_many(
        self, requests: Sequence[Union[ServeRequest, RequestContext]]
    ) -> List[ServeResponse]:
        requests = [
            ServeRequest(context=item) if isinstance(item, RequestContext) else item
            for item in requests
        ]
        reply = self.handle._call(
            codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, requests),
            codec.RESPONSE_BATCH,
        )
        responses, stages = codec.decode_response_batch(reply)
        if len(responses) != len(requests):
            raise RuntimeError(f"{len(requests)} requests, {len(responses)} responses")
        for stage in stages:
            self.handle.metrics.record(*stage)
        return responses

    def swap_model(self, model: BaseCTRModel) -> BaseCTRModel:
        """Republish ``model`` into shared memory and hot-swap the process."""
        handle = self.handle
        # Held across the SWAP and the bookkeeping, so a respawn (which takes
        # the same lock to pick its boot model) sees both or neither.
        with handle._rpc_lock:
            manifest = handle.pool.publish_model(model)
            handle._call(
                codec.encode_control(codec.SWAP, {"manifest": manifest}),
                codec.SWAPPED, _CONTROL_TIMEOUT_S,
            )
            previous = handle._model
            handle._map_model(model, manifest)
        return previous

    def feedback(self, response: ServeResponse, clicks: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.state.record_clicks(
            response.context, response.items, np.asarray(clicks),
            order_probability=self.order_probability, rng=rng,
        )


class ProcessWorkerHandle(ClusterWorker):
    """A :class:`ClusterWorker` whose pipeline runs in another process.

    Queue, dispatcher, admission control, counters and ``model_version`` are
    the inherited ones; what this class adds is the process: the pipe (an
    RPC channel, see :meth:`_call`), the feedback pump streaming the single
    writer's mutations to the replica, and the shared-memory segment the
    replica currently maps.  The handle survives its process:
    :meth:`~repro.serving.cluster.supervisor.ProcessWorkerPool.respawn`
    swaps in a fresh pipe + process while ``worker_id`` and identity stay
    stable, so the frontend's ring never reshuffles on a crash, requests
    still queued wait for the new process, and only the micro-batch that
    was in the dead one's hands fails.
    """

    def __init__(self, pool: "ProcessWorkerPool", worker_id: str) -> None:
        self.pool = pool
        config = pool.config
        super().__init__(
            worker_id, _RemoteEngine(self, pool.pipeline_config.order_probability),
            max_batch=config.max_batch, queue_depth=config.queue_depth,
            metrics=StageMetrics(),
        )
        self.respawns = 0
        self.process = None
        self.ready_info: dict = {}
        self.fatal_error: Optional[dict] = None
        self._conn = None
        self._ready = False
        self._closed = False
        self._segment_name: Optional[str] = None
        #: The model this replica serves — what a respawn boots from.
        self._model: BaseCTRModel = pool.model
        self._send_lock = threading.Lock()
        # Re-entrant: a swap holds it across its call and its bookkeeping.
        self._rpc_lock = threading.RLock()
        self._feedback_queue: SimpleQueue = SimpleQueue()
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"feedback-pump-{worker_id}", daemon=True
        )
        self._pump.start()

    # ------------------------------------------------------------------ #
    # lifecycle (driven by the pool / supervisor)
    # ------------------------------------------------------------------ #
    def adopt_pipe(self, conn) -> Tuple[BaseCTRModel, dict]:
        """Install a fresh pipe (spawn and respawn path) and map the model
        the new process boots from; returns that model and its manifest."""
        with self._rpc_lock:
            model = self._model
            manifest = self.pool.publish_model(model)
            self._map_model(model, manifest)
            with self._send_lock:
                old, self._conn = self._conn, conn
            self._ready = False
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        return model, manifest

    def _map_model(self, model: BaseCTRModel, manifest: dict) -> None:
        """This replica now maps ``manifest``'s segment: retain it, release
        the one it moved off (refcounts stay balanced across boot and swap)."""
        publisher = self.pool.publisher
        if manifest["segment"] != self._segment_name:
            publisher.retain(manifest["segment"])
            if self._segment_name is not None:
                publisher.release(self._segment_name)
            self._segment_name = manifest["segment"]
        self._model = model

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Whether the current process has booted, waiting up to ``timeout``."""
        with self._rpc_lock:
            try:
                if not self._ready:
                    self._receive(codec.READY, timeout)
            except (EOFError, OSError, RuntimeError):
                return False  # died while booting; the supervisor respawns it
        return True

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: dispatcher first (parked requests fail), then a STOP
        frame, join, and terminate as a last resort."""
        self._closed = True
        self._feedback_queue.put(None)
        super().stop(timeout)
        process = self.process
        try:
            self._send(codec.encode_control(codec.STOP))
        except (OSError, ValueError):
            pass
        if process is not None and process.is_alive():
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
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
    # the pipe, driven as an RPC channel
    # ------------------------------------------------------------------ #
    def _send(self, blob: bytes) -> None:
        with self._send_lock:
            conn = self._conn
            if conn is None:
                raise OSError("pipe is closed")
            conn.send_bytes(blob)

    def _receive(self, expected: bytes, timeout: Optional[float]) -> bytes:
        """The next frame of kind ``expected`` (caller holds the RPC lock).

        READY is the one unsolicited frame a child sends: whichever receive
        comes first after a spawn consumes it on the way to its own reply.
        """
        while True:
            conn = self._conn
            if conn is None:
                raise OSError("pipe is closed")
            if timeout is not None and not conn.poll(timeout):
                raise TimeoutError(f"no {expected!r} frame within {timeout:.1f}s")
            kind, payload = codec.decode_frame(conn.recv_bytes())
            if kind == codec.READY:
                self.ready_info = codec.decode_control(payload)
                self._ready = True
            if kind == expected:
                return payload
            if kind == codec.ERROR:
                raise codec.decode_error(payload)
            if kind == codec.FATAL:
                self.fatal_error = codec.decode_control(payload)
                raise RuntimeError(f"worker {self.worker_id!r} died: {self.fatal_error}")
            if kind != codec.READY:
                raise RuntimeError(f"expected a {expected!r} frame, received {kind!r}")

    def _call(self, frame: bytes, reply_kind: bytes,
              timeout: Optional[float] = None) -> bytes:
        """One frame out, its one reply back, under one lock.

        Every child → parent frame answers exactly one parent → child frame,
        so holding the lock over send + receive is all the correlation the
        pipe needs.  A dead child is an EOF here: it fails this call — the
        micro-batch in hand — and nothing else.  A child that misses a
        ``timeout`` is killed rather than left to answer late (its reply
        would be read as the answer to the *next* call); the supervisor
        respawns it behind a fresh pipe.
        """
        try:
            with self._rpc_lock:
                self._send(frame)
                return self._receive(reply_kind, timeout)
        except TimeoutError as error:
            self.process.kill()
            raise RuntimeError(f"worker {self.worker_id!r} timed out: {error}") from error
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"worker {self.worker_id!r} process died mid-flight"
            ) from error

    # ------------------------------------------------------------------ #
    # feedback replication
    # ------------------------------------------------------------------ #
    def enqueue_feedback(self, sequence: int, event_bytes: bytes) -> None:
        """Called by the state's feedback listener (under the state lock)."""
        self._feedback_queue.put((sequence, event_bytes))

    def _pump_loop(self) -> None:
        while True:
            item = self._feedback_queue.get()
            if item is None:  # stop()'s sentinel
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

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    def swap_model(self, model: BaseCTRModel, replicate: bool = True) -> BaseCTRModel:
        """Hot-swap the process onto ``model``, between micro-batches.

        ``replicate`` is accepted for signature parity and ignored: a worker
        process always materialises its own model object over the shared
        views, so there is nothing to deep-copy (and a copy would publish a
        second segment per shard).
        """
        return super().swap_model(model, replicate=False)

    def sync(self, timeout: float = _CONTROL_TIMEOUT_S) -> dict:
        """Barrier probe: the replica's applied sequence + state fingerprint."""
        return codec.decode_control(
            self._call(codec.encode_control(codec.SYNC), codec.SYNC_REPLY, timeout)
        )

    def stats(self) -> dict:
        return {**super().stats(), "respawns": self.respawns}
