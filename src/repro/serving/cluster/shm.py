"""Shared-memory tensor segments for process-isolated cluster workers.

Model weights are read-only at serve time, so worker *processes* should
share one physical copy instead of each deserialising its own.
:class:`SegmentPublisher` (parent side) packs a named tensor dict into a
single ``multiprocessing.shared_memory`` segment —
one version-stamped segment per published model version, every tensor at a
64-byte-aligned offset — and hands out a JSON-able **manifest** describing
``{segment, version, nbytes, tensors: {name: {dtype, shape, offset}}}``.
The manifest travels over the control plane (pipes / pickled spawn args);
the tensor bytes never do.

:class:`MappedSegment` (worker side) maps a manifest back into zero-copy
**read-only** numpy views.  On Linux it maps ``/dev/shm/<segment>`` directly
with ``mmap.ACCESS_READ`` — deliberately bypassing
``multiprocessing.shared_memory.SharedMemory`` for the attach, because on
Python < 3.13 attaching also registers the segment with the process-local
``resource_tracker``, which then unlinks it when *that* process exits (the
classic premature-unlink hazard).  Where ``/dev/shm`` is unavailable the
attach falls back to ``SharedMemory`` and immediately unregisters itself
from the tracker, restoring single-owner semantics: only the publisher ever
unlinks.

Unlinking is refcounted: every worker handle that maps a segment retains
it, a hot swap releases the previous version, and the publisher unlinks a
segment when its last reference drops — so a rolling deploy republishing
shard by shard reclaims the old model's memory exactly when the last shard
has moved off it.  ``close()`` force-unlinks whatever is left (shutdown),
and :meth:`SegmentPublisher.live_segments` is the leak oracle the process-
cluster test tier asserts empty after clean *and* unclean shutdown.
"""

from __future__ import annotations

import mmap
import os
import secrets
import threading
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

__all__ = ["SEGMENT_PREFIX", "MappedSegment", "SegmentPublisher", "align_offset"]

#: Every segment name starts with this, so tests (and operators) can scan
#: ``/dev/shm`` for leaked ``repro-shm-*`` files after a cluster shuts down.
SEGMENT_PREFIX = "repro-shm"

#: Tensor offsets are aligned to the widest vector width anyone plausibly
#: loads from these buffers; alignment also keeps views page-friendly.
_ALIGNMENT = 64


def align_offset(offset: int, alignment: int = _ALIGNMENT) -> int:
    """The smallest aligned offset >= ``offset``."""
    return (offset + alignment - 1) // alignment * alignment


class SegmentPublisher:
    """Parent-side owner of shared tensor segments: create, refcount, unlink.

    One publisher per :class:`~repro.serving.cluster.supervisor.
    ProcessWorkerPool`; segment names embed the pid and a random token, so
    two pools (or two test runs racing on one host) can never collide.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        self.prefix = prefix or f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._version = 0
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refs: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.published = 0
        self.unlinked = 0

    # ------------------------------------------------------------------ #
    def publish(self, tensors: Dict[str, np.ndarray]) -> dict:
        """Copy ``tensors`` into one new version-stamped segment; return its manifest.

        The segment starts with zero references — callers retain it per
        mapping worker (:meth:`retain`) and release on unmap/swap
        (:meth:`release`); the publisher unlinks at zero.
        """
        if not tensors:
            raise ValueError("refusing to publish an empty tensor dict")
        specs: Dict[str, dict] = {}
        offset = 0
        arrays: Dict[str, np.ndarray] = {}
        for name in sorted(tensors):
            array = np.ascontiguousarray(tensors[name])
            offset = align_offset(offset)
            specs[name] = {
                "dtype": array.dtype.str,
                "shape": [int(dim) for dim in array.shape],
                "offset": offset,
            }
            arrays[name] = array
            offset += array.nbytes
        nbytes = max(int(offset), 1)
        with self._lock:
            self._version += 1
            version = self._version
            segment_name = f"{self.prefix}-v{version}"
            segment = shared_memory.SharedMemory(
                name=segment_name, create=True, size=nbytes
            )
            for name, spec in specs.items():
                array = arrays[name]
                target = np.ndarray(
                    array.shape, dtype=array.dtype,
                    buffer=segment.buf, offset=spec["offset"],
                )
                target[...] = array
            self._segments[segment_name] = segment
            self._refs[segment_name] = 0
            self.published += 1
        return {
            "segment": segment_name,
            "version": version,
            "nbytes": nbytes,
            "tensors": specs,
        }

    # ------------------------------------------------------------------ #
    def retain(self, segment_name: str) -> None:
        """One more worker maps ``segment_name``."""
        with self._lock:
            if segment_name not in self._segments:
                raise KeyError(f"unknown or already-unlinked segment {segment_name!r}")
            self._refs[segment_name] += 1

    def release(self, segment_name: str) -> bool:
        """One mapping dropped; unlink when the last reference is gone.

        Returns ``True`` when this release unlinked the segment.  Releasing
        an already-unlinked segment is a no-op (shutdown paths race).
        """
        with self._lock:
            if segment_name not in self._segments:
                return False
            self._refs[segment_name] = max(0, self._refs[segment_name] - 1)
            if self._refs[segment_name] > 0:
                return False
            return self._unlink_locked(segment_name)

    def _unlink_locked(self, segment_name: str) -> bool:
        segment = self._segments.pop(segment_name, None)
        self._refs.pop(segment_name, None)
        if segment is None:
            return False
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - external cleanup raced
                pass
        self.unlinked += 1
        return True

    # ------------------------------------------------------------------ #
    def live_segments(self) -> List[str]:
        """Names of segments created and not yet unlinked (the leak oracle)."""
        with self._lock:
            return sorted(self._segments)

    def refcount(self, segment_name: str) -> int:
        with self._lock:
            return int(self._refs.get(segment_name, 0))

    def close(self) -> None:
        """Unlink every remaining segment, refcounts notwithstanding (shutdown)."""
        with self._lock:
            for segment_name in list(self._segments):
                self._unlink_locked(segment_name)

    def __enter__(self) -> "SegmentPublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MappedSegment:
    """Worker-side zero-copy read-only views over one published segment."""

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest
        self.segment_name = str(manifest["segment"])
        self._mmap: Optional[mmap.mmap] = None
        self._shm: Optional[shared_memory.SharedMemory] = None
        nbytes = int(manifest["nbytes"])
        shm_path = Path("/dev/shm") / self.segment_name
        if shm_path.exists():
            with open(shm_path, "rb") as handle:
                self._mmap = mmap.mmap(handle.fileno(), nbytes, access=mmap.ACCESS_READ)
            buffer = memoryview(self._mmap)
        else:  # pragma: no cover - non-Linux fallback
            self._shm = shared_memory.SharedMemory(name=self.segment_name)
            # Attaching registered this segment with *our* resource tracker
            # (Python < 3.13); undo that so our exit can never unlink a
            # segment the publisher still owns.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(f"/{self.segment_name}", "shared_memory")
            except Exception:  # noqa: BLE001 - best-effort on exotic platforms
                pass
            buffer = self._shm.buf
        views: Dict[str, np.ndarray] = {}
        for name, spec in manifest["tensors"].items():
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            view = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=int(spec["offset"])
            ).reshape(shape)
            view.flags.writeable = False
            views[name] = view
        self.views = views

    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    def __contains__(self, name: str) -> bool:
        return name in self.views

    @property
    def version(self) -> int:
        return int(self.manifest["version"])

    def close(self) -> None:
        """Drop the mapping (best-effort: live views keep the pages mapped).

        numpy views exported from the mmap pin its buffer; ``mmap.close``
        then raises ``BufferError``.  A swapped-out model's views die with
        the model object, at which point the garbage collector releases the
        mapping — so failure to close eagerly is not a leak, just a deferral.
        """
        self.views = {}
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None
        if self._shm is not None:  # pragma: no cover - non-Linux fallback
            try:
                self._shm.close()
            except BufferError:
                pass
            self._shm = None
