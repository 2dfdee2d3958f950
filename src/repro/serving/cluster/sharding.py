"""Consistent-hash user→shard routing for the serving cluster.

The cluster frontend must send every request of a user to the *same* worker
replica — that is what makes feedback writes shard-confined and lets each
worker's response-cache slice stay coherent — while still allowing the
cluster to grow or shrink without re-homing the whole user base.  A plain
``user % num_workers`` mapping moves ``(N-1)/N`` of all users when a worker
is added; a consistent-hash ring with virtual nodes moves only ``~1/(N+1)``
of them, and the virtual nodes keep per-worker load balanced even at small
cluster sizes.

:class:`ConsistentHashRing` hashes each worker id onto ``VIRTUAL_NODES``
points of a 64-bit ring (BLAKE2b, stable across processes and Python
builds — ``hash()`` is salted per process and would re-shard every restart);
a user key is hashed onto the same ring and owned by the first worker point
at or after it.  ``add_worker``/``remove_worker`` rebuild the ring, and the
bounded-movement property is pinned by ``tests/serving/test_cluster.py``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Hashable, List, Sequence

__all__ = ["ConsistentHashRing"]

#: Ring points per worker.
VIRTUAL_NODES = 64


def _point(data: str) -> int:
    """Stable 64-bit ring position for an identifier."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Hash ring with virtual nodes mapping user keys to worker ids."""

    def __init__(self, workers: Sequence[Hashable]) -> None:
        self._workers: List[Hashable] = []
        self._points: List[int] = []
        self._owners: List[Hashable] = []
        for worker in workers:
            if worker in self._workers:
                raise ValueError(f"duplicate worker id {worker!r}")
            self._workers.append(worker)
        if not self._workers:
            raise ValueError("a ring needs at least one worker")
        self._rebuild()

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> List[Hashable]:
        """Worker ids in registration order."""
        return list(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def _rebuild(self) -> None:
        pairs = sorted(
            (_point(f"{worker!r}#{vnode}"), worker)
            for worker in self._workers
            for vnode in range(VIRTUAL_NODES)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    # ------------------------------------------------------------------ #
    def shard_for(self, key: Hashable) -> Hashable:
        """The worker owning ``key`` (typically a user index)."""
        position = _point(f"key:{key!r}")
        index = bisect.bisect_right(self._points, position) % len(self._points)
        return self._owners[index]

    def assignment(self, keys: Sequence[Hashable]) -> Dict[Hashable, Hashable]:
        """Snapshot mapping of ``keys`` to workers (resharding diagnostics)."""
        return {key: self.shard_for(key) for key in keys}

    # ------------------------------------------------------------------ #
    def add_worker(self, worker: Hashable) -> None:
        """Join a worker; only keys adjacent to its points move to it."""
        if worker in self._workers:
            raise ValueError(f"duplicate worker id {worker!r}")
        self._workers.append(worker)
        self._rebuild()

    def remove_worker(self, worker: Hashable) -> None:
        """Leave a worker; only its own keys move, to ring successors."""
        if worker not in self._workers:
            raise KeyError(f"unknown worker id {worker!r}")
        if len(self._workers) == 1:
            raise ValueError("cannot remove the last worker")
        self._workers.remove(worker)
        self._rebuild()
