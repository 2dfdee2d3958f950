"""TTL response cache for the serving cluster frontend.

Hot traffic is repetitive — the same user refreshing the same feed within a
few seconds — and re-running recall + ranking for an identical request is
pure waste.  :class:`ResponseCache` memoises whole :class:`ServeResponse`
objects, keyed so that staleness is *structural* rather than policed:

``(user, context-hash, model-version, feature-version)``

* the **context hash** is the context's :mod:`repro.serving.wire` bytes,
  every field included, so "the same request" means byte-the-same inputs;
* the **model version** is the owning worker's hot-swap counter — a
  :class:`repro.serving.cluster.deploy.RollingDeploy` bump strands every
  entry served by the previous model;
* the **feature version** is ``ServingState.user_version[user]``, which
  ``record_clicks`` bumps — click feedback strands the user's entries the
  moment their behaviour sequence changes.

Entries the key structure cannot see (another user's click shifting the
popularity priors) are bounded by the TTL instead — the documented
freshness contract of the cluster layer.  Stranded entries age out by TTL
or LRU eviction; capacity is bounded by ``max_entries``.

The cache is shared by every frontend client thread, so all operations are
lock-protected; ``clock`` is injectable for deterministic TTL tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

from ...data.world import RequestContext
from .. import wire
from ..pipeline import ServeResponse

__all__ = ["ResponseCache", "context_hash"]


def context_hash(context: RequestContext) -> bytes:
    """Hashable identity of one request context: its wire bytes (every
    field, exact)."""
    return wire.pack_context(context)


class ResponseCache:
    """Bounded TTL + LRU cache of served responses, versioned-key-invalidated."""

    def __init__(
        self,
        ttl_seconds: float = 30.0,
        max_entries: int = 100_000,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.ttl_seconds = ttl_seconds
        self.max_entries = max_entries
        self.clock = clock
        self._entries: "OrderedDict[Hashable, Tuple[float, ServeResponse]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(context: RequestContext, model_version: int, feature_version: int) -> Tuple:
        """The full cache key: request identity x model x user-feature version.

        The user is part of :func:`context_hash` (its leading bytes), so the
        key needs no separate user element.
        """
        return (context_hash(context), model_version, feature_version)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[ServeResponse]:
        """The cached response, or ``None`` on miss/expiry.

        Returned responses are shared objects — treat them as immutable
        (every pipeline consumer already does; stages fill envelopes once).
        """
        now = self.clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            expires_at, response = entry
            if now >= expires_at:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return response

    def put(self, key: Hashable, response: ServeResponse) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = (self.clock() + self.ttl_seconds, response)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def purge_expired(self) -> int:
        """Drop every entry whose TTL has lapsed; returns how many.

        Expiry normally happens lazily on ``get``; this is the maintenance
        sweep for long-idle caches.  Like every TTL comparison in this class
        it reads the injectable ``clock``, never ``time.monotonic`` directly,
        so frozen-clock tests stay deterministic.
        """
        now = self.clock()
        with self._lock:
            expired = [
                key for key, (expires_at, _) in self._entries.items()
                if now >= expires_at
            ]
            for key in expired:
                del self._entries[key]
            self.expirations += len(expired)
            return len(expired)

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.expirations = 0
            self.evictions = 0

    # ------------------------------------------------------------------ #
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "expirations": self.expirations,
            "evictions": self.evictions,
        }
