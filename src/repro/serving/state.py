"""Mutable serving-time state: user histories, item statistics, feature cache.

Mirrors what Ele.me's Alibaba Basic Feature Server (ABFS) provides at request
time — the user's profile counters and behaviour sequence — plus the running
shop-level click statistics used by the candidate-item features.  The state
can be taken over from an offline :class:`repro.data.LogGenerator` so the
online experiment continues seamlessly from the end of the training log.

For high-throughput serving the state also hosts a :class:`FeatureCache`: a
versioned store the online encoder uses to avoid re-encoding user behaviour
sequences and static user/item feature tables between requests.  Entries are
keyed by a caller-chosen tuple plus a version number; ``record_clicks`` bumps
the per-user version so stale behaviour snapshots are never served.

When a :class:`repro.serving.replay.ReplayBuffer` is attached
(:meth:`ServingState.attach_replay`), ``record_clicks`` also records each
exposure with its click labels and the counters it was ranked with before
applying the feedback — the raw material of the continuous-refresh
lifecycle.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple,
)

import numpy as np

from ..data.log import ImpressionLog, LogGenerator
from ..data.world import RequestContext, SyntheticWorld
from ..features.behavior import BehaviorHistory
from ..features.time_features import TimePeriod

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycle guards)
    from .durable.journal import Journal
    from .replay import ReplayBuffer

__all__ = ["FeatureCache", "ServingState"]


class FeatureCache:
    """Versioned feature store shared by the online encoders.

    Each entry is ``key -> (version, value)``.  A lookup with a newer version
    than the stored one rebuilds the value, so writers only have to bump a
    version counter (no explicit invalidation fan-out is needed).
    """

    def __init__(self, enabled: bool = True, max_entries: int = 200_000) -> None:
        self._store: Dict[Hashable, Tuple[int, Any]] = {}
        self._pinned: Dict[Hashable, Any] = {}
        self.enabled = enabled
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Guards the entry maps and counters only.  Builders run *outside*
        # the lock: a builder may re-enter ServingState (behaviour snapshots
        # take the state lock), so holding the cache lock across it would
        # order the two locks both ways and deadlock concurrent workers.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._store) + len(self._pinned)

    def lookup(self, key: Hashable, version: int, builder: Callable[[], Any],
               pinned: bool = False) -> Any:
        """Return the cached value for ``key`` at ``version``, building on miss.

        ``pinned`` entries (static precomputed tables) live outside the
        eviction budget and stay cached even when the cache is disabled —
        disabling only turns off the cross-request reuse of mutable per-user
        features.  Regular entries are bounded by ``max_entries`` with
        oldest-inserted eviction, so month-long simulations cannot grow the
        cache without bound.
        """
        if pinned:
            with self._lock:
                value = self._pinned.get(key)
                if value is not None:
                    self.hits += 1
                    return value
                self.misses += 1
            value = builder()
            with self._lock:
                # Another worker may have built the same static table in the
                # meantime; both values are identical, last insert wins.
                self._pinned[key] = value
            return value
        if not self.enabled:
            with self._lock:
                self.misses += 1
            return builder()
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and entry[0] == version:
                self.hits += 1
                return entry[1]
            self.misses += 1
        value = builder()
        with self._lock:
            if key not in self._store and len(self._store) >= self.max_entries:
                self._store.pop(next(iter(self._store)))
            self._store[key] = (version, value)
        return value

    def invalidate(self, key: Hashable) -> None:
        with self._lock:
            self._store.pop(key, None)
            self._pinned.pop(key, None)

    def invalidate_volatile(self) -> None:
        """Drop every versioned entry but keep the pinned static tables.

        Called on model hot-swap as a deliberate *policy*, not a correctness
        requirement: cached entries hold encoder output that depends only on
        the schema, but a production feature server cannot assume that of an
        arbitrary model push, so promotions start from a cold volatile cache
        (entries rebuild lazily and cheaply).  The pinned precomputed id
        tables survive — the schema is fingerprint-checked before any swap.
        """
        with self._lock:
            self._store.clear()

    @property
    def num_pinned(self) -> int:
        return len(self._pinned)

    @property
    def num_volatile(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._pinned.clear()
            self.hits = 0
            self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ServingState:
    """All per-user and per-item state the online system reads and writes."""

    def __init__(self, world: SyntheticWorld, geohash_match_prefix: int = 4) -> None:
        self.world = world
        self.geohash_match_prefix = geohash_match_prefix
        self.user_clicks = np.zeros(world.config.num_users, dtype=np.int64)
        self.user_orders = np.zeros(world.config.num_users, dtype=np.int64)
        self.item_clicks = np.zeros(world.config.num_items, dtype=np.int64)
        #: Per-(item, time-period) click counters: the priors behind the
        #: popularity recall channel, so breakfast traffic surfaces breakfast
        #: shops without peeking at ground-truth world internals.
        self.item_period_clicks = np.zeros(
            (world.config.num_items, len(TimePeriod)), dtype=np.int64
        )
        self.histories: Dict[int, BehaviorHistory] = {}
        self.features = FeatureCache()
        #: Serialises every state write (``record_clicks``, replay logging)
        #: and the multi-array history reads (``behavior_snapshot``, the
        #: replay window's history copy), so concurrent cluster workers and
        #: feedback threads cannot interleave a half-applied click with a
        #: behaviour-window read.  Reentrant: ``record_clicks`` holds it
        #: across ``apply_feedback``, which takes it again for recovery.
        self.lock = threading.RLock()
        # Bumped whenever a user's history or counters change; consumed by the
        # feature cache so per-user entries expire on write.
        self.user_version = np.zeros(world.config.num_users, dtype=np.int64)
        #: Optional impression log feeding the online-learning loop; attach
        #: one with :meth:`attach_replay` to start recording served traffic.
        self.replay: Optional["ReplayBuffer"] = None
        #: Optional durable redo log; attach one with :meth:`attach_journal`
        #: (or :meth:`repro.serving.durable.DurableStateStore.attach`) and
        #: every ``record_clicks`` mutation is journaled before it applies.
        self.journal: Optional["Journal"] = None
        #: Sequence number of the last applied feedback mutation — the
        #: journal high-water mark a snapshot records.  Counted even without
        #: a journal so snapshots of in-memory-only states stay monotonic.
        self.feedback_seq = 0
        #: Recently fed-back request contexts, snapshot-persisted so a
        #: recovered worker can re-warm the behaviour-snapshot cache for the
        #: users that were active when the process died.
        self.recent_contexts: Deque[RequestContext] = deque(maxlen=256)
        #: Replication taps: called as ``listener(sequence, event)`` under
        #: :attr:`lock` after every committed feedback mutation, in the exact
        #: commit order.  The process-worker pool registers one per worker to
        #: stream the single writer's mutations to its replicas.
        self._feedback_listeners: List[Callable[[int, Any], None]] = []

    # ------------------------------------------------------------------ #
    @classmethod
    def from_log_generator(cls, generator: LogGenerator, log: Optional[ImpressionLog] = None
                           ) -> "ServingState":
        """Adopt the end-of-training state of an offline log generator."""
        state = cls(generator.world, geohash_match_prefix=generator.config.geohash_match_prefix)
        state.user_clicks = generator._user_clicks.copy()
        state.user_orders = generator._user_orders.copy()
        state.histories = {user: history.copy() for user, history in generator._histories.items()}
        if log is not None:
            labels = log.label.astype(np.int64)
            np.add.at(state.item_clicks, log.item_index, labels)
            np.add.at(
                state.item_period_clicks,
                (log.item_index, log.impression_period()),
                labels,
            )
        return state

    # ------------------------------------------------------------------ #
    def history(self, user_index: int) -> BehaviorHistory:
        return self.histories.setdefault(user_index, BehaviorHistory())

    def behavior_snapshot(self, context: RequestContext, max_length: int):
        """Current behaviour arrays for one request: raw ids, mask, st-filter mask."""
        with self.lock:
            history = self.histories.get(context.user_index) or BehaviorHistory()
            return history.snapshot(context.time_period,
                                    context.geohash[: self.geohash_match_prefix], max_length)

    def attach_replay(self, replay: "ReplayBuffer") -> "ReplayBuffer":
        """Log every fed-back exposure into ``replay``, bound to this state."""
        replay.bind(self)
        self.replay = replay
        return replay

    def attach_journal(self, journal: "Journal") -> "Journal":
        """Start journaling every feedback mutation into ``journal``.

        Prefer :meth:`repro.serving.durable.DurableStateStore.attach`, which
        also aligns sequence numbers with the snapshot high-water mark and
        publishes the genesis snapshot an adopted offline state needs.
        """
        self.journal = journal
        return journal

    def add_feedback_listener(self, listener: Callable[[int, Any], None]) -> None:
        """Stream every committed feedback mutation to ``listener``.

        Called as ``listener(sequence, event)`` while :attr:`lock` is held,
        immediately after the mutation applies — so a listener registered
        under the lock (together with a snapshot of the current state) sees
        exactly the mutations the snapshot does not contain, with no gap and
        no overlap.  Listeners must be fast and must not re-enter the state.
        """
        with self.lock:
            self._feedback_listeners.append(listener)

    def remove_feedback_listener(self, listener: Callable[[int, Any], None]) -> None:
        with self.lock:
            try:
                self._feedback_listeners.remove(listener)
            except ValueError:
                pass

    def record_clicks(self, context: RequestContext, items: np.ndarray, clicks: np.ndarray,
                      order_probability: float = 0.3,
                      rng: Optional[np.random.Generator] = None) -> None:
        """Update user and item state after a served request.

        When a replay buffer is attached the exposure is logged *first*, so
        the record holds exactly the pre-feedback values the ranker scored
        with — no-click exposures included, since those are the negative
        examples incremental training needs.

        The whole update — journal append, replay logging, history append,
        counter bumps, version bump — happens under :attr:`lock`, so
        concurrent feedback from cluster worker/client threads applies each
        click atomically (pinned by the threaded-burst test in
        ``tests/serving/test_cluster.py``) and journal sequence numbers stay
        dense.  The journal record is the commitment point: order outcomes
        are drawn from ``rng`` *before* the append, so replaying the record
        reproduces ``user_orders`` byte-identically without re-rolling.

        The call is checked first, journal or not — one label per exposed
        item (both 1-D), each exactly 0 or 1; items, user and time period in
        the world — and a bad one raises ``ValueError`` before any order is
        drawn or any sequence number, history or counter moves.
        """
        clicks_array = np.asarray(clicks)
        if clicks_array.ndim != 1 or np.ndim(items) != 1 or len(clicks_array) != len(items):
            raise ValueError(
                f"feedback needs one label per exposed item: {np.shape(items)} items, "
                f"{clicks_array.shape} labels"
            )
        bad = clicks_array[(clicks_array != 0) & (clicks_array != 1)]
        if len(bad):
            raise ValueError(f"feedback click labels must be 0 or 1: {bad.tolist()}")
        config = self.world.config
        for name, values, size in (
            ("item", np.asarray(items), config.num_items),
            ("user_index", np.asarray([context.user_index]), config.num_users),
            ("time_period", np.asarray([context.time_period]), len(TimePeriod)),
        ):
            bad = values[(values < 0) | (values >= size)]
            if len(bad):
                raise ValueError(f"feedback {name} outside [0, {size}): {bad.tolist()}")
        with self.lock:
            rng = rng if rng is not None else np.random.default_rng(0)
            clicked = np.where(clicks_array > 0)[0]
            orders = np.fromiter(
                (rng.random() < order_probability for _ in range(len(clicked))),
                dtype=bool, count=len(clicked),
            )
            event = None
            if self.journal is not None or self._feedback_listeners:
                from .durable.journal import FeedbackEvent  # lazy: cycle guard

                event = FeedbackEvent(
                    context=context,
                    items=np.asarray(items, dtype=np.int64),
                    clicks=clicks_array,
                    orders=orders,
                )
            if self.journal is not None:
                self.feedback_seq = self.journal.append(event)
            else:
                self.feedback_seq += 1
            self.apply_feedback(context, items, clicks_array, orders)
            if event is not None:
                for listener in self._feedback_listeners:
                    listener(self.feedback_seq, event)

    def apply_feedback(self, context: RequestContext, items: np.ndarray,
                       clicks: np.ndarray, orders: np.ndarray) -> None:
        """Apply one feedback mutation's effects — live path and journal replay.

        ``orders`` holds the pre-drawn order outcome per clicked item (click
        order); crash recovery calls this with journaled events, so it must
        stay deterministic given its arguments.  Callers hold :attr:`lock`
        (reentrant) or own the state exclusively, as recovery does.
        """
        with self.lock:
            if self.replay is not None:
                self.replay.log(self, context, items, clicks)
            self.recent_contexts.append(context)
            clicked = np.where(np.asarray(clicks) > 0)[0]
            if len(clicked) == 0:
                return
            clicked_items = np.asarray(items, dtype=np.int64)[clicked]
            self.history(context.user_index).append_clicks(
                clicked_items, self.world, context, self.geohash_match_prefix
            )
            for slot, item in enumerate(clicked_items.tolist()):
                self.user_clicks[context.user_index] += 1
                self.item_clicks[item] += 1
                self.item_period_clicks[item, context.time_period] += 1
                if orders[slot]:
                    self.user_orders[context.user_index] += 1
            self.user_version[context.user_index] += 1
