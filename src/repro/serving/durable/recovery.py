"""Crash recovery and cache warming: snapshot ⊕ journal replay ≡ live state.

:class:`DurableStateStore` ties one journal and one snapshot store together
under a single durable directory::

    <root>/journal.log
    <root>/snapshots/state-000001.npz
    ...

Boot-time recovery loads the newest *valid* snapshot (corrupt generations
fall back to the previous one), rebuilds a :class:`ServingState` from it,
and replays every committed journal record past the snapshot's high-water
sequence through the exact same mutation path the live system uses
(:meth:`ServingState.apply_feedback`) — replay logging included, so the
recovered replay records hold the very values the live ones read.  The
result is byte-identical to the never-crashed state, which the
fault-injection tier proves with :func:`~repro.serving.durable.snapshot.
state_fingerprint` at every injected crash point.

Cache warming closes the loop: a recovered worker re-primes the pinned
static feature tables and the behaviour-snapshot entries of the recently
active users (the state's ``recent_contexts`` window survives the snapshot),
so its first burst hits the :class:`FeatureCache` like a warm process would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from ...data.world import RequestContext, SyntheticWorld
from ..state import FeatureCache, ServingState
from .journal import FSYNC_POLICIES, Journal, scan_journal
from .snapshot import SnapshotStore, apply_payload

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..encoder import OnlineRequestEncoder

__all__ = ["DurableStateStore", "RecoveryError", "RecoveryReport", "warm_caches"]


class RecoveryError(RuntimeError):
    """The journal and snapshots cannot reconstruct a consistent state."""


@dataclass
class RecoveryReport:
    """What one recovery did: which snapshot, how much journal, what warmed."""

    snapshot_generation: Optional[int] = None
    snapshot_sequence: int = 0
    skipped_snapshots: List[int] = field(default_factory=list)
    journal_records_seen: int = 0
    journal_records_replayed: int = 0
    torn_tail: bool = False
    recovered_sequence: int = 0
    warmed_users: int = 0

    def summary(self) -> str:
        source = (
            f"snapshot gen {self.snapshot_generation} @ seq {self.snapshot_sequence}"
            if self.snapshot_generation is not None else "empty state"
        )
        return (
            f"recovered from {source} + {self.journal_records_replayed} journal "
            f"record(s) -> seq {self.recovered_sequence}"
            f"{' (torn tail discarded)' if self.torn_tail else ''}"
            f"{f', {len(self.skipped_snapshots)} corrupt snapshot(s) skipped' if self.skipped_snapshots else ''}"
        )


def warm_caches(
    state: ServingState,
    encoder: "OnlineRequestEncoder",
    contexts: Optional[List[RequestContext]] = None,
) -> int:
    """Re-prime the feature cache a restart emptied; returns users warmed.

    Builds the pinned static id tables and the behaviour-snapshot entry of
    every distinct ``(user, time_period, geohash prefix)`` in ``contexts``
    (default: the state's recovered ``recent_contexts`` window), so the
    first post-boot burst hits the cache like a warm process.
    """
    encoder.item_static_table(state)
    encoder._user_static_table(state)
    if contexts is None:
        contexts = list(state.recent_contexts)
    seen = set()
    for context in contexts:
        key = (
            context.user_index, context.time_period,
            context.geohash[: state.geohash_match_prefix],
        )
        if key in seen:
            continue
        seen.add(key)
        encoder._behavior_entry(context, state)
    return len({key[0] for key in seen})


class DurableStateStore:
    """One durable directory holding the feedback journal and its snapshots."""

    JOURNAL_NAME = "journal.log"
    SNAPSHOT_DIR = "snapshots"

    def __init__(
        self,
        root,
        fsync: str = "every-write",
        interval: int = 64,
        retain: int = 3,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.interval = interval
        self.snapshots = SnapshotStore(self.root / self.SNAPSHOT_DIR, retain=retain)
        self.journal: Optional[Journal] = None

    # ------------------------------------------------------------------ #
    @property
    def journal_path(self) -> Path:
        return self.root / self.JOURNAL_NAME

    def open_journal(self) -> Journal:
        """Open (or reuse) the append journal, repairing any torn tail."""
        if self.journal is None:
            self.journal = Journal(
                self.journal_path, fsync=self.fsync, interval=self.interval
            )
        return self.journal

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def __enter__(self) -> "DurableStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def attach(self, state: ServingState, genesis: bool = True) -> ServingState:
        """Start journaling ``state``'s feedback into this store.

        With ``genesis`` (the default) a first snapshot is published when the
        store holds none — the journal only records mutations, so an adopted
        offline state (``from_log_generator``) must be captured once before
        recovery can reproduce it.
        """
        journal = self.open_journal()
        # Never reuse sequence numbers a snapshot already covers (the journal
        # tail may have been lost by a crash under a lax fsync policy).
        journal.reset_sequence(state.feedback_seq)
        state.feedback_seq = journal.last_sequence
        state.attach_journal(journal)
        if genesis and self.snapshots.latest() is None:
            self.snapshot(state)
        return state

    def snapshot(self, state: ServingState):
        """Publish one atomic snapshot generation of ``state`` now."""
        return self.snapshots.write(state)

    # ------------------------------------------------------------------ #
    def recover(
        self,
        world: SyntheticWorld,
        encoder: Optional["OnlineRequestEncoder"] = None,
        geohash_match_prefix: int = 4,
        features: Optional[FeatureCache] = None,
        attach: bool = True,
        warm: bool = True,
    ):
        """Reconstruct the serving state: latest valid snapshot ⊕ journal replay.

        Returns ``(state, report)``.  ``encoder`` is required when the
        snapshot carries a replay window (the recovered buffer encodes its
        records exactly as the live one does) and is what cache
        warming primes.  ``features`` adopts a surviving cache object instead
        of a cold one — its volatile tier is always dropped
        (``invalidate_volatile``): recovery cannot prove a pre-crash
        behaviour snapshot still matches the recovered truth, so only the
        pinned static tables are allowed to carry over.  With ``attach`` the
        journal is re-opened for appending, so the recovered state resumes
        journaling where the crash left off.
        """
        report = RecoveryReport()
        payload, info, skipped = self.snapshots.load_latest_valid()
        report.skipped_snapshots = skipped

        state = ServingState(world, geohash_match_prefix=geohash_match_prefix)
        if features is not None:
            # A surviving cache may hold entries whose version happens to
            # collide with the recovered counters while their content
            # reflects mutations the journal lost: stale-by-construction.
            features.invalidate_volatile()
            state.features = features
        if payload is not None:
            if payload.manifest.get("replay") is not None and encoder is None:
                raise RecoveryError(
                    "snapshot holds a replay window; recovery needs the online "
                    "encoder to rebuild the ReplayBuffer"
                )
            apply_payload(state, payload, encoder)
            report.snapshot_generation = info.generation
            report.snapshot_sequence = payload.journal_sequence

        if self.journal_path.exists():
            # Replay every committed record past the snapshot's high-water
            # mark; a torn tail is ignored here and repaired when the journal
            # is next opened for appending (attach / open_journal).
            scan = scan_journal(self.journal_path)
            report.torn_tail = scan.torn_tail
            report.journal_records_seen = len(scan.records)
            expected = report.snapshot_sequence + 1
            for sequence, event in scan.records:
                if sequence <= report.snapshot_sequence:
                    continue
                if sequence != expected:
                    raise RecoveryError(
                        f"journal gap: expected sequence {expected} after "
                        f"snapshot @ {report.snapshot_sequence}, found {sequence}"
                    )
                state.apply_feedback(
                    event.context, event.items, event.clicks, event.orders
                )
                state.feedback_seq = sequence
                expected = sequence + 1
                report.journal_records_replayed += 1
        report.recovered_sequence = int(state.feedback_seq)

        if warm and encoder is not None:
            report.warmed_users = warm_caches(state, encoder)
        if attach:
            self.attach(state, genesis=False)
        return state, report
