"""Periodic state snapshots: npz + JSON manifest generations under one root.

A snapshot freezes everything durable about a :class:`ServingState` — the
click/order/exposure counters, the per-(item, period) tables, every user's
behaviour history, the replay-buffer window (entry order and dtypes
preserved), the recent-context warm list, and the journal high-water
sequence number — into one ``state-NNNNNN.npz`` generation in the same
spirit as :mod:`repro.models.store`'s versioned checkpoints.  Bulk state is
npz arrays (numpy's own format); the recent contexts are one ``uint8`` array
of back-to-back :mod:`repro.serving.wire` contexts; the manifest (scalars,
replay bookkeeping, checksum) is JSON.  A generation of another format
version is refused, not converted.

Writes are atomic (write-temp-then-``os.replace``), so a crash mid-snapshot
can never leave a truncated generation visible to :meth:`SnapshotStore.
generations`; every payload carries a SHA-256 checksum over its arrays, so a
corrupted generation (bit flips, truncation that still unzips) is detected
on load and recovery falls back to the previous one.  The store retains the
last ``retain`` generations and prunes older ones after each publish.

:func:`state_fingerprint` hashes the same payload without touching disk —
the equality oracle the fault-injection tier uses to prove that recovered
state is byte-identical to the live reference.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...utils import atomic_savez
from .. import wire
from ..replay import LoggedImpression, ReplayBuffer
from ..state import ServingState, UserHistoryState

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotCorruptError",
    "SnapshotInfo",
    "SnapshotPayload",
    "SnapshotStore",
    "extract_payload",
    "state_fingerprint",
]

#: Bumped whenever the on-disk snapshot layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 2

_MANIFEST_KEY = "__manifest__"
_GENERATION_PATTERN = re.compile(r"^state-(\d{6,})\.npz$")
#: Geohash prefixes are at most 12 characters; a fixed-width unicode dtype
#: keeps the history columns plain npz arrays (no object pickling).
_PREFIX_DTYPE = "<U16"


class SnapshotCorruptError(RuntimeError):
    """A snapshot generation failed structural or checksum validation."""


@dataclass(frozen=True)
class SnapshotInfo:
    """One published snapshot generation."""

    generation: int
    path: Path
    journal_sequence: int


@dataclass
class SnapshotPayload:
    """In-memory form of one snapshot: named arrays plus the JSON manifest."""

    arrays: Dict[str, np.ndarray]
    manifest: Dict[str, object]

    @property
    def journal_sequence(self) -> int:
        return int(self.manifest["journal_sequence"])

    def checksum(self) -> str:
        return _checksum(self.arrays, self.manifest)


def _checksum(arrays: Dict[str, np.ndarray], manifest: Dict[str, object]) -> str:
    """SHA-256 over every array's identity and the manifest's durable fields."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    durable = {
        key: value for key, value in manifest.items() if key not in ("checksum",)
    }
    digest.update(json.dumps(durable, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# payload extraction / application
# ---------------------------------------------------------------------- #
def extract_payload(state: ServingState) -> SnapshotPayload:
    """Copy everything durable out of ``state`` under its lock.

    The caller gets a self-contained payload: mutating the state afterwards
    cannot retroactively change what the snapshot will write.
    """
    with state.lock:
        arrays: Dict[str, np.ndarray] = {
            "user_clicks": state.user_clicks.copy(),
            "user_orders": state.user_orders.copy(),
            "item_clicks": state.item_clicks.copy(),
            "item_period_clicks": state.item_period_clicks.copy(),
            "user_version": state.user_version.copy(),
        }
        users = np.array(sorted(
            user for user, history in state.histories.items() if len(history)
        ), dtype=np.int64)
        lengths = np.array(
            [len(state.histories[int(user)]) for user in users], dtype=np.int64
        )
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        total = int(offsets[-1])
        columns = {
            "items": np.empty(total, dtype=np.int64),
            "categories": np.empty(total, dtype=np.int64),
            "brands": np.empty(total, dtype=np.int64),
            "periods": np.empty(total, dtype=np.int64),
            "hours": np.empty(total, dtype=np.int64),
            "cities": np.empty(total, dtype=np.int64),
        }
        prefixes = np.empty(total, dtype=_PREFIX_DTYPE)
        for index, user in enumerate(users):
            history = state.histories[int(user)]
            start, stop = int(offsets[index]), int(offsets[index + 1])
            for column, values in columns.items():
                values[start:stop] = getattr(history, column)
            prefixes[start:stop] = history.geohash_prefixes
        arrays["history_users"] = users
        arrays["history_offsets"] = offsets
        arrays["history_prefixes"] = prefixes
        for column, values in columns.items():
            arrays[f"history_{column}"] = values
        arrays["recent_contexts"] = np.frombuffer(
            b"".join(wire.pack_context(context) for context in state.recent_contexts),
            dtype=np.uint8,
        )

        manifest: Dict[str, object] = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "journal_sequence": int(state.feedback_seq),
            "geohash_match_prefix": int(state.geohash_match_prefix),
            "num_users": int(len(state.user_clicks)),
            "num_items": int(len(state.item_clicks)),
            "replay": None,
        }
        replay = state.replay
        if replay is not None:
            impressions = list(replay._impressions)
            manifest["replay"] = {
                "max_impressions": int(replay.max_impressions),
                "count": len(impressions),
                "impressions_logged": int(replay.impressions_logged),
                "rows_logged": int(replay.rows_logged),
                "clicks_logged": int(replay.clicks_logged),
                "days": [int(impression.day) for impression in impressions],
                "field_names": (
                    list(impressions[0].fields) if impressions else []
                ),
            }
            for index, impression in enumerate(impressions):
                prefix = f"replay{index:05d}"
                for name, ids in impression.fields.items():
                    arrays[f"{prefix}.fields.{name}"] = ids.copy()
                arrays[f"{prefix}.behavior"] = impression.behavior.copy()
                arrays[f"{prefix}.behavior_mask"] = impression.behavior_mask.copy()
                arrays[f"{prefix}.behavior_st_mask"] = impression.behavior_st_mask.copy()
                arrays[f"{prefix}.labels"] = impression.labels.copy()
                arrays[f"{prefix}.time_period"] = impression.time_period.copy()
                arrays[f"{prefix}.city"] = impression.city.copy()
                arrays[f"{prefix}.hour"] = impression.hour.copy()
                arrays[f"{prefix}.position"] = impression.position.copy()
    manifest["checksum"] = _checksum(arrays, manifest)
    return SnapshotPayload(arrays=arrays, manifest=manifest)


def apply_payload(state: ServingState, payload: SnapshotPayload,
                  replay: Optional[ReplayBuffer] = None) -> None:
    """Load ``payload`` into a freshly constructed ``state``.

    ``replay`` (when the payload recorded a replay window) must be an empty
    buffer built against the recovering process's encoder; its window,
    lifetime counters and bound are restored from the payload.
    """
    arrays, manifest = payload.arrays, payload.manifest
    state.user_clicks = arrays["user_clicks"].copy()
    state.user_orders = arrays["user_orders"].copy()
    state.item_clicks = arrays["item_clicks"].copy()
    state.item_period_clicks = arrays["item_period_clicks"].copy()
    state.user_version = arrays["user_version"].copy()
    state.geohash_match_prefix = int(manifest["geohash_match_prefix"])
    state.feedback_seq = int(manifest["journal_sequence"])
    state.histories = {}
    users = arrays["history_users"]
    offsets = arrays["history_offsets"]
    for index, user in enumerate(users):
        start, stop = int(offsets[index]), int(offsets[index + 1])
        state.histories[int(user)] = UserHistoryState(
            items=[int(v) for v in arrays["history_items"][start:stop]],
            categories=[int(v) for v in arrays["history_categories"][start:stop]],
            brands=[int(v) for v in arrays["history_brands"][start:stop]],
            periods=[int(v) for v in arrays["history_periods"][start:stop]],
            hours=[int(v) for v in arrays["history_hours"][start:stop]],
            cities=[int(v) for v in arrays["history_cities"][start:stop]],
            geohash_prefixes=[str(v) for v in arrays["history_prefixes"][start:stop]],
        )
    packed = arrays["recent_contexts"].tobytes()
    contexts, offset = [], 0
    while offset < len(packed):
        context, offset = wire.unpack_context(packed, offset)
        contexts.append(context)
    state.recent_contexts = deque(contexts, maxlen=state.recent_contexts.maxlen)
    replay_manifest = manifest.get("replay")
    if replay_manifest is not None:
        if replay is None:
            raise ValueError(
                "snapshot holds a replay window; recovery needs a ReplayBuffer "
                "(pass an encoder to the recovery entry point)"
            )
        replay.max_impressions = int(replay_manifest["max_impressions"])
        replay._impressions = deque(maxlen=replay.max_impressions)
        field_names = list(replay_manifest["field_names"])
        for index in range(int(replay_manifest["count"])):
            prefix = f"replay{index:05d}"
            replay._impressions.append(LoggedImpression(
                fields={name: arrays[f"{prefix}.fields.{name}"] for name in field_names},
                behavior=arrays[f"{prefix}.behavior"],
                behavior_mask=arrays[f"{prefix}.behavior_mask"],
                behavior_st_mask=arrays[f"{prefix}.behavior_st_mask"],
                labels=arrays[f"{prefix}.labels"],
                time_period=arrays[f"{prefix}.time_period"],
                city=arrays[f"{prefix}.city"],
                hour=arrays[f"{prefix}.hour"],
                position=arrays[f"{prefix}.position"],
                day=int(replay_manifest["days"][index]),
            ))
        replay.impressions_logged = int(replay_manifest["impressions_logged"])
        replay.rows_logged = int(replay_manifest["rows_logged"])
        replay.clicks_logged = int(replay_manifest["clicks_logged"])
        state.attach_replay(replay)


def state_fingerprint(state: ServingState) -> str:
    """Checksum of everything a snapshot would persist — the equality oracle.

    Two states with equal fingerprints agree byte-for-byte on counters,
    per-(item, period) tables, histories, the replay window (entry order,
    dtypes and lifetime totals included), recent contexts, and the feedback
    sequence number.  The transient :class:`FeatureCache` is deliberately
    excluded: it is a cache, not state.
    """
    return extract_payload(state).manifest["checksum"]


# ---------------------------------------------------------------------- #
# the on-disk store
# ---------------------------------------------------------------------- #
class SnapshotStore:
    """Versioned, atomically written snapshot generations under one root."""

    def __init__(self, root, retain: int = 3) -> None:
        if retain <= 0:
            raise ValueError("retain must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    # ------------------------------------------------------------------ #
    def _path(self, generation: int) -> Path:
        return self.root / f"state-{generation:06d}.npz"

    def generations(self) -> List[int]:
        """Published generation numbers, ascending (temp files invisible)."""
        found = []
        for entry in self.root.iterdir():
            match = _GENERATION_PATTERN.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest(self) -> Optional[int]:
        generations = self.generations()
        return generations[-1] if generations else None

    # ------------------------------------------------------------------ #
    def write(self, state: ServingState) -> SnapshotInfo:
        """Publish a new generation atomically and prune beyond ``retain``."""
        payload = extract_payload(state)
        generation = (self.latest() or 0) + 1
        path = self._path(generation)
        while path.exists():  # parallel publisher raced the scan
            generation += 1
            path = self._path(generation)
        atomic_savez(
            path,
            {
                _MANIFEST_KEY: np.array(json.dumps(payload.manifest, sort_keys=True)),
                **payload.arrays,
            },
        )
        self._prune()
        return SnapshotInfo(
            generation=generation, path=path,
            journal_sequence=payload.journal_sequence,
        )

    def _prune(self) -> None:
        for generation in self.generations()[: -self.retain]:
            try:
                self._path(generation).unlink()
            except OSError:  # pragma: no cover - best-effort retention
                pass

    # ------------------------------------------------------------------ #
    def load(self, generation: int) -> SnapshotPayload:
        """Read and validate one generation; raises on any corruption."""
        path = self._path(generation)
        try:
            with np.load(path) as archive:
                if _MANIFEST_KEY not in archive.files:
                    raise SnapshotCorruptError(f"{path}: no manifest")
                manifest = json.loads(str(archive[_MANIFEST_KEY]))
                arrays = {
                    name: archive[name]
                    for name in archive.files if name != _MANIFEST_KEY
                }
        except SnapshotCorruptError:
            raise
        except Exception as error:  # noqa: BLE001 - any unzip/parse failure
            raise SnapshotCorruptError(f"{path}: unreadable ({error})") from error
        version = int(manifest.get("format_version", 0))
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotCorruptError(
                f"{path}: snapshot format v{version}, supported v{SNAPSHOT_FORMAT_VERSION}"
            )
        payload = SnapshotPayload(arrays=arrays, manifest=manifest)
        if payload.checksum() != manifest.get("checksum"):
            raise SnapshotCorruptError(f"{path}: checksum mismatch (corrupt payload)")
        return payload

    def load_latest_valid(self) -> Tuple[Optional[SnapshotPayload],
                                         Optional[SnapshotInfo], List[int]]:
        """Newest generation that validates, falling back past corrupt ones.

        Returns ``(payload, info, skipped)`` where ``skipped`` lists the
        generations that failed validation, newest first.  ``(None, None,
        skipped)`` means no valid generation exists.
        """
        skipped: List[int] = []
        for generation in reversed(self.generations()):
            try:
                payload = self.load(generation)
            except SnapshotCorruptError:
                skipped.append(generation)
                continue
            info = SnapshotInfo(
                generation=generation, path=self._path(generation),
                journal_sequence=payload.journal_sequence,
            )
            return payload, info, skipped
        return None, None, skipped
