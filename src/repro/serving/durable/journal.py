"""Append-only feedback journal: the redo log under :class:`ServingState`.

Every ``record_clicks`` mutation — the click labels, the exposure (no-click
exposures included, they are the replay buffer's negative examples), and the
order outcomes drawn from the caller's RNG — is serialised as one
:class:`FeedbackEvent` and appended as a length-prefixed, CRC-guarded binary
record with a monotonically increasing sequence number.  The journal is a
*redo* log: a record is the commitment point of its mutation, and crash
recovery (:mod:`repro.serving.durable.recovery`) replays committed records on
top of the latest snapshot to reconstruct the exact live state.

On-disk layout (format v2)::

    8 bytes   file header  b"RJRNL" + format version + 2 zero bytes
    per record:
      16 bytes  struct <QII: sequence, payload length, CRC32(payload)
      N bytes   payload: the FeedbackEvent as :mod:`repro.serving.wire`
                context + arrays items (int64), clicks (float64), orders (bool)

A process worker's ``FEEDBACK`` frame carries these payload bytes verbatim.
A file of another format version is refused, not converted.

A torn final record — the classic crash-mid-append — is detected by the
length prefix and CRC and discarded on the next open (``repair=True``), so a
journal is always readable up to the last fully committed record.  A CRC- or
order-violating record *before* the tail is corruption, not a torn write,
and raises :class:`JournalCorruptError` rather than silently dropping
committed history.

Durability is governed by the fsync policy:

``every-write``
    every append is written, flushed and ``os.fsync``'d before returning —
    nothing committed is ever lost, at the cost of one fsync per feedback;
``interval``
    appends buffer in process and are committed every ``interval`` records
    (and on ``sync``/``close``) — a crash loses at most one interval;
``off``
    records buffer until ``sync``/``close`` — a crash loses everything since
    the last explicit sync (snapshots bound the loss window).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Tuple

import numpy as np

from ...data.world import RequestContext
from .. import wire

__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_FORMAT_VERSION",
    "FeedbackEvent",
    "Journal",
    "JournalCorruptError",
    "JournalScan",
]

#: Bumped whenever the on-disk record layout changes incompatibly.
JOURNAL_FORMAT_VERSION = 2

FSYNC_POLICIES = ("every-write", "interval", "off")

_FILE_MAGIC = b"RJRNL" + bytes([JOURNAL_FORMAT_VERSION]) + b"\x00\x00"
_RECORD_HEADER = struct.Struct("<QII")  # sequence, payload length, CRC32
#: Sanity ceiling on one record's payload; anything larger is a torn/corrupt
#: length prefix, not a real event (events are a few hundred bytes).
_MAX_PAYLOAD = 1 << 26
#: An event's arrays in record order — items, clicks, orders — and the dtype
#: each is stored as (float64 holds any float32 click label exactly).
_ARRAY_DTYPES = (np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_))


class JournalCorruptError(RuntimeError):
    """Committed journal history is unreadable (not a recoverable torn tail)."""


@dataclass(frozen=True)
class FeedbackEvent:
    """One ``record_clicks`` mutation, exactly as it must replay.

    ``orders`` holds the pre-drawn order outcome per *clicked* item (in click
    order), so replay never re-rolls the RNG — the recovered ``user_orders``
    counters are byte-identical to the live ones regardless of what generator
    the caller used.
    """

    context: RequestContext
    items: np.ndarray
    clicks: np.ndarray
    orders: np.ndarray

    def __post_init__(self) -> None:
        # Checked on construction — so on decode too: a record that would
        # fail halfway through ``apply_feedback`` (an index past ``items``,
        # an order per click missing) can be neither written nor read back.
        clicked = int(np.count_nonzero(np.asarray(self.clicks) > 0))
        if len(self.clicks) != len(self.items) or len(self.orders) != clicked:
            raise ValueError(f"inconsistent feedback event: {len(self.items)} items, "
                             f"{len(self.clicks)} labels, {len(self.orders)} orders "
                             f"for {clicked} clicks")

    def to_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        # Encoded once per event: the journal and the process pool's
        # replication fan-out both ask for it, inside the state lock.
        arrays = (self.items, self.clicks, self.orders)
        return wire.pack_context(self.context) + b"".join(
            wire.pack_array(np.asarray(values, dtype=dtype).reshape(-1))
            for values, dtype in zip(arrays, _ARRAY_DTYPES)
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FeedbackEvent":
        context, offset = wire.unpack_context(blob, 0)
        arrays = []
        for dtype in _ARRAY_DTYPES:
            array, offset = wire.unpack_array(blob, offset)
            if array is None or array.dtype != dtype:
                found = "None" if array is None else array.dtype
                raise ValueError(f"feedback event array is {found}, expected {dtype}")
            arrays.append(array)
        wire.expect_end(blob, offset)
        return cls(context, *arrays)


@dataclass
class JournalScan:
    """Everything a scan learned about one journal file."""

    #: Fully committed records, in file order: ``(sequence, event)``.
    records: List[Tuple[int, FeedbackEvent]]
    #: True when the file ends in a partial record (crash mid-append).
    torn_tail: bool
    #: Byte offset of the end of the last valid record (truncation point).
    valid_bytes: int

    @property
    def last_sequence(self) -> int:
        return self.records[-1][0] if self.records else 0


def scan_journal(path) -> JournalScan:
    """Read every committed record of ``path``, detecting a torn tail.

    The scan stops at the first structurally invalid tail (short header,
    short payload, insane length prefix, CRC mismatch) and reports it as a
    torn final record.  A record that decodes but violates sequence order
    (``sequence <= previous``) is corruption of committed history and raises
    :class:`JournalCorruptError` instead.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < len(_FILE_MAGIC):
        # A header-less file is itself a torn creation; nothing committed.
        return JournalScan(records=[], torn_tail=len(data) > 0, valid_bytes=0)
    if data[: len(_FILE_MAGIC)] != _FILE_MAGIC:
        if data[:5] == _FILE_MAGIC[:5]:
            raise JournalCorruptError(
                f"{path} uses journal format v{data[5]}, supported v{JOURNAL_FORMAT_VERSION}"
            )
        raise JournalCorruptError(f"{path} is not a feedback journal")
    records: List[Tuple[int, FeedbackEvent]] = []
    offset = len(_FILE_MAGIC)
    last_sequence = 0
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            return JournalScan(records=records, torn_tail=True, valid_bytes=offset)
        sequence, length, crc = _RECORD_HEADER.unpack_from(data, offset)
        body_start = offset + _RECORD_HEADER.size
        if length > _MAX_PAYLOAD or body_start + length > len(data):
            return JournalScan(records=records, torn_tail=True, valid_bytes=offset)
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            if body_start + length == len(data):
                # The final record's bytes were cut or scrambled mid-write.
                return JournalScan(records=records, torn_tail=True, valid_bytes=offset)
            raise JournalCorruptError(
                f"{path}: CRC mismatch in committed record at byte {offset}"
            )
        if sequence <= last_sequence:
            raise JournalCorruptError(
                f"{path}: sequence {sequence} at byte {offset} does not advance "
                f"past {last_sequence}"
            )
        try:
            event = FeedbackEvent.from_bytes(payload)
        except ValueError as error:
            raise JournalCorruptError(
                f"{path}: undecodable committed record at byte {offset}: {error}"
            ) from error
        records.append((sequence, event))
        last_sequence = sequence
        offset = body_start + length
    return JournalScan(records=records, torn_tail=False, valid_bytes=offset)


class Journal:
    """Append-only feedback journal over one file, with a configurable fsync policy."""

    def __init__(
        self,
        path,
        fsync: str = "every-write",
        interval: int = 64,
        repair: bool = True,
        opener: Optional[Callable[[Path], BinaryIO]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.path = Path(path)
        self.fsync = fsync
        self.interval = interval
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if fresh:
            self.last_sequence = 0
        else:
            result = scan_journal(self.path)
            if result.torn_tail:
                if not repair:
                    raise JournalCorruptError(
                        f"{self.path} ends in a torn record (pass repair=True to truncate)"
                    )
                with open(self.path, "r+b") as handle:
                    handle.truncate(result.valid_bytes)
            self.last_sequence = result.last_sequence
        #: Records appended but not yet committed to the file (fsync policy).
        self._pending: List[bytes] = []
        self._opener = opener or (lambda target: open(target, "ab"))
        self._file: Optional[BinaryIO] = self._opener(self.path)
        if fresh:
            self._file.write(_FILE_MAGIC)
            self._file.flush()
        self.appended = 0
        self.commits = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------ #
    def reset_sequence(self, sequence: int) -> None:
        """Continue numbering after ``sequence`` (snapshot ahead of journal).

        After a crash with ``fsync != "every-write"`` the journal tail may be
        behind the latest snapshot's high-water mark; new appends must not
        reuse sequence numbers the snapshot already covers.
        """
        self.last_sequence = max(self.last_sequence, int(sequence))

    def append(self, event: FeedbackEvent) -> int:
        """Commit ``event`` as the next record and return its sequence number."""
        if self._file is None:
            raise RuntimeError("journal is closed")
        sequence = self.last_sequence + 1
        payload = event.to_bytes()
        blob = _RECORD_HEADER.pack(sequence, len(payload), zlib.crc32(payload)) + payload
        self._pending.append(blob)
        self.last_sequence = sequence
        self.appended += 1
        if self.fsync == "every-write" or (
            self.fsync == "interval" and len(self._pending) >= self.interval
        ):
            self.sync()
        return sequence

    def sync(self) -> None:
        """Write pending records to disk, flush, and fsync (unless policy off)."""
        if self._file is None:
            raise RuntimeError("journal is closed")
        if self._pending:
            self._file.write(b"".join(self._pending))
            self._pending.clear()
            self._file.flush()
            self.commits += 1
        if self.fsync != "off":
            try:
                os.fsync(self._file.fileno())
                self.fsyncs += 1
            except (OSError, ValueError):  # pragma: no cover - exotic filesystems
                pass

    def close(self) -> None:
        """Commit everything pending and close the file."""
        if self._file is None:
            return
        self.sync()
        self._file.close()
        self._file = None

    def crash(self) -> None:
        """Simulate a process crash: drop pending records, abandon the file.

        What survives on disk is exactly what the fsync policy had committed
        — the test seam the fault-injection tier drives.
        """
        self._pending.clear()
        if self._file is not None:
            try:
                self._file.close()
            except Exception:  # noqa: BLE001 - a crashing writer cannot be fussy
                pass
            self._file = None

    # ------------------------------------------------------------------ #
    def scan(self) -> JournalScan:
        """Scan this journal's committed on-disk records (pending excluded)."""
        return scan_journal(self.path)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "fsync": self.fsync,
            "last_sequence": self.last_sequence,
            "appended": self.appended,
            "commits": self.commits,
            "fsyncs": self.fsyncs,
            "pending": len(self._pending),
        }
