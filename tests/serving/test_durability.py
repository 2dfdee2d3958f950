"""Fault-injection tier for the durable serving state.

Proves the recovery invariant — **snapshot ⊕ journal replay ≡ live state** —
the hard way: the journal writer is killed at every byte offset of an
append, fsyncs are dropped per policy, snapshots are corrupted and must fall
back, and in every case the recovered :class:`ServingState` is compared to
the never-crashed reference *byte-for-byte* via
:func:`repro.serving.durable.state_fingerprint` (and, for the full stack,
via replay ``merged_batch`` arrays and served responses).

Run with ``--fsync every-write|interval|off`` to pick the journal policy the
property-based interleaving test exercises; the crash-sweep tests pin their
own policies because their loss-window expectations depend on them.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fault_injection import CrashError, TornFile, corrupt_byte, drive_feedback
from repro.data.world import SyntheticWorld, WorldConfig
from repro.models import create_model
from repro.serving import (
    ClusterConfig,
    DurableStateStore,
    FeedbackEvent,
    Journal,
    JournalCorruptError,
    OnlineRequestEncoder,
    PipelineConfig,
    RecoveryError,
    ReplayBuffer,
    RollingDeploy,
    ServingState,
    SnapshotStore,
    build_cluster,
    build_pipeline,
    state_fingerprint,
)
from repro.serving.durable import scan_journal
from repro.serving.durable.journal import _FILE_MAGIC, _RECORD_HEADER
from repro.serving.durable.snapshot import SnapshotCorruptError

pytestmark = pytest.mark.durability

#: A deliberately tiny world so fingerprinting a state costs ~a millisecond
#: and the byte-offset sweep can afford hundreds of full recoveries.
TINY_WORLD = WorldConfig(num_users=60, num_items=40, num_cities=3, seed=11)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(TINY_WORLD)


def replay_prefix_state(world, events, k: int) -> ServingState:
    """The reference state after exactly the first ``k`` journaled events."""
    state = ServingState(world)
    for sequence, event in events[:k]:
        state.apply_feedback(event.context, event.items, event.clicks, event.orders)
        state.feedback_seq = sequence
    return state


# ---------------------------------------------------------------------- #
# journal format
# ---------------------------------------------------------------------- #
class TestFeedbackEvent:
    def test_bytes_roundtrip_is_exact(self, world):
        rng = np.random.default_rng(0)
        context = world.sample_request_context(1, rng)
        event = FeedbackEvent(
            context=context,
            items=np.array([3, 1, 7, 2], dtype=np.int64),
            # Awkward floats on purpose: they must round-trip bit-exactly.
            clicks=np.array([1.0, 1 / 3, 0.1, 0.0], dtype=np.float64),
            orders=np.array([True, False, True], dtype=bool),
        )
        back = FeedbackEvent.from_bytes(event.to_bytes())
        assert back.context == context
        assert np.array_equal(back.items, event.items)
        assert back.clicks.tobytes() == event.clicks.tobytes()
        assert np.array_equal(back.orders, event.orders)
        assert back.to_bytes() == event.to_bytes()

    def test_inconsistent_events_are_refused_on_both_sides(self, world, tmp_path):
        """A record whose clicks outrun its items, or whose orders miss a
        click, would raise halfway through ``apply_feedback`` and leave the
        state half-applied: it can be neither built nor read back, and a
        CRC-valid one in a journal is corruption."""
        from repro.serving import wire

        context = world.sample_request_context(1, np.random.default_rng(0))
        bad = [
            (np.array([3, 1]), np.array([1.0, 0.0, 1.0]), np.array([True, False])),
            (np.array([3, 1, 7]), np.array([1.0, 0.0, 1.0]), np.array([True])),
            (np.array([3, 1, 7]), np.array([1.0, 0.0, 1.0]), np.array([True, True, True])),
        ]
        for items, clicks, orders in bad:
            with pytest.raises(ValueError, match="inconsistent"):
                FeedbackEvent(context=context, items=items, clicks=clicks, orders=orders)
            blob = wire.pack_context(context) + b"".join(
                wire.pack_array(array) for array in (items, clicks, orders)
            )
            with pytest.raises(ValueError, match="inconsistent"):
                FeedbackEvent.from_bytes(blob)
            path = tmp_path / f"bad-{len(items)}-{len(orders)}.log"
            path.write_bytes(
                _FILE_MAGIC
                + _RECORD_HEADER.pack(1, len(blob), zlib.crc32(blob)) + blob
                + _RECORD_HEADER.pack(2, len(blob), zlib.crc32(blob)) + blob
            )
            with pytest.raises(JournalCorruptError, match="undecodable"):
                scan_journal(path)


class TestMismatchedFeedback:
    """``record_clicks`` checks one label per exposed item before anything
    moves — no order drawn, no sequence number taken — journal or not."""

    @pytest.mark.parametrize(
        "clicks", [[1.0, 0.0, 1.0], [1.0], [[1.0], [0.0]]], ids=["longer", "shorter", "2-D"]
    )
    def test_bare_state_refuses_and_moves_nothing(self, world, clicks):
        state = ServingState(world)
        context = world.sample_request_context(1, np.random.default_rng(0))
        user = context.user_index
        state.record_clicks(context, np.array([5, 7]), np.array([1.0, 1.0]),
                            rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        next_draw = copy.deepcopy(rng).random()
        before = (state_fingerprint(state), int(state.user_version[user]), state.feedback_seq)
        with pytest.raises(ValueError, match="one label per exposed item"):
            state.record_clicks(context, np.array([5, 7]), np.array(clicks), rng=rng)
        after = (state_fingerprint(state), int(state.user_version[user]), state.feedback_seq)
        assert after == before
        assert rng.random() == next_draw

    def test_shorter_labels_refused_as_on_a_durable_state(self, world, tmp_path):
        context = world.sample_request_context(1, np.random.default_rng(0))
        bare = ServingState(world)
        durable = ServingState(world)
        with DurableStateStore(tmp_path / "store", fsync="off") as store:
            store.attach(durable)
            for state in (durable, bare):
                with pytest.raises(ValueError):
                    state.record_clicks(context, np.array([5, 7, 9]), np.array([1.0, 0.0]))
                assert state.feedback_seq == 0


class TestOutOfRangeFeedback:
    """``record_clicks`` refuses an item, user or time period outside the
    world before anything moves.  Journaled, item ``10**6`` made every later
    recovery raise ``IndexError``; a negative index credited the last item or
    user."""

    BAD = {
        "item-past-end": ({}, [5, 10**6]),
        "item-negative": ({}, [-1, 7]),
        "user-negative": ({"user_index": -1}, [5, 7]),
        "user-past-end": ({"user_index": TINY_WORLD.num_users}, [5, 7]),
        "period-negative": ({"time_period": -1}, [5, 7]),
        "period-past-end": ({"time_period": 99}, [5, 7]),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refused_before_the_journal(self, world, tmp_path, fsync_policy, case):
        context = world.sample_request_context(1, np.random.default_rng(0))
        changes, items = self.BAD[case]
        store = DurableStateStore(tmp_path / "store", fsync=fsync_policy)
        state = store.attach(ServingState(world))
        state.record_clicks(context, np.array([5, 7]), np.array([1.0, 0.0]),
                            rng=np.random.default_rng(1))

        def observed():
            return (state.journal.last_sequence, state.feedback_seq, state_fingerprint(state),
                    state.user_clicks.tobytes(), state.item_clicks.tobytes())

        before = observed()
        with pytest.raises(ValueError, match="outside"):
            state.record_clicks(dataclasses.replace(context, **changes), np.array(items),
                                np.array([1.0, 1.0]), rng=np.random.default_rng(2))
        assert observed() == before
        fingerprint = before[2]
        store.close()
        for _ in range(2):
            recovered, report = DurableStateStore(tmp_path / "store", fsync=fsync_policy).recover(
                world, attach=False, warm=False)
            assert report.recovered_sequence == 1
            assert state_fingerprint(recovered) == fingerprint


class TestNonBinaryClickLabels:
    """``record_clicks`` refuses a click label that is not exactly 0 or 1
    before anything moves.  With a replay buffer attached, ``[nan, 1]`` was
    journaled, then ``ReplayBuffer.log`` raised half-way (entry appended,
    impression and row counters moved, the click on the second item never
    applied) and every recovery raised again at that record; without one,
    ``[inf, 0]`` and ``[2, -3]`` were counted as clicks."""

    BAD = {
        "nan": [np.nan, 1.0],
        "inf": [np.inf, 0.0],
        "minus-inf": [-np.inf, 1.0],
        "two-minus-three": [2.0, -3.0],
        "half": [0.5, 0.0],
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refused_before_the_journal_and_the_replay_log(self, online, tmp_path,
                                                           fsync_policy, case):
        world, encoder, _ = online
        context = world.sample_request_context(1, np.random.default_rng(0))
        store = DurableStateStore(tmp_path / "store", fsync=fsync_policy)
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder))
        store.attach(state)
        state.record_clicks(context, np.array([5, 7]), np.array([1.0, 0.0]),
                            rng=np.random.default_rng(1))
        store.snapshot(state)

        def observed():
            return (state.journal.last_sequence, state.feedback_seq, state_fingerprint(state),
                    len(replay), replay.impressions_logged, replay.rows_logged,
                    replay.clicks_logged, state.user_clicks.tobytes(),
                    state.item_clicks.tobytes())

        before = observed()
        with pytest.raises(ValueError, match="0 or 1"):
            state.record_clicks(context, np.array([5, 7]), np.array(self.BAD[case]),
                                rng=np.random.default_rng(2))
        assert observed() == before
        store.close()
        recovered, report = DurableStateStore(tmp_path / "store", fsync=fsync_policy).recover(
            world, encoder=encoder, attach=False, warm=False)
        assert report.recovered_sequence == 1
        assert state_fingerprint(recovered) == before[2]

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refused_without_a_replay_buffer(self, world, case):
        state = ServingState(world)
        context = world.sample_request_context(1, np.random.default_rng(0))

        def observed():
            return (state.feedback_seq, state_fingerprint(state),
                    state.user_clicks.tobytes(), state.item_clicks.tobytes())

        before = observed()
        with pytest.raises(ValueError, match="0 or 1"):
            state.record_clicks(context, np.array([5, 7]), np.array(self.BAD[case]),
                                rng=np.random.default_rng(2))
        assert observed() == before

    @pytest.mark.parametrize("labels", [np.array([1.0, 0.0], dtype=np.float32),
                                        np.array([1, 0]), np.array([True, False])],
                             ids=["float32", "int", "bool"])
    def test_zero_one_labels_of_any_dtype_are_accepted(self, world, labels):
        state = ServingState(world)
        context = world.sample_request_context(1, np.random.default_rng(0))
        state.record_clicks(context, np.array([5, 7]), labels, rng=np.random.default_rng(1))
        assert state.feedback_seq == 1
        assert state.item_clicks[5] == 1 and state.item_clicks[7] == 0


class TestJournal:
    def _events(self, world, count):
        rng = np.random.default_rng(7)
        events = []
        for day in range(count):
            context = world.sample_request_context(day % 3, rng)
            items = rng.integers(0, 40, size=3)
            clicks = (rng.random(3) < 0.5).astype(np.float64)
            orders = rng.random(int(clicks.sum())) < 0.5  # one per click
            events.append(FeedbackEvent(context=context, items=items, clicks=clicks, orders=orders))
        return events

    def test_append_scan_roundtrip(self, world, tmp_path):
        events = self._events(world, 5)
        with Journal(tmp_path / "j.log", fsync="every-write") as journal:
            sequences = [journal.append(event) for event in events]
        assert sequences == [1, 2, 3, 4, 5]
        scan = scan_journal(tmp_path / "j.log")
        assert not scan.torn_tail
        assert [sequence for sequence, _ in scan.records] == sequences
        for (_, recovered), original in zip(scan.records, events):
            assert np.array_equal(recovered.items, original.items)
            assert recovered.clicks.tobytes() == original.clicks.tobytes()
            assert np.array_equal(recovered.orders, original.orders)
            assert recovered.context == original.context

    def test_validation(self, tmp_path, world):
        with pytest.raises(ValueError):
            Journal(tmp_path / "j.log", fsync="sometimes")
        with pytest.raises(ValueError):
            Journal(tmp_path / "j.log", interval=0)
        journal = Journal(tmp_path / "j.log")
        journal.close()
        with pytest.raises(RuntimeError):
            journal.append(self._events(world, 1)[0])

    def test_torn_tail_truncated_on_reopen(self, tmp_path, world):
        path = tmp_path / "j.log"
        with Journal(path, fsync="every-write") as journal:
            for event in self._events(world, 3):
                journal.append(event)
        scan = scan_journal(path)
        # Cut into the middle of the final record: the classic torn append.
        with open(path, "r+b") as handle:
            handle.truncate(scan.valid_bytes - 3)
        torn = scan_journal(path)
        assert torn.torn_tail and torn.last_sequence == 2

        with pytest.raises(JournalCorruptError):
            Journal(path, repair=False)
        with Journal(path, fsync="every-write") as journal:
            assert journal.last_sequence == 2
            assert journal.append(self._events(world, 1)[0]) == 3
        healed = scan_journal(path)
        assert not healed.torn_tail and healed.last_sequence == 3

    def test_midfile_corruption_is_not_a_torn_tail(self, tmp_path, world):
        path = tmp_path / "j.log"
        with Journal(path, fsync="every-write") as journal:
            for event in self._events(world, 4):
                journal.append(event)
        # Flip a payload byte of the *first* record: committed history.
        corrupt_byte(path, len(_FILE_MAGIC) + 16 + 5)
        with pytest.raises(JournalCorruptError):
            scan_journal(path)

    def test_foreign_and_future_files_rejected(self, tmp_path):
        alien = tmp_path / "alien.log"
        alien.write_bytes(b"definitely not a journal")
        with pytest.raises(JournalCorruptError):
            scan_journal(alien)
        future = tmp_path / "future.log"
        future.write_bytes(b"RJRNL" + bytes([99]) + b"\x00\x00")
        with pytest.raises(JournalCorruptError, match="format"):
            scan_journal(future)
        # The JSON-record format is refused, not converted.
        older = tmp_path / "v1.log"
        older.write_bytes(b"RJRNL" + bytes([1]) + b"\x00\x00")
        with pytest.raises(JournalCorruptError, match="format v1, supported v2"):
            scan_journal(older)

    def test_fsync_off_buffers_until_sync(self, tmp_path, world):
        path = tmp_path / "j.log"
        journal = Journal(path, fsync="off")
        events = self._events(world, 4)
        for event in events[:3]:
            journal.append(event)
        assert scan_journal(path).last_sequence == 0  # nothing committed yet
        journal.sync()
        assert scan_journal(path).last_sequence == 3
        journal.append(events[3])
        journal.crash()  # drops the uncommitted 4th record
        assert scan_journal(path).last_sequence == 3

    def test_fsync_interval_commits_in_batches(self, tmp_path, world):
        path = tmp_path / "j.log"
        journal = Journal(path, fsync="interval", interval=2)
        events = self._events(world, 3)
        journal.append(events[0])
        assert scan_journal(path).last_sequence == 0
        journal.append(events[1])  # interval reached: batch committed
        assert scan_journal(path).last_sequence == 2
        journal.append(events[2])
        journal.crash()
        assert scan_journal(path).last_sequence == 2


# ---------------------------------------------------------------------- #
# the headline: crash at every byte offset
# ---------------------------------------------------------------------- #
class TestCrashOffsetSweep:
    EVENTS = 6

    @pytest.fixture(scope="class")
    def reference(self, world, tmp_path_factory):
        """A durable dir with a genesis snapshot and a fully committed journal."""
        root = tmp_path_factory.mktemp("sweep-ref")
        with DurableStateStore(root, fsync="every-write") as store:
            state = store.attach(ServingState(world))
            drive_feedback(state, world, seed=5, count=self.EVENTS)
            live = state_fingerprint(state)
        journal_bytes = (root / "journal.log").read_bytes()
        scan = scan_journal(root / "journal.log")
        assert len(scan.records) == self.EVENTS and not scan.torn_tail
        fingerprints = [
            state_fingerprint(replay_prefix_state(world, scan.records, k))
            for k in range(self.EVENTS + 1)
        ]
        assert fingerprints[-1] == live
        return root, journal_bytes, scan, fingerprints

    def _offsets(self, journal_bytes, scan):
        """Every byte of the last record, all boundaries, strided earlier bytes."""
        boundaries = [len(_FILE_MAGIC)]
        offset = len(_FILE_MAGIC)
        for _, event in scan.records:
            offset += 16 + len(event.to_bytes())
            boundaries.append(offset)
        last_start = boundaries[-2]
        offsets = set(boundaries)
        offsets.update(range(last_start, len(journal_bytes)))
        offsets.update(range(len(_FILE_MAGIC), last_start, 5))
        return sorted(offsets), boundaries

    def test_recovery_exact_at_every_crash_point(self, world, reference, tmp_path):
        root, journal_bytes, scan, fingerprints = reference
        offsets, boundaries = self._offsets(journal_bytes, scan)
        scratch = tmp_path / "sweep"
        shutil.copytree(root, scratch)
        journal_path = scratch / "journal.log"
        checked = 0
        for offset in offsets:
            journal_path.write_bytes(journal_bytes[:offset])
            store = DurableStateStore(scratch, fsync="every-write")
            state, report = store.recover(world, attach=False, warm=False)
            survivors = sum(1 for boundary in boundaries[1:] if boundary <= offset)
            assert report.recovered_sequence == survivors, f"offset {offset}"
            assert report.torn_tail == (offset not in boundaries), f"offset {offset}"
            assert state_fingerprint(state) == fingerprints[survivors], (
                f"recovered state diverges after crash at byte {offset}"
            )
            checked += 1
        assert checked >= len(journal_bytes) - boundaries[-2]  # full last record

    def test_torn_byte_inside_header_length_field(self, world, reference, tmp_path):
        """A truncation that scrambles the length prefix still recovers."""
        root, journal_bytes, scan, fingerprints = reference
        scratch = tmp_path / "hdr"
        shutil.copytree(root, scratch)
        last_start = len(journal_bytes) - (16 + len(scan.records[-1][1].to_bytes()))
        # Keep the header but replace the length with an insane value.
        data = bytearray(journal_bytes)
        data[last_start + 8] = 0xFF
        data[last_start + 11] = 0xFF
        (scratch / "journal.log").write_bytes(bytes(data))
        store = DurableStateStore(scratch, fsync="every-write")
        state, report = store.recover(world, attach=False, warm=False)
        assert report.torn_tail
        assert report.recovered_sequence == self.EVENTS - 1
        assert state_fingerprint(state) == fingerprints[self.EVENTS - 1]


class TestInProcessTornAppend:
    def test_writer_killed_mid_append_recovers_to_live_state(self, world, tmp_path):
        """The journal writer dies mid-``write`` inside ``record_clicks``.

        The append is the commitment point: the mutation whose record tore
        must *not* have applied to the live state, and recovery must land on
        exactly the state of the last full append.
        """
        reference = tmp_path / "ref"
        with DurableStateStore(reference, fsync="every-write") as ref_store:
            ref_state = ref_store.attach(ServingState(world))
            drive_feedback(ref_state, world, seed=9, count=4)
        record_sizes = [
            16 + len(event.to_bytes())
            for _, event in scan_journal(reference / "journal.log").records
        ]
        budgets = [
            len(_FILE_MAGIC) + sum(record_sizes[:2]) + 1,          # header byte 1
            len(_FILE_MAGIC) + sum(record_sizes[:2]) + 15,         # last header byte
            len(_FILE_MAGIC) + sum(record_sizes[:2]) + 16 + 10,    # mid payload
            len(_FILE_MAGIC) + sum(record_sizes[:3]) - 1,          # one byte short
        ]
        for budget in budgets:
            root = tmp_path / f"budget-{budget}"
            root.mkdir()
            journal = Journal(
                root / "journal.log",
                fsync="every-write",
                opener=lambda path, b=budget: TornFile(open(path, "ab"), b),
            )
            store = DurableStateStore(root, fsync="every-write")
            state = ServingState(world)
            state.attach_journal(journal)
            store.snapshot(state)  # genesis
            with pytest.raises(CrashError):
                drive_feedback(state, world, seed=9, count=4)
            live = state_fingerprint(state)
            assert state.feedback_seq == 2  # the torn third mutation never applied
            journal.crash()

            recovered, report = DurableStateStore(root, fsync="every-write").recover(
                world, attach=False, warm=False
            )
            assert report.torn_tail
            assert report.recovered_sequence == 2
            assert state_fingerprint(recovered) == live


# ---------------------------------------------------------------------- #
# fsync policies: bounded loss windows
# ---------------------------------------------------------------------- #
class TestFsyncLossWindows:
    def test_fsync_off_loses_only_past_last_snapshot(self, world, tmp_path):
        store = DurableStateStore(tmp_path, fsync="off")
        state = store.attach(ServingState(world))
        drive_feedback(state, world, seed=3, count=4)
        store.snapshot(state)  # durable point: seq 4
        drive_feedback(state, world, seed=77, count=3)
        assert state.feedback_seq == 7
        state.journal.crash()  # the 3 unsynced records evaporate

        store2 = DurableStateStore(tmp_path, fsync="off")
        recovered, report = store2.recover(world)
        assert report.recovered_sequence == 4
        expected = DurableStateStore(tmp_path / "x", fsync="off")
        reference = expected.attach(ServingState(world))
        drive_feedback(reference, world, seed=3, count=4)
        assert state_fingerprint(recovered) == state_fingerprint(reference)

        # Sequence numbers never rewind past what the snapshot covers.
        drive_feedback(recovered, world, seed=1, count=1)
        assert recovered.feedback_seq == 5
        recovered.journal.sync()
        assert scan_journal(store2.journal_path).last_sequence == 5
        store2.close()
        expected.close()

    def test_fsync_interval_loses_at_most_one_interval(self, world, tmp_path):
        store = DurableStateStore(tmp_path, fsync="interval", interval=3)
        state = store.attach(ServingState(world))
        drive_feedback(state, world, seed=13, count=7)  # commits at 3 and 6
        live_seq = state.feedback_seq
        state.journal.crash()

        recovered, report = DurableStateStore(
            tmp_path, fsync="interval", interval=3
        ).recover(world, attach=False, warm=False)
        assert report.recovered_sequence == 6
        assert live_seq - report.recovered_sequence < 3


# ---------------------------------------------------------------------- #
# snapshots: fallback, retention, atomicity, genesis
# ---------------------------------------------------------------------- #
class TestSnapshots:
    def test_corrupt_snapshot_falls_back_one_generation(self, world, tmp_path):
        with DurableStateStore(tmp_path, fsync="every-write") as store:
            state = store.attach(ServingState(world))  # genesis: gen 1 @ 0
            drive_feedback(state, world, seed=21, count=4)
            store.snapshot(state)  # gen 2 @ 4
            drive_feedback(state, world, seed=22, count=4)
            info = store.snapshot(state)  # gen 3 @ 8
            live = state_fingerprint(state)
        corrupt_byte(info.path, info.path.stat().st_size // 2)

        recovered, report = DurableStateStore(tmp_path).recover(
            world, attach=False, warm=False
        )
        assert report.skipped_snapshots == [3]
        assert report.snapshot_generation == 2
        # The journal holds everything, so fallback costs replay, not data.
        assert report.journal_records_replayed == 4
        assert state_fingerprint(recovered) == live

    def test_every_snapshot_corrupt_recovers_from_journal_alone(self, world, tmp_path):
        with DurableStateStore(tmp_path, fsync="every-write") as store:
            state = store.attach(ServingState(world))
            drive_feedback(state, world, seed=31, count=5)
            live = state_fingerprint(state)
        for path in sorted((tmp_path / "snapshots").iterdir()):
            corrupt_byte(path, path.stat().st_size // 2)
        recovered, report = DurableStateStore(tmp_path).recover(
            world, attach=False, warm=False
        )
        assert report.snapshot_generation is None
        assert report.journal_records_replayed == 5
        assert state_fingerprint(recovered) == live

    def test_retention_prunes_old_generations(self, world, tmp_path):
        store = SnapshotStore(tmp_path, retain=2)
        state = ServingState(world)
        for step in range(4):
            drive_feedback(state, world, seed=step, count=1)
            state.feedback_seq = step + 1
            store.write(state)
        assert store.generations() == [3, 4]

    def test_temp_files_invisible_to_generation_scan(self, world, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(ServingState(world))
        (tmp_path / ".tmp-state-000099.npz").write_bytes(b"half a snapshot")
        assert store.generations() == [1]
        payload, info, skipped = store.load_latest_valid()
        assert info.generation == 1 and skipped == []

    def test_other_format_versions_are_refused(self, world, tmp_path):
        """A v1 generation (recent contexts as JSON in the manifest), a v2 one
        (replay entries spelled column by column) or a v3 one (one encoded
        dataset per replay entry) is not read as v4: loading it names both
        versions, and recovery skips it."""
        store = SnapshotStore(tmp_path)
        state = ServingState(world)
        drive_feedback(state, world, seed=51, count=3)
        info = store.write(state)
        with np.load(info.path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        for version in (1, 2, 3):
            manifest = json.loads(str(arrays["__manifest__"]))
            manifest["format_version"] = version
            arrays["__manifest__"] = np.array(json.dumps(manifest, sort_keys=True))
            np.savez(info.path, **arrays)
            with pytest.raises(SnapshotCorruptError,
                               match=f"format v{version}, supported v4"):
                store.load(info.generation)
            assert store.load_latest_valid() == (None, None, [info.generation])

    def test_genesis_snapshot_captures_adopted_state(self, world, tmp_path):
        """A state with pre-journal history must be snapshotted on attach,
        because the journal alone can never reproduce it."""
        state = ServingState(world)
        drive_feedback(state, world, seed=41, count=5)  # un-journaled past
        assert state.feedback_seq == 5
        with DurableStateStore(tmp_path, fsync="every-write") as store:
            store.attach(state)
            assert store.snapshots.latest() == 1
            live = state_fingerprint(state)
            assert state.journal.last_sequence == 5  # aligned, not rewound
        recovered, report = DurableStateStore(tmp_path).recover(
            world, attach=False, warm=False
        )
        assert report.snapshot_sequence == 5
        assert state_fingerprint(recovered) == live


class TestRecoveryValidation:
    def test_sequence_gap_is_corruption_not_data(self, world, tmp_path):
        store = DurableStateStore(tmp_path, fsync="every-write")
        state = store.attach(ServingState(world))
        drive_feedback(state, world, seed=51, count=2)
        # Forge a hole: the next record jumps the sequence by ten.
        state.journal.reset_sequence(12)
        drive_feedback(state, world, seed=52, count=1)
        store.close()
        with pytest.raises(RecoveryError, match="gap"):
            DurableStateStore(tmp_path).recover(world, attach=False, warm=False)


# ---------------------------------------------------------------------- #
# full stack: replay buffer, caches, cluster, rolling deploys
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def online(eleme_dataset, small_model_config):
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    model = create_model("basm", eleme_dataset.schema, small_model_config)
    return eleme_dataset.world, encoder, model


class TestFullStackDurability:
    PIPELINE = PipelineConfig(recall_size=10, exposure_size=4)

    def _durable_state(self, world, encoder, root, count=24, fsync="every-write"):
        store = DurableStateStore(root, fsync=fsync)
        state = ServingState(world)
        state.attach_replay(ReplayBuffer(encoder, max_impressions=16))
        store.attach(state)
        drive_feedback(state, world, seed=61, count=count)
        return store, state

    def test_replay_and_serving_recover_byte_identical(self, online, tmp_path):
        world, encoder, model = online
        store, state = self._durable_state(world, encoder, tmp_path)
        live_fp = state_fingerprint(state)
        live_batch = state.replay.merged_batch()
        store.close()

        recovered, report = DurableStateStore(tmp_path).recover(
            world, encoder=encoder, attach=False
        )
        assert state_fingerprint(recovered) == live_fp
        assert report.journal_records_replayed == 24

        recovered_batch = recovered.replay.merged_batch()
        for name in live_batch:
            if name == "fields":
                for field, expected in live_batch["fields"].items():
                    got = recovered_batch["fields"][field]
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()
            else:
                assert recovered_batch[name].dtype == live_batch[name].dtype
                assert recovered_batch[name].tobytes() == live_batch[name].tobytes()

        # And the states *serve* identically, scores byte-for-byte.
        rng = np.random.default_rng(99)
        contexts = [world.sample_request_context(2, rng) for _ in range(5)]
        live_pipe = build_pipeline(world, model, encoder, state, self.PIPELINE)
        back_pipe = build_pipeline(world, model, encoder, recovered, self.PIPELINE)
        for context in contexts:
            a = live_pipe.run(context)
            b = back_pipe.run(context)
            assert np.array_equal(a.items, b.items)
            assert a.scores.tobytes() == b.scores.tobytes()

    def test_replay_window_requires_encoder(self, online, tmp_path):
        world, encoder, _ = online
        store, state = self._durable_state(world, encoder, tmp_path, count=4)
        store.snapshot(state)
        store.close()
        with pytest.raises(RecoveryError, match="encoder"):
            DurableStateStore(tmp_path).recover(world, attach=False, warm=False)

    def test_stale_cache_cannot_serve_pre_crash_behaviour(self, online, tmp_path):
        """Satellite regression: version-colliding cache entries after a lossy
        crash.  A user clicks item A (version 0→1, behaviour cached at v1);
        the crash loses that click; after recovery the user clicks item B,
        reaching version 1 *again*.  If the surviving cache's volatile tier
        were adopted as-is, the v1 entry would serve item A's behaviour for
        item B's state."""
        world, encoder, _ = online
        store = DurableStateStore(tmp_path, fsync="off")
        state = store.attach(ServingState(world))
        rng = np.random.default_rng(5)
        context = world.sample_request_context(2, rng)
        user = context.user_index
        encoder.item_static_table(state)  # pinned tier, must survive
        item_a, item_b = 7, 31
        state.record_clicks(
            context, np.array([item_a]), np.array([1.0], dtype=np.float32), rng=rng
        )
        entry_a, _, _ = encoder._behavior_entry(context, state)  # cached @ v1
        cache = state.features
        assert cache.num_volatile >= 1 and cache.num_pinned >= 1
        pinned_before = cache.num_pinned
        state.journal.crash()  # fsync=off: the click never reached disk

        recovered, _ = DurableStateStore(tmp_path, fsync="off").recover(
            world, encoder=encoder, features=cache, warm=False
        )
        assert recovered.features is cache
        assert cache.num_volatile == 0  # the poisoned tier is gone...
        assert cache.num_pinned == pinned_before  # ...the static tables are not
        assert int(recovered.user_version[user]) == 0

        recovered.record_clicks(
            context, np.array([item_b]), np.array([1.0], dtype=np.float32),
            rng=np.random.default_rng(5),
        )
        assert int(recovered.user_version[user]) == 1  # version collision is live
        entry_b, _, _ = encoder._behavior_entry(context, recovered)
        assert not np.array_equal(entry_a, entry_b)
        reference = ServingState(world)
        reference.record_clicks(
            context, np.array([item_b]), np.array([1.0], dtype=np.float32),
            rng=np.random.default_rng(5),
        )
        expected_b, _, _ = encoder._behavior_entry(context, reference)
        assert np.array_equal(entry_b, expected_b)
        recovered.journal.crash()

    def test_recovery_warms_feature_caches(self, online, tmp_path):
        world, encoder, _ = online
        store, state = self._durable_state(world, encoder, tmp_path, count=12)
        assert len(state.recent_contexts) == 12
        store.close()

        recovered, report = DurableStateStore(tmp_path).recover(
            world, encoder=encoder, attach=False, warm=True
        )
        assert report.warmed_users > 0
        assert recovered.features.num_pinned >= 2  # item + user static tables
        assert recovered.features.num_volatile > 0  # behaviour entries primed
        # Warm means warm: re-encoding a recent context is now a pure hit.
        hits_before = recovered.features.hits
        encoder._behavior_entry(recovered.recent_contexts[-1], recovered)
        assert recovered.features.hits == hits_before + 1

    def test_cluster_warm_boot_and_predeploy_snapshot(self, online, tmp_path):
        world, encoder, model = online
        store, state = self._durable_state(world, encoder, tmp_path, count=10)
        store.close()

        store2 = DurableStateStore(tmp_path)
        recovered, _ = store2.recover(world, encoder=encoder)
        frontend = build_cluster(
            world, model, encoder, recovered,
            config=ClusterConfig(num_workers=2),
            pipeline_config=self.PIPELINE,
            durable=store2,
        )
        try:
            assert frontend.warmed_requests == len(recovered.recent_contexts)
            hits_before = frontend.cache.stats()["hits"]
            frontend.serve(recovered.recent_contexts[-1])
            assert frontend.cache.stats()["hits"] == hits_before + 1

            generations_before = store2.snapshots.generations()
            deploy = RollingDeploy(frontend, [recovered.recent_contexts[0]])
            report = deploy.run(model)
            assert report.pre_deploy_snapshot is not None
            assert report.pre_deploy_snapshot > max(generations_before)
            assert "pre-deploy snapshot" in report.summary()
        finally:
            frontend.close()
            store2.close()


# ---------------------------------------------------------------------- #
# concurrency: dense sequences under a threaded burst
# ---------------------------------------------------------------------- #
class TestThreadedJournalBurst:
    def test_concurrent_feedback_loses_nothing(self, world, tmp_path):
        store = DurableStateStore(tmp_path, fsync="every-write")
        state = store.attach(ServingState(world))
        num_threads, iterations = 6, 100
        setup_rng = np.random.default_rng(0)
        contexts = [
            world.sample_request_context(t % 3, setup_rng) for t in range(num_threads)
        ]
        barrier = threading.Barrier(num_threads)
        errors = []

        def pound(thread_index: int) -> None:
            rng = np.random.default_rng(1000 + thread_index)
            context = contexts[thread_index]
            barrier.wait()
            try:
                for _ in range(iterations):
                    items = rng.integers(0, world.config.num_items, size=3)
                    clicks = (rng.random(3) < 0.5).astype(np.float32)
                    state.record_clicks(context, items, clicks, rng=rng)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=pound, args=(index,))
            for index in range(num_threads)
        ]
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous_interval)
        assert not errors

        total = num_threads * iterations
        assert state.feedback_seq == total
        live = state_fingerprint(state)
        store.close()
        scan = scan_journal(store.journal_path)
        assert [sequence for sequence, _ in scan.records] == list(range(1, total + 1))

        recovered, report = DurableStateStore(tmp_path).recover(
            world, attach=False, warm=False
        )
        assert report.journal_records_replayed == total
        assert state_fingerprint(recovered) == live


# ---------------------------------------------------------------------- #
# property: random click/snapshot/crash interleavings
# ---------------------------------------------------------------------- #
class TestDurabilityProperty:
    @settings(max_examples=25)
    @given(ops=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=20))
    def test_random_interleavings_recover_a_true_prefix(self, ops, fsync_policy):
        """Whatever the interleaving, recovery lands on an exact former state.

        ``fingerprints[k]`` is the live state's fingerprint when its sequence
        was ``k``; after every injected crash the recovered state must equal
        one of those — never a blend — at a sequence no older than the last
        snapshot, and exactly the latest under ``--fsync every-write``.
        """
        world = SyntheticWorld(TINY_WORLD)
        rng = np.random.default_rng(4242)
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            store = DurableStateStore(root, fsync=fsync_policy, interval=3)
            state = store.attach(ServingState(world))
            fingerprints = [state_fingerprint(state)]
            last_snapshot_seq = 0
            for op in ops:
                if op <= 5:  # feedback
                    context = world.sample_request_context(int(op % 3), rng)
                    items = rng.integers(0, world.config.num_items, size=3)
                    clicks = (rng.random(3) < 0.5).astype(np.float32)
                    state.record_clicks(context, items, clicks, rng=rng)
                    fingerprints.append(state_fingerprint(state))
                elif op <= 7:  # snapshot
                    store.snapshot(state)
                    last_snapshot_seq = state.feedback_seq
                else:  # crash + recover
                    live_seq = state.feedback_seq
                    state.journal.crash()
                    store = DurableStateStore(root, fsync=fsync_policy, interval=3)
                    state, report = store.recover(world)
                    recovered = report.recovered_sequence
                    assert last_snapshot_seq <= recovered <= live_seq
                    if fsync_policy == "every-write":
                        assert recovered == live_seq
                    assert state_fingerprint(state) == fingerprints[recovered]
                    del fingerprints[recovered + 1 :]
            store.close()
