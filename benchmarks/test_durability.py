"""Recovery at bench scale: genesis snapshot plus a 50k-event journal replay.

Cold boot from a genesis snapshot and a 50k-event journal is the worst
honest case (no intermediate snapshot to cut the replay short).  Every
journaled event must replay, and the recovered state must fingerprint-match
the live one — the same byte-equality oracle the fault-injection tier uses.

What the journal costs per feedback event and how long a boot takes are
wall-clock questions: ``python3 bench/run.py`` answers the first on the
``hot_feedback`` workload (``journal.append_us``); recovery time itself is
not yet measured anywhere (see "Measuring performance" in the README).
"""

from __future__ import annotations

import numpy as np

from repro.data.world import SyntheticWorld, WorldConfig
from repro.serving import DurableStateStore, ServingState, state_fingerprint

from .conftest import format_rows, save_result

RECOVERY_EVENTS = 50_000
RECOVERY_WORLD = WorldConfig(num_users=400, num_items=200, num_cities=4, seed=31)


def drive(state, world, seed, count, num_candidates):
    rng = np.random.default_rng(seed)
    for step in range(count):
        context = world.sample_request_context(int(step % 3), rng)
        items = rng.integers(0, world.config.num_items, size=num_candidates)
        clicks = (rng.random(num_candidates) < 0.5).astype(np.float32)
        state.record_clicks(context, items, clicks, rng=rng)


def test_recovery_replays_50k_events_identically(tmp_path):
    recovery_world = SyntheticWorld(RECOVERY_WORLD)
    store = DurableStateStore(tmp_path / "recovery", fsync="interval")
    live = store.attach(ServingState(recovery_world))
    drive(live, recovery_world, seed=7, count=RECOVERY_EVENTS, num_candidates=2)
    live_fingerprint = state_fingerprint(live)
    store.close()

    recovered, report = DurableStateStore(tmp_path / "recovery").recover(
        recovery_world, attach=False, warm=False
    )
    identical = float(state_fingerprint(recovered) == live_fingerprint)

    rows = [
        {"metric": "journal_records_replayed", "value": report.journal_records_replayed},
        {"metric": "recovered_identical", "value": identical},
    ]
    save_result("durability", format_rows(rows, "Durability: 50k-event recovery"))

    assert report.journal_records_replayed == RECOVERY_EVENTS
    assert identical == 1.0
