"""ReplayBuffer edge cases: eviction at the bound, empty windows, and the
durable-snapshot round-trip preserving entry order and dtypes exactly."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.serving import (
    OnlineRequestEncoder,
    ReplayBuffer,
    ServingState,
)
from repro.serving.durable.snapshot import apply_payload, extract_payload


@pytest.fixture(scope="module")
def replay_setup(eleme_dataset):
    world = eleme_dataset.world
    encoder = OnlineRequestEncoder(world, eleme_dataset.schema)
    return world, encoder


def log_impressions(state, world, count, num_candidates=3, seed=0):
    rng = np.random.default_rng(seed)
    for step in range(count):
        context = world.sample_request_context(int(step % 3), rng)
        items = rng.integers(0, world.config.num_items, size=num_candidates)
        clicks = (rng.random(num_candidates) < 0.5).astype(np.float32)
        state.record_clicks(context, items, clicks, rng=rng)


class TestReplayEdges:
    def test_eviction_exactly_at_bound(self, replay_setup):
        world, encoder = replay_setup
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=3))

        log_impressions(state, world, count=3)
        labels_at_bound = [record.labels.copy() for record in replay.records]
        assert len(replay) == 3  # full, nothing evicted yet

        log_impressions(state, world, count=1, seed=99)
        assert len(replay) == 3  # the bound holds...
        assert replay.impressions_logged == 4  # ...lifetime counters do not
        survivors = [record.labels for record in replay.records]
        # Oldest-out: entries 2, 3 slid down, the new impression is last.
        assert np.array_equal(survivors[0], labels_at_bound[1])
        assert np.array_equal(survivors[1], labels_at_bound[2])

    def test_bound_validation(self, replay_setup):
        _, encoder = replay_setup
        with pytest.raises(ValueError, match="positive"):
            ReplayBuffer(encoder, max_impressions=0)

    def test_merged_batch_on_empty_window_raises(self, replay_setup):
        world, encoder = replay_setup
        replay = ReplayBuffer(encoder, max_impressions=4)
        with pytest.raises(ValueError, match="empty"):
            replay.merged_batch()
        state = ServingState(world)
        state.attach_replay(replay)
        log_impressions(state, world, count=2)
        replay.clear()
        with pytest.raises(ValueError, match="empty"):
            replay.merged_batch()

    def test_merged_batch_last_n_validation(self, replay_setup):
        world, encoder = replay_setup
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=4))
        log_impressions(state, world, count=2)
        with pytest.raises(ValueError, match="positive"):
            replay.merged_batch(last_n=0)
        with pytest.raises(ValueError, match="positive"):
            replay.merged_batch(last_n=-1)
        assert len(replay.merged_batch(last_n=1)["labels"]) == 3

    def test_snapshot_roundtrip_preserves_order_and_dtypes(self, replay_setup):
        world, encoder = replay_setup
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=5))
        log_impressions(state, world, count=8)  # 3 evicted: window is 4..8

        payload = extract_payload(state)
        restored_state = ServingState(world)
        apply_payload(restored_state, payload, encoder)
        restored = restored_state.replay

        assert restored.max_impressions == replay.max_impressions
        assert len(restored) == len(replay) == 5
        assert restored.impressions_logged == replay.impressions_logged
        assert restored.rows_logged == replay.rows_logged
        assert restored.clicks_logged == replay.clicks_logged

        for got, expected in zip(restored.records, replay.records):
            assert got.context == expected.context
            for name in ("items", "labels", "item_clicks"):
                got_array, expected_array = getattr(got, name), getattr(expected, name)
                assert got_array.dtype == expected_array.dtype, name
                assert got_array.shape == expected_array.shape, name
                assert got_array.tobytes() == expected_array.tobytes(), name
            assert ((got.user_orders, got.user_clicks, got.watermark)
                    == (expected.user_orders, expected.user_clicks, expected.watermark))
        got, expected = restored.window(), replay.window()
        got_arrays, expected_arrays = got.to_arrays(), expected.to_arrays()
        assert list(got_arrays) == list(expected_arrays)
        for name, expected_array in expected_arrays.items():
            got_array = got_arrays[name]
            assert got_array.dtype == expected_array.dtype, name
            assert got_array.shape == expected_array.shape, name
            assert got_array.tobytes() == expected_array.tobytes(), name
        for name in got.field_ids:
            assert got.field_ids[name].dtype == np.int64
        assert got.labels.dtype == np.float32
        assert got.behavior_mask.dtype == np.float32

        merged_before = replay.merged_batch()
        merged_after = restored.merged_batch()
        for name, value in merged_before.items():
            if name == "fields":
                for field, array in value.items():
                    assert merged_after["fields"][field].tobytes() == array.tobytes()
            else:
                assert merged_after[name].tobytes() == value.tobytes()

    @pytest.mark.parametrize("labels", [[np.nan, 1.0], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_a_refused_log_leaves_the_buffer_unchanged(self, replay_setup, labels):
        """``log`` computes everything before it appends: a label it cannot
        count raises without an entry or a counter moving."""
        world, encoder = replay_setup
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=4))
        log_impressions(state, world, count=2)
        before = (len(replay), replay.impressions_logged, replay.rows_logged,
                  replay.clicks_logged)
        context = world.sample_request_context(0, np.random.default_rng(3))
        with pytest.raises((ValueError, OverflowError)):
            replay.log(state, context, np.array([1, 2]), np.array(labels))
        assert (len(replay), replay.impressions_logged, replay.rows_logged,
                replay.clicks_logged) == before


def _profiled_calls(call) -> int:
    """Python- and C-level calls ``call()`` makes, counted with ``sys.setprofile``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


class TestLogWork:
    """A click's replay log is a few counter reads, not an encode (encoding
    the exposure into a one-session dataset made 288 profiled calls here)."""

    def _exposure(self, replay_setup):
        world, encoder = replay_setup
        state = ServingState(world)
        replay = state.attach_replay(ReplayBuffer(encoder, max_impressions=4))
        log_impressions(state, world, count=6)  # warm, evicting
        context = world.sample_request_context(1, np.random.default_rng(5))
        return replay, state, context, np.array([3, 1, 4, 1, 5]), np.array([0, 1, 0, 0, 1.0])

    def test_one_log_makes_at_most_40_profiled_calls(self, replay_setup):
        replay, state, context, items, clicks = self._exposure(replay_setup)
        calls = _profiled_calls(lambda: replay.log(state, context, items, clicks))
        assert calls <= 40, calls

    def test_log_never_encodes(self, replay_setup, monkeypatch):
        replay, state, context, items, clicks = self._exposure(replay_setup)

        def refuse(*args, **kwargs):
            raise AssertionError("ReplayBuffer.log called encode_split")

        monkeypatch.setattr(OnlineRequestEncoder, "encode_split", refuse)
        replay.log(state, context, items, clicks)
        assert replay.impressions_logged == 7
