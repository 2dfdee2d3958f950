"""Replay buffer: the logged impressions/clicks that fuel online learning.

The paper's adaptation story (Section V, Fig. 13's continuous-deployment
loop) feeds the system's own exposures back into training.
:meth:`repro.serving.state.ServingState.apply_feedback` (live, or replaying
the journal) logs each exposure **before** its feedback mutates the state, as
a raw :class:`ReplayRecord`: context, items, clicks, and the live values
:meth:`OnlineRequestEncoder.encode_split` reads for them — the history length
among them, a watermark since a history only grows.  :meth:`ReplayBuffer.window`
encodes the newest records in one batch through the encoder's own
:meth:`OnlineRequestEncoder.assemble_split`, outside the state lock, into the
offline :class:`repro.data.encoding.EncodedDataset` the incremental trainer
iterates — exactly the features the ranker scored.  The window is bounded:
each daily refresh consumes a recent slice of the log.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, NamedTuple, Optional

import numpy as np

from ..data.encoding import EncodedDataset
from ..data.world import RequestContext
from ..features.behavior import BehaviorHistory
from ..features.schema import FieldName
from ..features.table_ids import behavior_ids
from . import wire
from .encoder import joined

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state imports replay)
    from .encoder import OnlineRequestEncoder
    from .state import ServingState

__all__ = ["ReplayBuffer", "ReplayRecord"]


class ReplayRecord(NamedTuple):
    """One logged exposure and the live values its encoding reads."""

    context: RequestContext
    items: np.ndarray         # int64, display order
    labels: np.ndarray        # float32 clicks, one per item
    item_clicks: np.ndarray   # int64 ``state.item_clicks[items]``
    user_orders: int
    user_clicks: int
    watermark: int            # the user's history length


class ReplayBuffer:
    """Bounded log of raw exposures consumed by the incremental trainer."""

    def __init__(self, encoder: "OnlineRequestEncoder", max_impressions: int = 5000) -> None:
        if max_impressions <= 0:
            raise ValueError("max_impressions must be positive")
        self.encoder = encoder
        self.max_impressions = max_impressions
        #: Bound by :meth:`ServingState.attach_replay` or the first :meth:`log`.
        self.state: Optional["ServingState"] = None
        #: One record per logged exposure, oldest first.
        self.records: Deque[ReplayRecord] = deque(maxlen=max_impressions)
        #: Totals over the buffer's lifetime (evicted impressions included).
        self.impressions_logged = 0
        self.rows_logged = 0
        self.clicks_logged = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_rows(self) -> int:
        """Candidate rows currently held in the window."""
        return int(sum(len(record.items) for record in self.records))

    def clear(self) -> None:
        self.records.clear()

    def bind(self, state: "ServingState") -> None:
        """Read every record from ``state``; a second state raises."""
        if self.state is None:
            self.state = state
        elif self.state is not state:
            raise ValueError("this replay buffer logs another ServingState")

    # ------------------------------------------------------------------ #
    def log(
        self,
        state: "ServingState",
        context: RequestContext,
        items: np.ndarray,
        clicks: np.ndarray,
    ) -> None:
        """Record one exposure against the *current* state and append it.

        Must be called before the clicks are applied to ``state`` (as
        ``ServingState.apply_feedback`` does), so the record holds what the
        model ranked; a call that raises leaves the buffer as it was.
        """
        items = np.array(items, dtype=np.int64)
        labels = np.array(clicks, dtype=np.float32).reshape(-1)
        if len(items) != len(labels):
            raise ValueError("items and clicks must align")
        if len(items) and (items.min() < 0 or items.max() >= len(state.item_clicks)):
            raise ValueError(f"logged item ids must lie in [0, {len(state.item_clicks)})")
        clicked = int(labels.sum())
        user = context.user_index
        history = state.histories.get(user)
        self.bind(state)
        self.records.append(ReplayRecord(
            context, items, labels, state.item_clicks[items],
            int(state.user_orders[user]), int(state.user_clicks[user]),
            len(history) if history is not None else 0,
        ))
        self.impressions_logged += 1
        self.rows_logged += len(items)
        self.clicks_logged += clicked

    # ------------------------------------------------------------------ #
    def window(self, last_n: Optional[int] = None) -> EncodedDataset:
        """The newest ``last_n`` impressions (default: all) as one dataset;
        ``session_index`` numbers those with rows.  The histories the records
        read are copied under the state lock and encoded outside it."""
        if last_n is not None and last_n <= 0:
            raise ValueError("last_n must be positive")
        state, encoder = self.state, self.encoder
        if state is None:
            raise ValueError("replay buffer is empty")
        with state.lock:
            records = list(self.records)[-(last_n or len(self.records)):]
            users = {record.context.user_index for record in records if record.watermark}
            histories = {user: state.histories[user].copy() for user in users}
        if not records:
            raise ValueError("replay buffer is empty")
        contexts = [record.context for record in records]
        counts = np.array([len(record.items) for record in records], dtype=np.int64)
        candidates = joined([record.items for record in records], np.int64)
        shape = (int(np.count_nonzero(counts)), encoder.schema.max_sequence_length)
        raw = np.zeros(shape + (len(BehaviorHistory.ID_COLUMNS),), dtype=np.int64)
        mask, st_mask = np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.float32)
        exposed = (record for record in records if len(record.items))
        for slot, (context, *_, watermark) in enumerate(exposed):
            if watermark:
                raw[slot], mask[slot], st_mask[slot] = histories[context.user_index].snapshot(
                    context.time_period, context.geohash[:state.geohash_match_prefix],
                    shape[1], upto=watermark)
        split = encoder.assemble_split(
            contexts, counts, candidates, joined([r.item_clicks for r in records], np.int64),
            np.array([record.user_orders for record in records], dtype=np.int64),
            np.array([record.user_clicks for record in records], dtype=np.int64),
            (behavior_ids(encoder.schema, raw), mask, st_mask), state,
        )
        # Each exposure's user and context rows repeat onto its candidate
        # rows, and its behaviour slot is its session.
        rows = split["row_map"]
        periods, cities, hours, days = np.array(
            [(c.time_period, c.city, c.hour, c.day) for c in contexts], dtype=np.int64
        ).reshape(len(contexts), 4).T
        return EncodedDataset(
            schema=encoder.schema,
            field_ids={
                FieldName.USER: split["user_rows"][rows],
                FieldName.CANDIDATE_ITEM: split["item_field"],
                FieldName.CONTEXT: split["context_rows"][rows],
                FieldName.COMBINE: split["combine_ids"],
            },
            behavior_ids=split["behavior_unique"],
            behavior_mask=split["behavior_mask_unique"],
            behavior_st_mask=split["behavior_st_mask_unique"],
            session_index=split["behavior_row_map"],
            labels=joined([record.labels for record in records], np.float32),
            time_period=periods[rows], city=cities[rows], hour=hours[rows], day=days[rows],
            position=np.arange(len(rows), dtype=np.int64) - (np.cumsum(counts) - counts)[rows],
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The records as flat columns, read back by :meth:`load_arrays`: wire
        contexts, rows per record, items, labels and item counters end to end,
        and each record's user counters and watermark."""
        records = list(self.records)
        arrays = {"contexts": wire.pack_contexts(record.context for record in records),
                  "counts": np.array([len(r.items) for r in records], dtype=np.int64)}
        for name, dtype in (("items", np.int64), ("labels", np.float32),
                            ("item_clicks", np.int64)):
            arrays[name] = joined([getattr(record, name) for record in records], dtype)
        for name in ("user_orders", "user_clicks", "watermark"):
            arrays[name] = np.array([getattr(r, name) for r in records], dtype=np.int64)
        return arrays

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Append the records :meth:`to_arrays` wrote."""
        bounds = np.cumsum(arrays["counts"])[:-1]
        columns = zip(
            wire.unpack_contexts(arrays["contexts"]),
            *(np.split(arrays[name], bounds) for name in ("items", "labels", "item_clicks")),
            *(arrays[name].tolist() for name in ("user_orders", "user_clicks", "watermark")))
        self.records.extend(ReplayRecord(*column) for column in columns)

    def merged_batch(self, last_n: Optional[int] = None) -> Dict[str, np.ndarray]:
        """The whole :meth:`window` as one model batch (offline batch contract)."""
        window = self.window(last_n)
        if not len(window):
            raise ValueError("replay buffer window is empty")
        return window.batch(np.arange(len(window)))
