"""Replay buffer: the logged impressions/clicks that fuel online learning.

The paper's adaptation story (Section V, the continuous-deployment loop of
Fig. 13) hinges on the serving system feeding its own exposures back into
training.  :class:`ReplayBuffer` is that log: whenever click feedback reaches
:meth:`repro.serving.state.ServingState.record_clicks`, the buffer encodes
the exposed candidates with the same :meth:`OnlineRequestEncoder.encode_split`
that served them — **before** the feedback mutates the user's history — and
stores them, with the observed clicks as labels, as a one-session
:class:`repro.data.encoding.EncodedDataset`: the offline training data's own
type.  The split batch's one user row and one context row are repeated onto
the exposure's rows and its one behaviour slot is the session's behaviour.

Capturing features at feedback time (pre-mutation) keeps the replayed batch
identical to what the ranker scored, so incremental training sees exactly the
train/serve-consistent distribution, including the position of each exposed
item.  :meth:`ReplayBuffer.window` concatenates the newest exposures into one
dataset, which the incremental trainer iterates with the offline
:class:`repro.data.dataset.DataLoader`.  A bounded window evicts the oldest
impressions, mirroring the paper's daily-update recipe where each refresh
consumes a recent slice of the log.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

import numpy as np

from ..data.encoding import EncodedDataset
from ..data.world import RequestContext
from ..features.schema import FieldName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state imports replay)
    from .encoder import OnlineRequestEncoder
    from .state import ServingState

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Bounded log of encoded exposures consumed by the incremental trainer."""

    def __init__(self, encoder: "OnlineRequestEncoder", max_impressions: int = 5000) -> None:
        if max_impressions <= 0:
            raise ValueError("max_impressions must be positive")
        self.encoder = encoder
        self.max_impressions = max_impressions
        #: One single-session dataset per logged exposure, oldest first.
        self._impressions: Deque[EncodedDataset] = deque(maxlen=max_impressions)
        #: Totals over the buffer's lifetime (evicted impressions included).
        self.impressions_logged = 0
        self.rows_logged = 0
        self.clicks_logged = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._impressions)

    @property
    def num_rows(self) -> int:
        """Candidate rows currently held in the window."""
        return int(sum(len(impression) for impression in self._impressions))

    def clear(self) -> None:
        self._impressions.clear()

    # ------------------------------------------------------------------ #
    def log(
        self,
        state: "ServingState",
        context: RequestContext,
        items: np.ndarray,
        clicks: np.ndarray,
    ) -> EncodedDataset:
        """Encode one exposure against the *current* state and append it.

        Must be called before the clicks are applied to ``state`` (as
        ``ServingState.record_clicks`` does), so the stored features match
        what the model ranked; a call that raises leaves the buffer as it was.
        """
        items = np.asarray(items, dtype=np.int64)
        labels = np.array(clicks, dtype=np.float32).reshape(-1)
        if len(items) != len(labels):
            raise ValueError("items and clicks must align")
        count = len(items)
        clicked = int(labels.sum())
        split, _ = self.encoder.encode_split([context], [items], state)
        # Request 0 owns every row: ``row_map`` repeats its user and context
        # rows and is the session index (an exposure without rows owns none).
        rows = split["row_map"]
        impression = EncodedDataset(
            schema=self.encoder.schema,
            field_ids={
                FieldName.USER: split["user_rows"][rows],
                FieldName.CANDIDATE_ITEM: split["item_field"],
                FieldName.CONTEXT: split["context_rows"][rows],
                FieldName.COMBINE: split["combine_ids"],
            },
            behavior_ids=split["behavior_unique"],
            behavior_mask=split["behavior_mask_unique"],
            behavior_st_mask=split["behavior_st_mask_unique"],
            session_index=rows,
            labels=labels,
            time_period=np.full(count, context.time_period, dtype=np.int64),
            city=np.full(count, context.city, dtype=np.int64),
            hour=np.full(count, context.hour, dtype=np.int64),
            day=np.full(count, context.day, dtype=np.int64),
            position=np.arange(count, dtype=np.int64),
        )
        self._impressions.append(impression)
        self.impressions_logged += 1
        self.rows_logged += count
        self.clicks_logged += clicked
        return impression

    # ------------------------------------------------------------------ #
    def window(self, last_n: Optional[int] = None) -> EncodedDataset:
        """The newest ``last_n`` impressions (default: all) as one dataset.

        ``session_index`` numbers the impressions that have rows within the
        window, so grouped metrics keep working.
        """
        impressions = list(self._impressions)
        if last_n is not None:
            if last_n <= 0:
                raise ValueError("last_n must be positive")
            impressions = impressions[-last_n:]
        if not impressions:
            raise ValueError("replay buffer is empty")
        return EncodedDataset.concat(impressions)

    def merged_batch(self, last_n: Optional[int] = None) -> Dict[str, np.ndarray]:
        """The whole :meth:`window` as one model batch (offline batch contract)."""
        window = self.window(last_n)
        if not len(window):
            raise ValueError("replay buffer window is empty")
        return window.batch(np.arange(len(window)))

    def summary(self) -> str:
        ctr = self.clicks_logged / max(self.rows_logged, 1)
        return (
            f"{len(self)} impressions in window ({self.num_rows} rows); "
            f"lifetime {self.impressions_logged} impressions / "
            f"{self.rows_logged} rows, logged CTR {ctr:.3f}"
        )
