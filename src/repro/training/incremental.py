"""Online learning: continue training a deployed model on logged feedback.

The paper's system is adaptive by construction — the bottom-up spatiotemporal
modules exist because the OFOS click distribution drifts by hour, day and
district, and the deployed model is retrained on fresh logs and redeployed
continuously (the daily-update recipe of its Fig. 13 serving loop).  The
reproduction's offline :class:`repro.training.trainer.Trainer` covers the
initial fit; this module closes the loop:

* :class:`repro.serving.replay.ReplayBuffer` accumulates the impressions and
  clicks the serving stack observes;
* :class:`IncrementalTrainer` warm-starts from the deployed parameters and
  runs mini-batch steps over a bounded replay window, reusing the exact
  optimizer stack of the offline recipe (via
  :func:`repro.training.trainer.build_optimizer`) with the learning rate
  decayed refresh-over-refresh so late updates fine-tune instead of
  overwriting;
* the refreshed model is then published to a
  :class:`repro.models.store.ModelStore` and hot-swapped into serving.

Optimizer state (e.g. Adagrad accumulators) persists across refresh rounds,
mirroring a long-running production trainer rather than a cold restart per
day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..models.base import BaseCTRModel, batch_num_rows
from ..nn import BCELoss
from ..serving.replay import ReplayBuffer
from .config import TrainConfig
from .trainer import build_optimizer

__all__ = ["OnlineTrainConfig", "IncrementalResult", "IncrementalTrainer"]


@dataclass
class OnlineTrainConfig:
    """Knobs of the daily-update recipe.

    ``replay_window`` bounds how many of the newest logged impressions each
    refresh consumes; ``lr_decay`` multiplies the learning rate after every
    refresh round (floored at ``min_learning_rate``), the online analogue of
    the offline schedule's tail.  ``passes_per_refresh`` is the number of
    epochs over the window — kept low because online data is replayed, not
    i.i.d. resampled.
    """

    batch_size: int = 256
    passes_per_refresh: int = 1
    replay_window: Optional[int] = None      # impressions; None = whole buffer
    optimizer: str = "adagrad"
    learning_rate: float = 0.02
    lr_decay: float = 0.9
    min_learning_rate: float = 1e-4
    gradient_clip_norm: Optional[float] = 5.0
    shuffle: bool = True
    seed: int = 0
    #: Refreshing off almost no data mostly adds variance; below this many
    #: logged impressions a refresh is a no-op.
    min_impressions: int = 8

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.passes_per_refresh <= 0:
            raise ValueError("passes_per_refresh must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")

    def base_train_config(self) -> TrainConfig:
        """The equivalent offline :class:`TrainConfig` (no warm-up online)."""
        return TrainConfig(
            epochs=1,
            batch_size=self.batch_size,
            optimizer=self.optimizer,
            learning_rate=self.learning_rate,
            use_warmup=False,
            gradient_clip_norm=self.gradient_clip_norm,
            shuffle=self.shuffle,
            seed=self.seed,
        )


@dataclass
class IncrementalResult:
    """What one refresh round did."""

    round_index: int
    steps: int
    rows: int
    impressions: int
    step_losses: List[float] = field(default_factory=list)
    learning_rate: float = 0.0

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.step_losses)) if self.step_losses else float("nan")

    @property
    def skipped(self) -> bool:
        return self.steps == 0


def _take_rows(batch: Dict[str, np.ndarray], indices: np.ndarray) -> Dict[str, np.ndarray]:
    """Row-select a flat (dedup-free) model batch by fancy index."""
    taken: Dict[str, np.ndarray] = {}
    for key, value in batch.items():
        if key == "fields":
            taken[key] = {name: ids[indices] for name, ids in value.items()}
        else:
            taken[key] = value[indices]
    return taken


class IncrementalTrainer:
    """Warm-started mini-batch trainer over a serving replay buffer."""

    def __init__(self, model: BaseCTRModel, config: Optional[OnlineTrainConfig] = None) -> None:
        self.model = model
        self.config = config or OnlineTrainConfig()
        self.loss_fn = BCELoss()
        # Built once and kept across refreshes so adaptive-optimizer state
        # (Adagrad accumulators) carries over, like a long-lived trainer.
        self.optimizer, _ = build_optimizer(model, self.config.base_train_config())
        self.rounds_completed = 0
        self.total_steps = 0
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    @property
    def learning_rate(self) -> float:
        """Effective learning rate of the next refresh round."""
        decayed = self.config.learning_rate * (self.config.lr_decay ** self.rounds_completed)
        return max(decayed, self.config.min_learning_rate)

    def refresh(self, replay: ReplayBuffer) -> IncrementalResult:
        """Run one refresh round over the newest replay window.

        Returns a skipped (zero-step) result when the window holds fewer than
        ``min_impressions`` exposures; the model is untouched in that case.
        """
        cfg = self.config
        window = min(len(replay), cfg.replay_window) if cfg.replay_window else len(replay)
        result = IncrementalResult(
            round_index=self.rounds_completed + 1,
            steps=0, rows=0, impressions=window,
            learning_rate=self.learning_rate,
        )
        if window < cfg.min_impressions:
            return result

        batch_all = replay.merged_batch(last_n=window)
        total = batch_num_rows(batch_all)
        result.rows = total
        self.optimizer.lr = result.learning_rate

        was_training = self.model.training
        self.model.train()
        try:
            for _ in range(cfg.passes_per_refresh):
                order = (
                    self._rng.permutation(total) if cfg.shuffle
                    else np.arange(total, dtype=np.int64)
                )
                for start in range(0, total, cfg.batch_size):
                    indices = order[start:start + cfg.batch_size]
                    batch = _take_rows(batch_all, indices)
                    predictions = self.model(batch)
                    loss = self.loss_fn(predictions, batch["labels"])
                    self.model.zero_grad()
                    loss.backward()
                    if cfg.gradient_clip_norm is not None:
                        self.optimizer.clip_grad_norm(cfg.gradient_clip_norm)
                    self.optimizer.step()
                    result.step_losses.append(float(loss.item()))
                    result.steps += 1
                    self.total_steps += 1
        finally:
            self.model.train(was_training)
            self.model.weights_changed()

        self.rounds_completed += 1
        return result
