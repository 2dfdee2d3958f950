"""Online learning: continue training a deployed model on logged feedback.

The paper's system is adaptive by construction — the bottom-up spatiotemporal
modules exist because the OFOS click distribution drifts by hour, day and
district, and the deployed model is retrained on fresh logs and redeployed
continuously (the daily-update recipe of its Fig. 13 serving loop).  The
reproduction's offline :class:`repro.training.trainer.Trainer` covers the
initial fit; this module closes the loop:

* :class:`repro.serving.replay.ReplayBuffer` accumulates the impressions and
  clicks the serving stack observes and encodes its window as one
  :class:`repro.data.encoding.EncodedDataset`;
* :class:`IncrementalTrainer` warm-starts from the deployed parameters and
  iterates the newest replay window with the offline
  :class:`repro.data.dataset.DataLoader` through the offline step
  (:func:`repro.training.trainer.train_step`) and optimizer stack
  (:func:`repro.training.trainer.build_optimizer`, asked for plain Adagrad:
  ``adagrad_decay=1.0``, no warm-up), with the learning rate decayed
  refresh-over-refresh so late updates fine-tune instead of overwriting;
* the refreshed model is then published to a
  :class:`repro.models.store.ModelStore` and hot-swapped into serving.

Optimizer state (the Adagrad accumulators) and the shuffle stream persist
across refresh rounds, mirroring a long-running production trainer rather
than a cold restart per day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.dataset import DataLoader
from ..models.base import BaseCTRModel
from ..nn import BCELoss
from ..serving.replay import ReplayBuffer
from .config import TrainConfig
from .trainer import build_optimizer, train_step

__all__ = ["OnlineTrainConfig", "IncrementalResult", "IncrementalTrainer"]

#: Floor of the refresh-over-refresh decayed learning rate.
_MIN_LEARNING_RATE = 1e-4
#: Global gradient-norm clip of every refresh step (the offline default).
_GRADIENT_CLIP_NORM = 5.0


@dataclass
class OnlineTrainConfig:
    """Knobs of the daily-update recipe.

    ``replay_window`` bounds how many of the newest logged impressions each
    refresh consumes; ``lr_decay`` multiplies the learning rate after every
    refresh round (floored at 1e-4), the online analogue of the offline
    schedule's tail.  ``passes_per_refresh`` is the number of epochs over the
    window — kept low because online data is replayed, not i.i.d. resampled.
    Every refresh steps plain Adagrad on shuffled batches with the offline
    gradient clip.
    """

    batch_size: int = 256
    passes_per_refresh: int = 1
    replay_window: Optional[int] = None      # impressions; None = whole buffer
    learning_rate: float = 0.02
    lr_decay: float = 0.9
    seed: int = 0
    #: Refreshing off almost no data mostly adds variance; below this many
    #: logged impressions a refresh is a no-op.
    min_impressions: int = 8

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.passes_per_refresh <= 0:
            raise ValueError("passes_per_refresh must be positive")
        if self.replay_window is not None and self.replay_window <= 0:
            raise ValueError("replay_window must be None or positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")

    def base_train_config(self) -> TrainConfig:
        """The equivalent offline :class:`TrainConfig`: plain Adagrad
        (``adagrad_decay=1.0``) and no warm-up online."""
        return TrainConfig(
            epochs=1,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            use_warmup=False,
            adagrad_decay=1.0,
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
        return max(decayed, _MIN_LEARNING_RATE)

    def refresh(self, replay: ReplayBuffer) -> IncrementalResult:
        """Run one refresh round over the newest replay window.

        Returns a skipped (zero-step) result when the window holds fewer than
        ``min_impressions`` exposures or no candidate row at all; the model
        is untouched in that case.
        """
        cfg = self.config
        impressions = len(replay)
        if cfg.replay_window is not None:
            impressions = min(impressions, cfg.replay_window)
        result = IncrementalResult(
            round_index=self.rounds_completed + 1,
            steps=0, rows=0, impressions=impressions,
            learning_rate=self.learning_rate,
        )
        if impressions == 0 or impressions < cfg.min_impressions:
            return result
        window = replay.window(impressions)
        if not len(window):
            return result

        result.rows = len(window)
        self.optimizer.lr = result.learning_rate
        # The trainer's generator is the loader's (``default_rng`` returns a
        # generator it is given), so the shuffle stream runs on across rounds.
        loader = DataLoader(window, batch_size=cfg.batch_size, shuffle=True, seed=self._rng)
        was_training = self.model.training
        self.model.train()
        try:
            for _ in range(cfg.passes_per_refresh):
                for batch in loader:
                    result.step_losses.append(train_step(
                        self.model, batch, self.loss_fn, self.optimizer, _GRADIENT_CLIP_NORM,
                    ))
                    result.steps += 1
                    self.total_steps += 1
        finally:
            self.model.train(was_training)
            self.model.weights_changed()

        self.rounds_completed += 1
        return result
