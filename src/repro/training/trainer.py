"""Mini-batch trainer for all CTR models: AdagradDecay under a linear warm-up."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..data.dataset import DataLoader
from ..data.encoding import EncodedDataset
from ..models.base import BaseCTRModel
from ..nn import BCELoss
from ..nn.optim import AdagradDecay, LinearWarmup
from .config import TrainConfig

__all__ = ["TrainResult", "Trainer", "build_optimizer", "train_step"]


def build_optimizer(model: BaseCTRModel, config: TrainConfig):
    """Build the paper-recipe optimizer (+ optional warm-up scheduler).

    Shared by the offline :class:`Trainer` and the online
    :class:`repro.training.incremental.IncrementalTrainer`, so both phases of
    the lifecycle run the identical optimisation stack.  The optimizer starts
    at ``learning_rate`` and the warm-up sets the rate after each step, so the
    first step runs at ``learning_rate``, not ``warmup_start_lr``.
    """
    optimizer = AdagradDecay(model.parameters(), lr=config.learning_rate,
                             decay=config.adagrad_decay)
    scheduler = None
    if config.use_warmup:
        scheduler = LinearWarmup(
            optimizer,
            start_lr=config.warmup_start_lr,
            end_lr=config.warmup_peak_lr,
            warmup_steps=config.warmup_steps,
        )
    return optimizer, scheduler


def train_step(model: BaseCTRModel, batch, loss_fn: BCELoss, optimizer,
               gradient_clip_norm: Optional[float]) -> float:
    """One optimisation step on ``batch``; returns the batch loss.

    The step of both the offline :class:`Trainer` and the online
    :class:`repro.training.incremental.IncrementalTrainer`.
    """
    loss = loss_fn(model(batch), batch["labels"])
    model.zero_grad()
    loss.backward()
    if gradient_clip_norm is not None:
        optimizer.clip_grad_norm(gradient_clip_norm)
    optimizer.step()
    return float(loss.item())


@dataclass
class TrainResult:
    """What one training run produced."""

    model: BaseCTRModel
    epoch_losses: List[float]
    step_losses: List[float]
    train_seconds: float
    steps: int

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains a model on an :class:`EncodedDataset` with the paper's recipe."""

    def __init__(self, config: Optional[TrainConfig] = None) -> None:
        self.config = config or TrainConfig()
        self.loss_fn = BCELoss()

    # ------------------------------------------------------------------ #
    def fit(
        self,
        model: BaseCTRModel,
        train_data: EncodedDataset,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainResult:
        """Train ``model`` in place and return the training trace."""
        cfg = self.config
        optimizer, scheduler = build_optimizer(model, cfg)
        loader = DataLoader(
            train_data, batch_size=cfg.batch_size, shuffle=cfg.shuffle, seed=cfg.seed
        )
        model.train()

        epoch_losses: List[float] = []
        step_losses: List[float] = []
        steps = 0
        start = time.perf_counter()
        try:
            for epoch in range(cfg.epochs):
                epoch_loss = 0.0
                epoch_batches = 0
                for batch in loader:
                    value = train_step(model, batch, self.loss_fn, optimizer,
                                       cfg.gradient_clip_norm)
                    if scheduler is not None:
                        scheduler.step()
                    step_losses.append(value)
                    epoch_loss += value
                    epoch_batches += 1
                    steps += 1
                    if callback is not None:
                        callback(steps, value)
                epoch_losses.append(epoch_loss / max(epoch_batches, 1))
        finally:
            # Steps write weights in place: whatever raised, the old uid is stale.
            model.weights_changed()
        elapsed = time.perf_counter() - start

        return TrainResult(
            model=model,
            epoch_losses=epoch_losses,
            step_losses=step_losses,
            train_seconds=elapsed,
            steps=steps,
        )
