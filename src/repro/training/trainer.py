"""Mini-batch trainer for all CTR models."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


from ..data.dataset import DataLoader
from ..data.encoding import EncodedDataset
from ..metrics.report import MetricReport
from ..models.base import BaseCTRModel
from ..nn import BCELoss
from ..nn.optim import SGD, Adagrad, AdagradDecay, Adam, LinearWarmup
from .config import TrainConfig
from .evaluator import evaluate_model

__all__ = ["TrainResult", "Trainer", "build_optimizer"]


def build_optimizer(model: BaseCTRModel, config: TrainConfig):
    """Build the paper-recipe optimizer (+ optional warm-up scheduler).

    Shared by the offline :class:`Trainer` and the online
    :class:`repro.training.incremental.IncrementalTrainer`, so both phases of
    the lifecycle run the identical optimisation stack.
    """
    parameters = model.parameters()
    if config.optimizer == "adagrad_decay":
        optimizer = AdagradDecay(parameters, lr=config.learning_rate,
                                 decay=config.adagrad_decay)
    elif config.optimizer == "adagrad":
        optimizer = Adagrad(parameters, lr=config.learning_rate)
    elif config.optimizer == "adam":
        optimizer = Adam(parameters, lr=config.learning_rate)
    else:
        optimizer = SGD(parameters, lr=config.learning_rate)
    scheduler = None
    if config.use_warmup:
        scheduler = LinearWarmup(
            optimizer,
            start_lr=config.warmup_start_lr,
            end_lr=config.warmup_peak_lr,
            warmup_steps=config.warmup_steps,
        )
    return optimizer, scheduler


@dataclass
class TrainResult:
    """What one training run produced."""

    model: BaseCTRModel
    epoch_losses: List[float]
    step_losses: List[float]
    train_seconds: float
    steps: int
    eval_reports: List[MetricReport] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains a model on an :class:`EncodedDataset` with the paper's recipe."""

    def __init__(self, config: Optional[TrainConfig] = None) -> None:
        self.config = config or TrainConfig()
        self.loss_fn = BCELoss()

    # ------------------------------------------------------------------ #
    def _build_optimizer(self, model: BaseCTRModel):
        return build_optimizer(model, self.config)

    # ------------------------------------------------------------------ #
    def fit(
        self,
        model: BaseCTRModel,
        train_data: EncodedDataset,
        eval_data: Optional[EncodedDataset] = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainResult:
        """Train ``model`` in place and return the training trace."""
        cfg = self.config
        optimizer, scheduler = self._build_optimizer(model)
        loader = DataLoader(
            train_data, batch_size=cfg.batch_size, shuffle=cfg.shuffle, seed=cfg.seed
        )
        model.train()

        epoch_losses: List[float] = []
        step_losses: List[float] = []
        eval_reports: List[MetricReport] = []
        steps = 0
        start = time.perf_counter()
        try:
            for epoch in range(cfg.epochs):
                epoch_loss = 0.0
                epoch_batches = 0
                for batch in loader:
                    predictions = model(batch)
                    loss = self.loss_fn(predictions, batch["labels"])
                    model.zero_grad()
                    loss.backward()
                    if cfg.gradient_clip_norm is not None:
                        optimizer.clip_grad_norm(cfg.gradient_clip_norm)
                    optimizer.step()
                    if scheduler is not None:
                        scheduler.step()

                    value = float(loss.item())
                    step_losses.append(value)
                    epoch_loss += value
                    epoch_batches += 1
                    steps += 1
                    if callback is not None:
                        callback(steps, value)
                    if cfg.log_every and steps % cfg.log_every == 0:
                        print(f"[{model.name}] step {steps}: "
                              f"loss={value:.4f} lr={optimizer.lr:.4f}")
                epoch_losses.append(epoch_loss / max(epoch_batches, 1))
                if cfg.eval_every_epoch and eval_data is not None:
                    eval_reports.append(evaluate_model(model, eval_data, batch_size=cfg.batch_size))
                    model.train()
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
            eval_reports=eval_reports,
        )
