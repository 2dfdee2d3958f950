"""The learning-rate schedule.

The paper's schedule (Section III-A.4): "The learning rate starts with 0.001
and increases over 1M steps to 0.012" — a linear warm-up.  At reproduction
scale ``TrainConfig`` keeps the same shape over fewer steps.
"""

from __future__ import annotations

from .adagrad import AdagradDecay

__all__ = ["LinearWarmup"]


class LinearWarmup:
    """Linearly increase the learning rate from ``start_lr`` to ``end_lr``
    over ``warmup_steps`` steps, then hold at ``end_lr``.

    Call :meth:`step` once after each optimizer step: it sets the rate the
    *next* step runs at.
    """

    def __init__(self, optimizer: AdagradDecay, start_lr: float, end_lr: float,
                 warmup_steps: int) -> None:
        if warmup_steps <= 0:
            raise ValueError("warmup_steps must be positive")
        self.optimizer = optimizer
        self.current_step = 0
        self.start_lr = start_lr
        self.end_lr = end_lr
        self.warmup_steps = warmup_steps

    def get_lr(self, step: int) -> float:
        if step >= self.warmup_steps:
            return self.end_lr
        fraction = step / self.warmup_steps
        return self.start_lr + fraction * (self.end_lr - self.start_lr)

    def step(self) -> float:
        self.current_step += 1
        lr = self.get_lr(self.current_step)
        self.optimizer.lr = lr
        return lr
