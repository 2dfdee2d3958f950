"""Inverted dropout layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor

__all__ = ["Dropout"]


class Dropout(Module):
    """Randomly zero activations during training, scaled to keep expectation."""

    def __init__(self, rate: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.effective_training or self.rate == 0.0:
            return x
        mask = F.dropout_mask(x.shape, self.rate, self.rng)
        return x * mask

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"
