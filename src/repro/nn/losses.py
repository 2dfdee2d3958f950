"""Loss modules used for CTR training."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = ["BCELoss"]


class BCELoss(Module):
    """Binary cross-entropy over predicted click probabilities (paper Eq. 19)."""

    def __init__(self, eps: float = 1e-7) -> None:
        super().__init__()
        self.eps = eps

    def forward(self, predictions: Tensor, targets: np.ndarray) -> Tensor:
        return F.binary_cross_entropy(predictions, targets, eps=self.eps)
