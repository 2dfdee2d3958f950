"""AdagradDecay, the one optimizer.

The paper trains every model with "AdagradDecay" (Section III-A.4, citing
Duchi et al.'s adaptive subgradient methods), an Adagrad variant used inside
Alibaba's training stack that decays the accumulated squared gradients so the
effective learning rate does not collapse over very long data streams.
``decay=1.0`` is plain Adagrad bit for bit (``x * 1.0 == x``), which is what
the online refresh runs.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..parameter import Parameter

__all__ = ["AdagradDecay"]

_EPS = 1e-10
_INITIAL_ACCUMULATOR = 0.1


class AdagradDecay:
    """Adagrad whose accumulator is exponentially decayed each step.

    ``accumulator <- decay * accumulator + grad**2`` keeps the denominator
    bounded, so the optimizer stays responsive on long streams — the property
    industrial CTR training relies on.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float, decay: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.lr = float(lr)
        self.decay = decay
        self._accumulators = [np.full_like(p.data, _INITIAL_ACCUMULATOR) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm."""
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float(np.sum(param.grad.astype(np.float64) ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm

    def step(self) -> None:
        for param, accumulator in zip(self.parameters, self._accumulators):
            if param.grad is None:
                continue
            accumulator *= self.decay
            accumulator += param.grad ** 2
            param.data -= self.lr * param.grad / (np.sqrt(accumulator) + _EPS)
