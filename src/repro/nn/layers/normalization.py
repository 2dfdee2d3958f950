"""Batch and layer normalisation.

BatchNorm is central to the paper: the Spatiotemporal Adaptive Bias Tower
modulates the learnable ``gamma`` / ``beta`` of each BN layer with
context-generated offsets (paper Eq. 14-17).  The implementation therefore
exposes the normalised activations and the raw parameters so that
:class:`repro.models.basm.stabt.FusionLayer` can re-use them.
"""

from __future__ import annotations

import numpy as np

from .. import init
from ..module import Module
from ..parameter import Parameter
from ..tensor import Tensor

__all__ = ["BatchNorm1d", "LayerNorm"]


class BatchNorm1d(Module):
    """Standard batch normalisation over the feature axis of a 2-D input."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def normalise(self, x: Tensor) -> Tensor:
        """Return ``(x - mu) / sqrt(var + eps)`` without applying gamma/beta.

        During training batch statistics are used (and differentiated through,
        as in standard batch normalisation) while the running statistics are
        updated for evaluation time.  Exposed separately so Fusion BN can
        apply modulated affine parameters.  An ndarray ``x`` gives an ndarray.
        """
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm1d expected (batch, {self.num_features}), got {x.shape}")
        if self.effective_training:
            mean = x.mean(axis=0, keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=0, keepdims=True)
            mean_data, var_data = (s.data if isinstance(s, Tensor) else s for s in (mean, var))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean_data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var_data.reshape(-1)
            )
            return centred * ((var + self.eps) ** -0.5)
        centred = x - np.asarray(self.running_mean, dtype=np.float32)
        return centred * np.asarray(1.0 / np.sqrt(self.running_var + self.eps), dtype=np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return self.normalise(x) * self.gamma.matching(x) + self.beta.matching(x)

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class LayerNorm(Module):
    """Layer normalisation over the last axis; used inside attention blocks."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) * ((var + self.eps) ** -0.5)
        return normalised * self.gamma + self.beta

    def __repr__(self) -> str:
        return f"LayerNorm({self.num_features})"
