"""Activation modules: each names one :mod:`repro.nn.functional` op, defined once."""

from __future__ import annotations

from .. import functional as F
from ..module import Module
from ..tensor import Tensor

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax", "Identity", "get_activation"]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    """LeakyReLU — the activation used throughout the paper (Section III-A.4)."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Softmax(Module):
    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, axis=self.axis)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softmax": Softmax,
    "identity": Identity,
    "linear": Identity,
}


def get_activation(name: str) -> Module:
    """Instantiate an activation module from its lowercase name."""
    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}") from exc
