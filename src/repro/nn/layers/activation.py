"""Activation modules: each names one :class:`Tensor` op, defined there once."""

from __future__ import annotations

from ..module import Module
from ..tensor import Tensor

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax", "Identity", "get_activation"]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    """LeakyReLU — the activation used throughout the paper (Section III-A.4)."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Softmax(Module):
    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return x.softmax(axis=self.axis)


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
