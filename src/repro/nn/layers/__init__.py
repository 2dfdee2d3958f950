"""Neural-network layers."""

from .activation import Identity, LeakyReLU, ReLU, Sigmoid, Softmax, Tanh, get_activation
from .attention import (
    DINLocalActivationUnit,
    MultiHeadSelfAttention,
    MultiHeadTargetAttention,
    ScaledDotProductAttention,
)
from .dropout import Dropout
from .embedding import Embedding
from .linear import Linear, frozen_weights, transposed_weights
from .mlp import MLP
from .normalization import BatchNorm1d

__all__ = [
    "Identity",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "get_activation",
    "DINLocalActivationUnit",
    "MultiHeadSelfAttention",
    "MultiHeadTargetAttention",
    "ScaledDotProductAttention",
    "Dropout",
    "Embedding",
    "Linear",
    "frozen_weights",
    "transposed_weights",
    "MLP",
    "BatchNorm1d",
]
