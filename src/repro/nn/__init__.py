"""A minimal numpy-based neural-network framework.

This package replaces the TensorFlow 1.4 substrate used by the paper with a
self-contained reverse-mode autodiff engine plus the layers, losses, and
optimizers needed by BASM and its baseline models.
"""

from . import functional, init, optim
from .losses import BCELoss, BCEWithLogitsLoss, MSELoss
from .layers import (
    BatchNorm1d,
    DINLocalActivationUnit,
    Dropout,
    Embedding,
    Identity,
    LayerNorm,
    LeakyReLU,
    Linear,
    MLP,
    MultiHeadSelfAttention,
    MultiHeadTargetAttention,
    ReLU,
    ScaledDotProductAttention,
    Sigmoid,
    Softmax,
    Tanh,
    frozen_weights,
    get_activation,
    transposed_weights,
)
from .module import Module, ModuleList, Sequential, inference_mode, is_inference
from .parameter import Parameter
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "functional",
    "init",
    "optim",
    "BCELoss",
    "BCEWithLogitsLoss",
    "MSELoss",
    "BatchNorm1d",
    "DINLocalActivationUnit",
    "Dropout",
    "Embedding",
    "Identity",
    "LayerNorm",
    "LeakyReLU",
    "Linear",
    "MLP",
    "MultiHeadSelfAttention",
    "MultiHeadTargetAttention",
    "ReLU",
    "ScaledDotProductAttention",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "frozen_weights",
    "get_activation",
    "transposed_weights",
    "Module",
    "ModuleList",
    "Sequential",
    "inference_mode",
    "is_inference",
    "Parameter",
    "Tensor",
    "is_grad_enabled",
    "no_grad",
]
