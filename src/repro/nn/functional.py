"""Functional interface over :class:`repro.nn.Tensor` operations.

These free functions mirror the tensor methods so that layer code can be
written in the style of the paper's equations (e.g. ``F.sigmoid(W @ x + b)``).
A ``Tensor`` runs its method (a tape may record), an ndarray the method's numpy body.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, _leaky_relu, _relu, _sigmoid, _softmax

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "leaky_relu",
    "softmax",
    "concat",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "masked_mean",
    "masked_softmax",
    "dropout_mask",
]


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else _sigmoid(x)


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def relu(x):
    return x.relu() if isinstance(x, Tensor) else _relu(x)


def leaky_relu(x, negative_slope: float = 0.01):
    return x.leaky_relu(negative_slope) if isinstance(x, Tensor) else _leaky_relu(x, negative_slope)


def softmax(x, axis: int = -1):
    return x.softmax(axis=axis) if isinstance(x, Tensor) else _softmax(x, axis)


def concat(tensors: Sequence[Tensor], axis: int = -1):
    join = Tensor.concat if any(isinstance(t, Tensor) for t in tensors) else np.concatenate
    return join(tensors, axis=axis)


def binary_cross_entropy(predictions: Tensor, targets: np.ndarray, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy between probabilities and 0/1 targets (Eq. 19)."""
    targets = np.asarray(targets, dtype=np.float32).reshape(predictions.shape)
    clipped = predictions.clip(eps, 1.0 - eps)
    loss = -(Tensor(targets) * clipped.log() + Tensor(1.0 - targets) * (1.0 - clipped).log())
    return loss.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE applied directly to logits."""
    targets = np.asarray(targets, dtype=np.float32).reshape(logits.shape)
    # log(1 + exp(-|x|)) + max(x, 0) - x * y
    max_part = logits.relu()
    abs_logits = logits.abs()
    softplus = (1.0 + (-abs_logits).exp()).log()
    loss = max_part - logits * Tensor(targets) + softplus
    return loss.mean()


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    targets = np.asarray(targets, dtype=np.float32).reshape(predictions.shape)
    diff = predictions - Tensor(targets)
    return (diff * diff).mean()


def masked_mean(x, mask: np.ndarray, axis: int = 1):
    """Mean over ``axis`` counting only positions where ``mask`` is 1.

    ``x`` has shape ``(batch, seq, dim)`` and ``mask`` ``(batch, seq)`` in the
    common behaviour-sequence pooling case (a ``Tensor`` or an ndarray).
    """
    mask = np.asarray(mask, dtype=np.float32)
    total = (x * np.expand_dims(mask, axis=-1)).sum(axis=axis)
    return total * (1.0 / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0))


def masked_softmax(scores: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns (near-)zero probability to masked-out positions."""
    mask = np.asarray(mask, dtype=np.float32)
    negative_fill = Tensor((1.0 - mask) * -1e9)
    return (scores + negative_fill).softmax(axis=axis)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask scaled by ``1 / (1 - rate)``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(shape) >= rate).astype(np.float32)
    return keep / (1.0 - rate)
