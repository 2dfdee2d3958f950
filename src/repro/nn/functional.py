"""Functional interface over :class:`repro.nn.Tensor` operations.

These free functions let layer code be written in the style of the paper's
equations (e.g. ``F.sigmoid(W @ x + b)``).  The ops are entries of
:data:`repro.nn.tensor.PRIMITIVES`, the same objects as the ``Tensor``
methods: a ``Tensor`` input records on the tape, an ndarray gets the op's
numpy body.
"""

from __future__ import annotations

import numpy as np

from .tensor import PRIMITIVES, Tensor

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "leaky_relu",
    "softmax",
    "concat",
    "binary_cross_entropy",
    "masked_mean",
    "dropout_mask",
]

sigmoid = PRIMITIVES["sigmoid"]
tanh = PRIMITIVES["tanh"]
relu = PRIMITIVES["relu"]
leaky_relu = PRIMITIVES["leaky_relu"]
softmax = PRIMITIVES["softmax"]
concat = PRIMITIVES["concat"]


def binary_cross_entropy(predictions: Tensor, targets: np.ndarray, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy between probabilities and 0/1 targets (Eq. 19)."""
    targets = np.asarray(targets, dtype=np.float32).reshape(predictions.shape)
    clipped = predictions.clip(eps, 1.0 - eps)
    loss = -(Tensor(targets) * clipped.log() + Tensor(1.0 - targets) * (1.0 - clipped).log())
    return loss.mean()


def masked_mean(x, mask: np.ndarray, axis: int = 1):
    """Mean over ``axis`` counting only positions where ``mask`` is 1.

    ``x`` has shape ``(batch, seq, dim)`` and ``mask`` ``(batch, seq)`` in the
    common behaviour-sequence pooling case (a ``Tensor`` or an ndarray).
    """
    mask = np.asarray(mask, dtype=np.float32)
    total = (x * np.expand_dims(mask, axis=-1)).sum(axis=axis)
    return total * (1.0 / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0))


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask scaled by ``1 / (1 - rate)``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(shape) >= rate).astype(np.float32)
    return keep / (1.0 - rate)
