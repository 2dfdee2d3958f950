"""Fully connected layer.

``Linear.forward`` is the layer's one numerics definition — under ``no_grad``
it is also the inference kernel.  ``partial`` is beside it because its
*algorithm* differs (a column block of the weight, no bias); both go through
the same batch-size-invariant product, :func:`_product`.  An ndarray input
computes on the parameters' ``data`` and gets an ndarray back.

The product wants the weight transposed and contiguous, and makes that copy
on every call — right for training, which writes the weight between calls,
and a fixed cost a one-request score pays per layer.  A serving caller that
*knows* the weights are frozen (one model version, see
``BaseCTRModel.score_two_tower``) builds the copies once with
:func:`transposed_weights` and scopes them to its thread with
:class:`frozen_weights`.  The copies are deliberately not cached on the layer:
nothing tells a ``Linear`` that its weight was written in place (gradcheck
perturbs weights under ``no_grad``), whereas a model version already has an
invalidation protocol, and the store lives and dies by it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module
from ..parameter import Parameter
from ..tensor import Tensor

__all__ = ["Linear", "frozen_weights", "transposed_weights"]

# Per-thread, like ``no_grad``: the store of the model version this thread is
# scoring; unset everywhere else, so training, ``predict`` and gradcheck on
# the same thread or another never read a frozen copy.
_FROZEN = threading.local()


class frozen_weights:
    """Context manager: on this thread, products read ``store``'s transposes.

    ``store`` is :func:`transposed_weights` of the module being run.  Keyed
    by the ``Parameter`` object, so a weight the store does not hold (another
    model instance) is transposed per call as usual — slower, never wrong.
    """

    def __init__(self, store: Dict[Parameter, np.ndarray]) -> None:
        self.store = store

    def __enter__(self) -> "frozen_weights":
        self._previous = getattr(_FROZEN, "store", None)
        _FROZEN.store = self.store
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _FROZEN.store = self._previous


def transposed_weights(module: Module) -> Dict[Parameter, np.ndarray]:
    """``ascontiguousarray(W.T)`` for every ``Linear`` under ``module``.

    Exactly the array :func:`_product` builds per call; its row block
    ``[start:stop]`` is, byte for byte and stride for stride, the contiguous
    transpose of the column block ``W[:, start:stop]``, so one copy per layer
    serves ``forward`` and every ``partial``.  One-column outputs are left
    out: their product takes no transpose.
    """
    return {
        layer.weight: np.ascontiguousarray(layer.weight.data.T)
        for layer in module.modules()
        if isinstance(layer, Linear) and layer.out_features > 1
    }


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    Weights are stored as ``(out_features, in_features)``; inputs may have any
    number of leading batch dimensions.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        weight_init: str = "xavier_uniform",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        initialiser = getattr(init, weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initialiser((out_features, in_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got input shape {x.shape}"
            )
        out = _product(x, self.weight, None)
        if self.bias is not None:
            out = out + self.bias.matching(x)
        return out

    def partial(self, x: Tensor, start: int, stop: int) -> Tensor:
        """Column-block partial product ``x @ W[:, start:stop]^T`` (no bias).

        The split-forward primitive: an affine map over a concatenation
        ``[a, b, c]`` is the sum of its column-block products plus the bias,
        so a first layer can be evaluated as *partial contributions* — some
        precomputed per item, some computed once per request or sequence, some
        per candidate row (``repro.models.two_tower``, ``DINLocalActivationUnit``).
        ``x`` holds only the ``stop - start`` input columns of the block;
        summing the partials of a full column partition plus the bias equals
        :meth:`forward` up to float re-association.
        """
        if not (0 <= start < stop <= self.in_features):
            raise ValueError(f"invalid column slice [{start}:{stop}] for in_features={self.in_features}")
        if x.shape[-1] != stop - start:
            raise ValueError(f"Linear expected last dim {stop - start} for column block "
                             f"[{start}:{stop}], got input shape {x.shape}")
        return _product(x, self.weight, (start, stop))

    @staticmethod
    def stacked_transpose(layers: Sequence["Linear"]) -> np.ndarray:
        """The layers' weights stacked along the output, transposed contiguous."""
        return np.ascontiguousarray(np.concatenate([layer.weight.data for layer in layers]).T)

    @staticmethod
    def stacked(x: np.ndarray, layers: Sequence["Linear"],
                weight_t: Optional[np.ndarray] = None) -> np.ndarray:
        """Every ``layer(x)`` side by side from one product over ``weight_t``
        (:meth:`stacked_transpose`; built per call when ``None``, same bytes)."""
        weight_t = Linear.stacked_transpose(layers) if weight_t is None else weight_t
        return _lifted(x, weight_t) + np.concatenate([layer.bias.data for layer in layers])

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


def _product(x: Tensor, weight: Parameter, columns: Optional[Tuple[int, int]]) -> Tensor:
    """``x @ weight[:, columns]^T`` through kernels whose rounding ignores
    the batch size (``columns=None``: the whole map).

    Scores must not drift with micro-batch composition (the response cache
    and the cluster's byte parity rest on it), so the two BLAS shapes that
    dispatch on the row count ``M`` are routed around — for the full map and
    for every column-block partial alike.
    """
    store = getattr(_FROZEN, "store", None)
    frozen = store.get(weight) if store is not None else None
    if frozen is not None:
        weight_t = frozen if columns is None else frozen[columns[0]:columns[1]]
    else:
        block = weight.matching(x)
        block = block if columns is None else block[:, columns[0]:columns[1]]
        if block.shape[0] == 1:
            # (M, K) @ (K, 1) goes through gemv kernels whose rounding depends
            # on M; multiply + pairwise-sum only depends on K.
            return (x * block.reshape(-1)).sum(axis=-1, keepdims=True)
        taped = isinstance(block, Tensor)
        weight_t = block.transpose().contiguous() if taped else np.ascontiguousarray(block.T)
    return _lifted(x, weight_t)


def _lifted(x, weight_t):
    if x.ndim == 2 and x.shape[0] == 1:
        # (1, K) @ (K, N) hits an M-dependent gemv kernel; lift to M=2 (gemm
        # rows are batch-size-invariant for M >= 2) and keep the first row,
        # so a single-row batch scores identically to the same row inside a
        # large micro-batch.
        return (F.concat([x, x], axis=0) @ weight_t)[0:1]
    return x @ weight_t
