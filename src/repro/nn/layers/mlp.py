"""Multi-layer perceptron block used by every CTR tower in the repo.

``forward`` is the first linear layer followed by :meth:`MLP.tail`; the
two-tower scorer assembles that first layer's output itself and resumes at
``tail`` — the same code either way.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..module import Module, ModuleList
from ..tensor import Tensor
from .activation import get_activation
from .dropout import Dropout
from .linear import Linear
from .normalization import BatchNorm1d

__all__ = ["MLP"]


class MLP(Module):
    """A stack of ``Linear -> (BatchNorm) -> activation -> (Dropout)`` blocks.

    The final layer can optionally skip the activation (``final_activation``)
    which is the common pattern for producing a logit.
    """

    def __init__(
        self,
        in_features: int,
        hidden_units: Sequence[int],
        activation: str = "leaky_relu",
        use_batchnorm: bool = False,
        dropout: float = 0.0,
        final_activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not hidden_units:
            raise ValueError("hidden_units must contain at least one layer size")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.hidden_units = list(hidden_units)
        self.final_activation = final_activation

        self.linears = ModuleList()
        self.norms = ModuleList()
        self.activations = ModuleList()
        self.dropouts = ModuleList()

        previous = in_features
        for width in hidden_units:
            self.linears.append(Linear(previous, width, rng=rng))
            self.norms.append(BatchNorm1d(width) if use_batchnorm else _NoOp())
            self.activations.append(get_activation(activation))
            self.dropouts.append(Dropout(dropout, rng=rng))
            previous = width
        self.use_batchnorm = use_batchnorm
        self.out_features = previous

    def forward(self, x: Tensor) -> Tensor:
        return self.tail(self.linears[0](x))

    def tail(self, x: Tensor) -> Tensor:
        """Everything after the first linear layer.

        ``x`` is that layer's output *including bias*.  A two-tower scorer
        assembles it from precomputed item-side, per-request and per-row
        partial products (``Linear.infer_partial``) and resumes here with the
        remaining row-wise, non-decomposable layers.
        """
        last = len(self.linears) - 1
        for index, (linear, norm, act, drop) in enumerate(
            zip(self.linears, self.norms, self.activations, self.dropouts)
        ):
            if index:
                x = linear(x)
            x = norm(x)
            if index != last or self.final_activation:
                x = act(x)
                x = drop(x)
        return x

    def layer_widths(self) -> List[int]:
        return list(self.hidden_units)


class _NoOp(Module):
    """Placeholder module used when batch normalisation is disabled."""

    def forward(self, x: Tensor) -> Tensor:
        return x
