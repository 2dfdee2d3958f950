"""Spatiotemporal Semantic Transformation Layer (StSTL) — paper Section II-C.

A meta network consumes the spatiotemporal context embedding ``h_c`` together
with the *spatiotemporally filtered* behaviour embedding ``h_ui`` (behaviours
that match the request's time-period and geohash) and emits a per-sample
weight matrix ``W_stl`` and bias ``b_stl`` (paper Eq. 7-8); the raw
concatenated semantic is then transformed as ``h* = W_stl h + b_stl``
(Eq. 9).

One adaptation for laptop scale: the raw semantic (all concatenated fields) is
first compressed by a static linear layer before the dynamic transformation,
so the generated matrix is ``semantic_dim x semantic_dim`` instead of
``raw_dim x raw_dim``.  This keeps the meta network's output head a few
thousand units wide while preserving the paper's mechanism (an explicitly
generated, spatiotemporally conditioned linear map over the semantic vector).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ... import nn
from ...nn import Tensor

__all__ = ["SpatiotemporalSemanticTransformLayer"]


class SpatiotemporalSemanticTransformLayer(nn.Module):
    """Meta-network-generated linear transformation of the raw semantic."""

    def __init__(
        self,
        raw_semantic_dim: int,
        context_dim: int,
        behavior_dim: int,
        semantic_dim: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.semantic_dim = semantic_dim
        self.input_proj = nn.Linear(raw_semantic_dim, semantic_dim, rng=rng)
        meta_input_dim = context_dim + behavior_dim
        self.weight_generator = nn.Linear(meta_input_dim, semantic_dim * semantic_dim, rng=rng)
        self.bias_generator = nn.Linear(meta_input_dim, semantic_dim, rng=rng)
        # Start the generated map near the identity: the transformation is a
        # no-op at initialisation and learns spatiotemporal distinctions from
        # there (mirrors the stability trick of the paper's warm-up).
        self.weight_generator.weight.data *= 0.05
        self.weight_generator.bias.data += np.eye(semantic_dim, dtype=np.float32).reshape(-1)
        self.bias_generator.weight.data *= 0.05

    @property
    def output_dim(self) -> int:
        return self.semantic_dim

    def generated(self, context: Tensor, filtered_behavior: Tensor) -> Tuple[Tensor, Tensor]:
        """``(W_stl, b_stl)`` per condition row (Eq. 7-8): ``(rows, d, d)``, ``(rows, d)``.

        Both are functions of the spatiotemporal condition alone, so serving
        generates them once per request (``BASM._fused_logit``, on ndarrays).
        """
        condition = nn.functional.concat([context, filtered_behavior], axis=-1)
        weight = self.weight_generator(condition)
        bias = self.bias_generator(condition)
        return weight.reshape(len(condition), self.semantic_dim, self.semantic_dim), bias

    def forward(self, raw_semantic: Tensor, context: Tensor,
                filtered_behavior: Tensor) -> Tensor:
        """Transform the raw semantic under the given spatiotemporal condition."""
        batch = raw_semantic.shape[0]
        compressed = self.input_proj(raw_semantic)
        weight, bias = self.generated(context, filtered_behavior)
        transformed = (compressed.reshape(batch, 1, self.semantic_dim) @ weight).reshape(
            batch, self.semantic_dim
        )
        return transformed + bias
