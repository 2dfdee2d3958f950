"""Embedding table mapping sparse feature ids to dense vectors (paper Eq. 3-4)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import init
from ..module import Module
from ..parameter import Parameter
from ..tensor import Tensor

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table ``E in R^{N x D}`` projecting one-hot ids to dense vectors.

    In the paper every discrete feature is one-hot encoded and multiplied by a
    shared embedding matrix (Eq. 3-4); a gather is the equivalent, efficient
    implementation.  Index 0 is conventionally reserved for padding / unknown
    values by the feature encoders in :mod:`repro.features`.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.01,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("num_embeddings and embedding_dim must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        weight = init.normal((num_embeddings, embedding_dim), rng, std=std)
        self.weight = Parameter(weight, name="embedding")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding indices out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.take_rows(indices)

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"
