"""Attention blocks.

Two flavours are needed by the reproduction:

* :class:`ScaledDotProductAttention` / :class:`MultiHeadTargetAttention` — the
  "Multi-head Target Attention" block in BASM's architecture diagram (Fig. 3)
  and in the DIN-style base model: the candidate item attends over the user
  behaviour sequence.
* :class:`MultiHeadSelfAttention` — the interacting layer used by AutoInt.
* :class:`DINLocalActivationUnit` — DIN's original local activation unit,
  which scores each behaviour with a small MLP over
  ``[behaviour, target, behaviour - target, behaviour * target]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor
from .linear import Linear
from .mlp import MLP

__all__ = [
    "ScaledDotProductAttention",
    "MultiHeadTargetAttention",
    "MultiHeadSelfAttention",
    "DINLocalActivationUnit",
]


class ScaledDotProductAttention(Module):
    """``softmax(Q K^T / sqrt(d)) V`` with an optional key padding mask."""

    def forward(self, query: Tensor, key: Tensor, value: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        d_k = query.shape[-1]
        scores = query @ key.swapaxes(-1, -2) * (1.0 / np.sqrt(d_k))
        if mask is not None:
            # mask: (batch, seq) of 1 for valid keys; broadcast over query axis.
            mask = np.asarray(mask, dtype=np.float32)
            while mask.ndim < scores.ndim:
                mask = np.expand_dims(mask, axis=1)
            weights = F.masked_softmax(scores, np.broadcast_to(mask, scores.shape), axis=-1)
        else:
            weights = scores.softmax(axis=-1)
        return weights @ value


class MultiHeadTargetAttention(Module):
    """Candidate-item-as-query attention over the behaviour sequence.

    Inputs:
      * ``target``: ``(batch, dim)`` — candidate item representation.
      * ``sequence``: ``(batch, seq_len, dim)`` — behaviour embeddings.
      * ``mask``: ``(batch, seq_len)`` — 1 for real behaviours, 0 for padding.

    Output: ``(batch, dim)`` pooled user-interest representation.

    Serving batches stack many candidates that share one user's behaviour
    sequence; passing ``row_map`` (``(batch,)`` ints into a deduplicated
    ``sequence`` of shape ``(unique, seq_len, dim)``) lets the key/value
    projections run once per unique sequence and be gathered per row — the
    user-tower factorisation production rankers use.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng=rng)
        self.key_proj = Linear(dim, dim, rng=rng)
        self.value_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.attention = ScaledDotProductAttention()

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, target: Tensor, sequence: Tensor, mask: Optional[np.ndarray] = None,
                row_map: Optional[np.ndarray] = None) -> Tensor:
        unique, seq_len, dim = sequence.shape
        if dim != self.dim:
            raise ValueError(f"sequence dim {dim} does not match attention dim {self.dim}")
        batch = len(target) if row_map is not None else unique
        query = self.query_proj(target).reshape(batch, 1, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
        key = self._split_heads(self.key_proj(sequence), unique, seq_len)
        value = self._split_heads(self.value_proj(sequence), unique, seq_len)
        if row_map is not None:
            row_map = np.asarray(row_map, dtype=np.int64)
            key = key[row_map]
            value = value[row_map]
            mask = None if mask is None else np.asarray(mask)[row_map]
        attended = self.attention(query, key, value, mask=mask)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, self.dim)
        return self.out_proj(merged)

    # ------------------------------------------------------------------ #
    def infer(self, target: np.ndarray, sequence: np.ndarray,
              mask: Optional[np.ndarray] = None,
              row_map: Optional[np.ndarray] = None) -> np.ndarray:
        """Pooling for the serving fast path: a different *algorithm*.

        Same contract as :meth:`forward` with raw arrays, called under
        ``no_grad``: ``sequence`` holds one row per *unique* behaviour
        sequence and ``row_map`` scatters the per-sequence key/value
        projections onto the candidate rows.  The four projections are the
        layers' own ``forward``; what differs is the contraction, shaped per
        request (below), which keeps fused scores within float
        re-association of :meth:`forward`.
        """
        unique, seq_len, dim = sequence.shape
        if dim != self.dim:
            raise ValueError(f"sequence dim {dim} does not match attention dim {self.dim}")
        batch = len(target) if row_map is not None else unique
        # Keys/values are projected once per unique sequence and contracted
        # against the per-candidate queries in request-sized GEMMs.  The
        # tensor path's one-query-row-per-candidate batched matmul degrades
        # to thousands of M=1 GEMV dispatches at serving batch sizes; here
        # every contraction's shape — (candidates, head_dim) x (head_dim,
        # seq_len) — is a property of the *request alone*, so the kernel a
        # request hits (and therefore its bytes) cannot change with
        # micro-batch packing.  Relative to the tensor path only the
        # head_dim reduction reassociates — within the fused 1e-6 band.
        query = self.query_proj(Tensor(target)).data.reshape(batch, self.num_heads, self.head_dim)
        key = self.key_proj(Tensor(sequence)).data.reshape(
            unique, seq_len, self.num_heads, self.head_dim)
        value = self.value_proj(Tensor(sequence)).data.reshape(
            unique, seq_len, self.num_heads, self.head_dim)
        scale = np.float32(1.0 / np.sqrt(self.head_dim))
        grouped = None
        if row_map is not None:
            row_map = np.asarray(row_map, dtype=np.int64)
            mask = None if mask is None else np.asarray(mask)[row_map]
            counts = np.bincount(row_map, minlength=unique)
            grouped = counts if np.array_equal(
                np.repeat(np.arange(unique), counts), row_map
            ) else None
        if grouped is None and row_map is not None:
            # Arbitrary row_map layout: per-row einsum (fixed reduction order
            # per row, still composition-invariant, just slower).
            scores = np.einsum("nhd,nshd->nhs", query, key[row_map]) * scale
        elif grouped is not None and grouped.min() == grouped.max():
            # The serving layout: each request's candidate rows contiguous,
            # uniform candidate counts — one stacked (U, heads) batch of
            # per-request GEMMs.
            per = int(grouped[0])
            stacked = query.reshape(unique, per, self.num_heads, self.head_dim)
            scores = (
                (stacked.transpose(0, 2, 1, 3) @ key.transpose(0, 2, 3, 1))
                .transpose(0, 2, 1, 3).reshape(batch, self.num_heads, seq_len)
            ) * scale
        elif grouped is not None:
            # Ragged candidate counts: same per-request GEMM shapes, looped.
            blocks, offset = [], 0
            for index, count in enumerate(grouped):
                rows = query[offset:offset + count].transpose(1, 0, 2)
                blocks.append((rows @ key[index].transpose(1, 2, 0)).transpose(1, 0, 2))
                offset += count
            scores = np.concatenate(blocks, axis=0) * scale
        else:
            scores = np.einsum("nhd,nshd->nhs", query, key) * scale
        if mask is not None:
            fill = ((1.0 - np.asarray(mask, dtype=np.float32)) * -1e9)[:, None, :]
            scores = scores + fill
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        weights = exp / exp.sum(axis=-1, keepdims=True)
        if grouped is not None and grouped.min() == grouped.max():
            per = int(grouped[0])
            stacked = weights.reshape(unique, per, self.num_heads, seq_len)
            merged = (
                (stacked.transpose(0, 2, 1, 3) @ value.transpose(0, 2, 1, 3))
                .transpose(0, 2, 1, 3).reshape(batch, self.dim)
            )
        elif grouped is not None:
            blocks, offset = [], 0
            for index, count in enumerate(grouped):
                rows = weights[offset:offset + count].transpose(1, 0, 2)
                blocks.append((rows @ value[index].transpose(1, 0, 2)).transpose(1, 0, 2))
                offset += count
            merged = np.concatenate(blocks, axis=0).reshape(batch, self.dim)
        elif row_map is not None:
            merged = np.einsum("nhs,nshd->nhd", weights, value[row_map]).reshape(batch, self.dim)
        else:
            merged = np.einsum("nhs,nshd->nhd", weights, value).reshape(batch, self.dim)
        return self.out_proj(Tensor(merged)).data


class MultiHeadSelfAttention(Module):
    """Self-attention over feature fields — the interacting layer of AutoInt."""

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        use_residual: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.use_residual = use_residual
        self.query_proj = Linear(dim, dim, bias=False, rng=rng)
        self.key_proj = Linear(dim, dim, bias=False, rng=rng)
        self.value_proj = Linear(dim, dim, bias=False, rng=rng)
        self.residual_proj = Linear(dim, dim, bias=False, rng=rng)
        self.attention = ScaledDotProductAttention()

    def forward(self, fields: Tensor) -> Tensor:
        batch, num_fields, dim = fields.shape
        reshape = lambda x: x.reshape(batch, num_fields, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
        query = reshape(self.query_proj(fields))
        key = reshape(self.key_proj(fields))
        value = reshape(self.value_proj(fields))
        attended = self.attention(query, key, value)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, num_fields, dim)
        if self.use_residual:
            merged = merged + self.residual_proj(fields)
        return merged.relu()


class DINLocalActivationUnit(Module):
    """DIN's local activation unit producing per-behaviour relevance weights."""

    def __init__(self, dim: int, hidden_units=(64, 32), rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.scorer = MLP(4 * dim, list(hidden_units) + [1], activation="sigmoid",
                          final_activation=False, rng=rng)

    def forward(self, target: Tensor, sequence: Tensor, mask: Optional[np.ndarray] = None,
                row_map: Optional[np.ndarray] = None) -> Tensor:
        """Activation-weighted sum of the behaviours, one row per target.

        With ``row_map``, ``sequence``/``mask`` hold one row per *unique*
        behaviour sequence and are gathered onto the target rows first.
        Unlike target attention the interaction features depend on the
        target, so the scorer MLP still runs per (row, behaviour) pair — only
        the gather is deduplicated.
        """
        if row_map is not None:
            row_map = np.asarray(row_map, dtype=np.int64)
            sequence = sequence[row_map]
            mask = None if mask is None else np.asarray(mask)[row_map]
        batch, seq_len, dim = sequence.shape
        target_expanded = target.reshape(batch, 1, dim) * Tensor(np.ones((1, seq_len, 1), dtype=np.float32))
        interaction = Tensor.concat(
            [sequence, target_expanded, sequence - target_expanded, sequence * target_expanded],
            axis=-1,
        )
        scores = self.scorer(interaction.reshape(batch * seq_len, 4 * dim)).reshape(batch, seq_len)
        if mask is not None:
            scores = scores * Tensor(np.asarray(mask, dtype=np.float32))
        weights = scores.expand_dims(-1)
        pooled = (sequence * weights).sum(axis=1)
        return pooled
