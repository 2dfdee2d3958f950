"""Attention blocks.

Two flavours are needed by the reproduction:

* :class:`ScaledDotProductAttention` / :class:`MultiHeadTargetAttention` — the
  "Multi-head Target Attention" block in BASM's architecture diagram (Fig. 3)
  and in the DIN-style base model: the candidate item attends over the user
  behaviour sequence.
* :class:`MultiHeadSelfAttention` — the interacting layer used by AutoInt.
* :class:`DINLocalActivationUnit` — DIN's original local activation unit,
  a small MLP over ``[s, t, s - t, s * t]`` per (target, behaviour) pair, its
  first layer factored per sequence / per row / per pair (no concatenation).

The two target blocks have one ``forward`` each for training and serving:
given a ``row_map`` they pool one behaviour sequence per request over that
request's rows (:class:`RequestRows`), without it one sequence per row.
Like every layer they take ``Tensor``s (a tape may record) or ndarrays.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor, is_grad_enabled
from .linear import Linear
from .mlp import MLP

__all__ = [
    "RequestRows",
    "ScaledDotProductAttention",
    "MultiHeadTargetAttention",
    "MultiHeadSelfAttention",
    "DINLocalActivationUnit",
]

#: (target, behaviour) pairs ``DINLocalActivationUnit`` scores per block: ~2 MB
#: temporaries at 64 hidden units, which malloc recycles instead of mapping anew.
_BLOCK_PAIRS = 8192


class RequestRows:
    """How a batch's rows group into requests (or unique behaviour sequences).

    ``encode_split`` lays each request's rows out contiguously, in request
    order, so ``slot`` (row -> request) is sorted.  A per-request array or
    tensor reaches its rows as a broadcast over a ``(requests, pool, ...)``
    view when every pool has the same size (the serving shape) and as a gather
    when pools are ragged; both are elementwise, so a row's bytes do not
    depend on which one ran.  :meth:`matmul` multiplies each request's rows
    by that request's own matrix in GEMMs shaped by the request alone —
    stacked when uniform, looped when ragged, like
    :class:`MultiHeadTargetAttention`.  Arrays or tensors (taped) alike.
    """

    def __init__(self, slot: np.ndarray, requests: int) -> None:
        self.slot = np.asarray(slot, dtype=np.int64)
        if np.any(self.slot[1:] < self.slot[:-1]):
            raise ValueError("RequestRows needs each request's rows contiguous, in request order")
        self.counts = np.bincount(self.slot, minlength=requests)
        #: candidates per request when all pools are equal, else ``None``.
        self.pool = int(self.counts[0]) if self.counts.min() == self.counts.max() else None

    def _spread(self, op, rows, per_request):
        if self.pool is None:
            return op(rows, per_request[self.slot])
        stacked = rows.reshape((len(self.counts), self.pool) + rows.shape[1:])
        out = op(stacked, per_request[:, None])
        return out.reshape((len(rows),) + out.shape[2:])

    def add(self, rows, per_request):
        """``rows + per_request[request of each row]`` (trailing axes broadcast)."""
        return self._spread(operator.add, rows, per_request)

    def multiply(self, rows, per_request):
        """``rows * per_request[request of each row]`` (trailing axes broadcast)."""
        return self._spread(operator.mul, rows, per_request)

    def matmul(self, rows, matrices):
        """Each request's ``(pool, d)`` rows times its own ``(d, k)`` matrix."""
        if self.pool is not None:
            stacked = rows.reshape(len(self.counts), self.pool, rows.shape[-1])
            return (stacked @ matrices).reshape(len(rows), matrices.shape[-1])
        stops = np.cumsum(self.counts)
        blocks = [rows[stop - count:stop] @ matrices[index]
                  for index, (stop, count) in enumerate(zip(stops, self.counts))]
        return F.concat(blocks, axis=0)


class ScaledDotProductAttention(Module):
    """``softmax(Q K^T / sqrt(d)) V`` over the last two axes."""

    def forward(self, query: Tensor, key: Tensor, value: Tensor) -> Tensor:
        d_k = query.shape[-1]
        scores = query @ key.swapaxes(-1, -2) * (1.0 / np.sqrt(d_k))
        return scores.softmax(axis=-1) @ value


class MultiHeadTargetAttention(Module):
    """Candidate-item-as-query attention over the behaviour sequence.

    Inputs:
      * ``target``: ``(rows, dim)`` — candidate item representation.
      * ``sequence``: ``(unique, seq_len, dim)`` — behaviour embeddings.
      * ``mask``: ``(unique, seq_len)`` — 1 for real behaviours, 0 for padding.
      * ``row_map``: ``(rows,)`` sorted row -> sequence; without it every row
        is its own sequence (``unique == rows``, the training layout).

    Output: ``(rows, dim)`` pooled user-interest representation.

    Serving batches stack many candidates that share one user's behaviour
    sequence; with ``row_map`` the key/value projections run once per unique
    sequence — the user-tower factorisation production rankers use — and
    every contraction, ``(pool, head_dim) x (head_dim, seq_len)`` per head,
    is shaped by one request alone, so the kernel a request hits (and its
    bytes) cannot change with micro-batch packing: one stacked batch of
    GEMMs when pools are uniform, a loop over requests when they are ragged.
    A row alone (the training layout) is a pool of one.
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

    def forward(self, target: Tensor, sequence: Tensor, mask: Optional[np.ndarray] = None,
                row_map: Optional[np.ndarray] = None) -> Tensor:
        unique, seq_len, dim = sequence.shape
        if dim != self.dim:
            raise ValueError(f"sequence dim {dim} does not match attention dim {self.dim}")
        batch = len(target)
        heads = (self.num_heads, self.head_dim)
        key = self.key_proj(sequence).reshape(unique, seq_len, *heads).transpose(0, 2, 3, 1)
        value = self.value_proj(sequence).reshape(unique, seq_len, *heads).transpose(0, 2, 1, 3)
        fill = None
        if mask is not None:
            fill = ((1.0 - np.asarray(mask, dtype=np.float32)) * -1e9)[:, None, None, :]
        rows = None if row_map is None else RequestRows(row_map, unique)
        if rows is None or rows.pool is not None:
            # Uniform pools (a row alone is a pool of one): one stacked batch
            # of (sequence, head) GEMMs over (unique, heads, pool, ·).
            pool = 1 if rows is None else rows.pool
            query = self.query_proj(target).reshape(unique, pool, *heads).transpose(0, 2, 1, 3)
            contract = operator.matmul
        else:
            # Ragged pools: the same per-request GEMMs, looped, over
            # (1, heads, rows, ·); the elementwise steps run once.
            query = self.query_proj(target).reshape(1, batch, *heads).transpose(0, 2, 1, 3)
            stops = np.cumsum(rows.counts)

            def contract(per_row, per_sequence):
                return F.concat([per_row[:, :, stop - count:stop] @ per_sequence[index:index + 1]
                                 for index, (stop, count) in enumerate(zip(stops, rows.counts))],
                                axis=2)

            fill = None if fill is None else fill[rows.slot].reshape(1, 1, batch, seq_len)
        scores = contract(query, key) * np.float32(1.0 / np.sqrt(self.head_dim))
        if fill is not None:
            scores = scores + fill
        merged = contract(F.softmax(scores, axis=-1), value)
        return self.out_proj(merged.transpose(0, 2, 1, 3).reshape(batch, self.dim))


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
    """DIN's local activation unit: behaviours summed by learned relevance.

    A sigmoid MLP scores each (target ``t``, behaviour ``s``) pair on
    ``[s, t, s - t, s * t]``.  Its first layer ``W = [W_s | W_t | W_d | W_p]``
    is evaluated without building that vector, as column-block partials,
    ``(W_s + W_d) s  +  ((W_t - W_d) t + b)  +  W_p (s * t)``: the first term
    once per *sequence*, the second once per target row, only the third (a
    ``K = dim`` product) and ``scorer.tail`` per pair.  With ``row_map``
    (sorted, row -> unique sequence: a serving batch stacks one user's
    candidates) a sequence reaches its rows through :class:`RequestRows` — a
    broadcast when pools are uniform, nothing of rows x seq_len is gathered —
    and the pooling is one ``(pool, seq_len) @ (seq_len, dim)`` GEMM per
    sequence; without it every row is its own sequence (pool 1), same code.
    """

    def __init__(self, dim: int, hidden_units: Sequence[int] = (64, 32),
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.scorer = MLP(4 * dim, list(hidden_units) + [1], activation="sigmoid",
                          final_activation=False, rng=rng)

    def forward(self, target: Tensor, sequence: Tensor, mask: Optional[np.ndarray] = None,
                row_map: Optional[np.ndarray] = None) -> Tensor:
        """``(rows, dim)`` activation-weighted sums; padding (``mask`` 0) weighs 0."""
        unique, seq_len, dim = sequence.shape
        batch = len(target)
        if not dim == target.shape[-1] == self.dim:
            raise ValueError(f"sequence dim {dim} and target dim {target.shape[-1]} "
                             f"must both equal the activation unit's dim {self.dim}")
        if batch == 0:
            return target  # no rows, nothing to pool
        rows = RequestRows(np.arange(unique) if row_map is None else row_map, unique)
        if len(rows.slot) != batch:
            raise ValueError(f"{batch} target rows, but sequences/row_map cover {len(rows.slot)}")
        if mask is not None and np.shape(mask) != (unique, seq_len):
            raise ValueError(f"mask shape {np.shape(mask)}, sequences {(unique, seq_len)}")
        # Whole sequences, about _BLOCK_PAIRS pairs at a time: no product below
        # mixes rows, so the bytes are the same and the temporaries stay small
        # (a tape keeps every temporary alive whatever its size: one block).
        step = unique if is_grad_enabled() else max(
            1, _BLOCK_PAIRS * unique // max(batch * seq_len, 1))
        edges = np.minimum(np.arange(0, unique + step, step), unique)
        starts = np.searchsorted(rows.slot, edges)  # the first row of each block
        return F.concat([
            self._block(target[r0:r1], sequence[u0:u1], None if mask is None else mask[u0:u1],
                        RequestRows(rows.slot[r0:r1] - u0, u1 - u0))
            for u0, u1, r0, r1 in zip(edges[:-1], edges[1:], starts[:-1], starts[1:])], axis=0)

    def _block(self, target: Tensor, sequence: Tensor, mask: Optional[np.ndarray],
               rows: RequestRows) -> Tensor:
        (batch, dim), seq_len = target.shape, sequence.shape[1]
        first = self.scorer.linears[0]
        per_sequence = first.partial(sequence, 0, dim) + first.partial(sequence, 2 * dim, 3 * dim)
        per_row = (first.partial(target, dim, 2 * dim) - first.partial(target, 2 * dim, 3 * dim)
                   + first.bias.matching(target))
        pairs = rows.multiply(target.reshape(batch, 1, dim), sequence)
        per_pair = first.partial(pairs.reshape(batch * seq_len, dim), 3 * dim, 4 * dim)
        hidden = (rows.add(per_pair.reshape(batch, seq_len, -1), per_sequence)
                  + per_row.reshape(batch, 1, -1))
        scores = self.scorer.tail(hidden.reshape(batch * seq_len, -1)).reshape(batch, seq_len)
        if mask is not None:
            scores = rows.multiply(scores, mask)
        return rows.matmul(scores, sequence)
