"""Deep Interest Network (Zhou et al., 2018) — static-parameter baseline #2,
plus the target-attention variant used as the paper's online base model."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import nn
from ..features.schema import FeatureSchema, FieldName
from ..nn import Tensor
from .base import BaseCTRModel, ModelConfig
from .two_tower import (
    ItemTowerTables,
    build_common_item_tables,
    fused_common,
    trunk_field_slices,
)

__all__ = ["DIN", "TargetAttentionDIN"]


class DIN(BaseCTRModel):
    """DIN with its original local activation unit over the behaviour sequence.

    The candidate item activates each historical behaviour through a small MLP
    over ``[behaviour, target, behaviour - target, behaviour * target]``; the
    weighted sum replaces the attention pooling of the shared embedder — one
    ``forward``, a sequence per row here and per request in ``_fused_logit``.
    """

    name = "din"
    supports_two_tower = True

    def __init__(self, schema: FeatureSchema, config: Optional[ModelConfig] = None) -> None:
        super().__init__(schema, config)
        rng = np.random.default_rng(self.config.seed + 13)
        self.activation_unit = nn.DINLocalActivationUnit(self.config.attention_dim, rng=rng)
        self.tower = nn.MLP(
            self.input_dim(),
            list(self.config.tower_units) + [1],
            activation=self.config.activation,
            use_batchnorm=self.config.use_batchnorm,
            dropout=self.config.dropout,
            final_activation=False,
            rng=rng,
        )

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        fields: Dict[str, Tensor] = {}
        for field_name, ids in batch["fields"].items():
            fields[field_name] = self.embedder.embed_flat_field(ids)
        sequence = self.embedder.sequence_proj(self.embedder.embed_sequence(batch["behavior"]))
        target = self.embedder.target_proj(fields[FieldName.CANDIDATE_ITEM])
        fields[FieldName.USER_BEHAVIOR] = self.activation_unit(
            target, sequence, mask=batch["behavior_mask"]
        )
        logit = self.tower(self.concat_fields(fields))
        return logit.sigmoid().reshape(-1)

    # ------------------------------------------------------------------ #
    # two-tower split serving (see repro.models.two_tower)
    # ------------------------------------------------------------------ #
    def _item_tables(self, item_static_ids: np.ndarray) -> ItemTowerTables:
        return build_common_item_tables(self, self.tower, item_static_ids)

    def _fused_logit(self, split_batch: Dict[str, np.ndarray],
                     tables: ItemTowerTables) -> np.ndarray:
        z, query, proj_seq = fused_common(self, self.tower, split_batch, tables)
        pooled = self.activation_unit(
            query, proj_seq,
            mask=split_batch["behavior_mask_unique"],
            row_map=split_batch["behavior_row_map"],
        )
        z = z + self.tower.linears[0].partial(
            pooled, *trunk_field_slices(self)[FieldName.USER_BEHAVIOR]
        )
        return self.tower.tail(z)


class TargetAttentionDIN(BaseCTRModel):
    """The paper's online *base model*: a DIN variant built on multi-head
    target attention over the user's recent / short / long behaviour windows.

    Our simulated logs carry a single behaviour sequence, so the three windows
    are the most recent third, the middle third, and the full sequence; each
    is pooled by its own multi-head target attention block, matching the
    "three Multi-head Target Attention modules" description in Section III-E.
    """

    name = "base_din"
    supports_two_tower = True

    def __init__(self, schema: FeatureSchema, config: Optional[ModelConfig] = None) -> None:
        super().__init__(schema, config)
        rng = np.random.default_rng(self.config.seed + 17)
        dim = self.config.attention_dim
        self.realtime_attention = nn.MultiHeadTargetAttention(dim, self.config.attention_heads, rng=rng)
        self.short_attention = nn.MultiHeadTargetAttention(dim, self.config.attention_heads, rng=rng)
        self.long_attention = nn.MultiHeadTargetAttention(dim, self.config.attention_heads, rng=rng)
        # The behaviour field is now three pooled vectors instead of one.
        input_dim = self.input_dim() + 2 * dim
        self.tower = nn.MLP(
            input_dim,
            list(self.config.tower_units) + [1],
            activation=self.config.activation,
            use_batchnorm=self.config.use_batchnorm,
            dropout=self.config.dropout,
            final_activation=False,
            rng=rng,
        )

    @staticmethod
    def _window_masks(mask: np.ndarray):
        """Split the (padded, oldest-first) sequence into long/short/realtime windows."""
        length = mask.shape[1]
        long_mask = mask
        short_mask = mask.copy()
        short_mask[:, : length // 3] = 0.0
        realtime_mask = mask.copy()
        realtime_mask[:, : 2 * length // 3] = 0.0
        return long_mask, short_mask, realtime_mask

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        fields: Dict[str, Tensor] = {}
        for field_name, ids in batch["fields"].items():
            fields[field_name] = self.embedder.embed_flat_field(ids)
        sequence = self.embedder.sequence_proj(self.embedder.embed_sequence(batch["behavior"]))
        target = self.embedder.target_proj(fields[FieldName.CANDIDATE_ITEM])
        long_mask, short_mask, realtime_mask = self._window_masks(batch["behavior_mask"])
        long_interest = self.long_attention(target, sequence, mask=long_mask)
        short_interest = self.short_attention(target, sequence, mask=short_mask)
        realtime_interest = self.realtime_attention(target, sequence, mask=realtime_mask)
        fields[FieldName.USER_BEHAVIOR] = long_interest
        trunk = Tensor.concat(
            [self.concat_fields(fields), short_interest, realtime_interest], axis=-1
        )
        logit = self.tower(trunk)
        return logit.sigmoid().reshape(-1)

    # ------------------------------------------------------------------ #
    # two-tower split serving (see repro.models.two_tower)
    # ------------------------------------------------------------------ #
    def _item_tables(self, item_static_ids: np.ndarray) -> ItemTowerTables:
        return build_common_item_tables(self, self.tower, item_static_ids)

    def _fused_logit(self, split_batch: Dict[str, np.ndarray],
                     tables: ItemTowerTables) -> np.ndarray:
        z, query, proj_seq = fused_common(self, self.tower, split_batch, tables)
        # Window masks computed once per unique sequence; the attention
        # gather broadcasts them onto the candidate rows.
        long_mask, short_mask, realtime_mask = self._window_masks(
            split_batch["behavior_mask_unique"]
        )
        slot = split_batch["behavior_row_map"]
        long_interest = self.long_attention(query, proj_seq, mask=long_mask, row_map=slot)
        short_interest = self.short_attention(query, proj_seq, mask=short_mask, row_map=slot)
        realtime_interest = self.realtime_attention(
            query, proj_seq, mask=realtime_mask, row_map=slot
        )
        l1 = self.tower.linears[0]
        z = z + l1.partial(
            long_interest, *trunk_field_slices(self)[FieldName.USER_BEHAVIOR]
        )
        # The two extra pooled vectors are appended after the field concat.
        base = self.embedder.total_dim
        dim = self.config.attention_dim
        z = z + l1.partial(short_interest, base, base + dim)
        z = z + l1.partial(realtime_interest, base + dim, base + 2 * dim)
        return self.tower.tail(z)
