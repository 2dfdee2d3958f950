"""Wide & Deep (Cheng et al., 2016) — static-parameter baseline #1."""

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

__all__ = ["WideDeep"]


class WideDeep(BaseCTRModel):
    """Jointly trained wide (memorisation) and deep (generalisation) parts.

    * Wide part: a learned scalar weight per sparse feature value (a second
      ``(N, 1)`` embedding table summed over the present ids), the standard
      way to express the original cross-product/linear part over our global
      id space.
    * Deep part: an MLP over the concatenated field embeddings with the
      behaviour field pooled by target attention (shared base machinery).
    """

    name = "wide_deep"
    supports_two_tower = True

    def __init__(self, schema: FeatureSchema, config: Optional[ModelConfig] = None) -> None:
        super().__init__(schema, config)
        rng = np.random.default_rng(self.config.seed + 11)
        self.wide_weights = nn.Embedding(schema.total_vocab_size, 1, rng=rng, std=0.001)
        self.deep = nn.MLP(
            self.input_dim(),
            list(self.config.tower_units) + [1],
            activation=self.config.activation,
            use_batchnorm=self.config.use_batchnorm,
            dropout=self.config.dropout,
            final_activation=False,
            rng=rng,
        )

    def _wide_sum(self, ids: np.ndarray) -> Tensor:
        """``(rows, 1)`` sum of the wide weights of each row's ``(rows, k)`` ids."""
        return self.wide_weights(ids).sum(axis=1)

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        fields = self.embedder.field_embeddings(batch)
        deep_logit = self.deep(self.concat_fields(fields))
        all_ids = np.concatenate([ids for ids in batch["fields"].values()], axis=1)
        logit = deep_logit + self._wide_sum(all_ids)
        return logit.sigmoid().reshape(-1)

    # ------------------------------------------------------------------ #
    # two-tower split serving (see repro.models.two_tower)
    # ------------------------------------------------------------------ #
    def _item_tables(self, item_static_ids: np.ndarray) -> ItemTowerTables:
        tables = build_common_item_tables(self, self.deep, item_static_ids)
        # The wide part contributes a frozen per-item scalar too: the sum of
        # the static item features' wide weights.
        tables.tables["wide_item_static"] = self._wide_sum(item_static_ids).data
        return tables

    def _fused_logit(self, split_batch: Dict[str, np.ndarray],
                     tables: ItemTowerTables) -> Tensor:
        cands = split_batch["candidates"]
        row_map = split_batch["row_map"]
        num_static = tables.static_cols // self.config.embedding_dim
        z, query, proj_seq = fused_common(self, self.deep, split_batch, tables)
        pooled = self.embedder.target_attention.infer(
            query, proj_seq,
            mask=split_batch["behavior_mask_unique"],
            row_map=split_batch["behavior_row_map"],
        )
        z = z + self.deep.linears[0].infer_partial(
            pooled, *trunk_field_slices(self)[FieldName.USER_BEHAVIOR]
        )
        deep_logit = self.deep.tail(Tensor(z)).data

        wide = tables.gather("wide_item_static", cands)
        wide = wide + self._wide_sum(split_batch["user_rows"]).data[row_map]
        wide = wide + self._wide_sum(split_batch["context_rows"]).data[row_map]
        wide = wide + self._wide_sum(split_batch["item_field"][:, num_static:]).data
        wide = wide + self._wide_sum(split_batch["combine_ids"]).data
        return Tensor(deep_logit + wide)
