"""BASM: the Bottom-up Adaptive Spatiotemporal Model (paper Section II).

The model stacks the three proposed modules bottom-up:

1. :class:`SpatiotemporalAwareEmbeddingLayer` re-weights each feature field
   according to the spatiotemporal context (bottom, embedding level);
2. :class:`SpatiotemporalSemanticTransformLayer` applies a meta-generated
   linear map — conditioned on the context and the spatiotemporally filtered
   behaviour — to the concatenated raw semantic (middle, semantic level);
3. :class:`SpatiotemporalAdaptiveBiasTower` modulates the classification
   tower's FC and BN parameters with context-generated biases (top, tower
   level).

Each module can be disabled independently, which is how the Table V ablation
(w/o StAEL, w/o StSTL, w/o StABT) is produced.

The model has two definitions.  ``forward`` is the flat one — every row
carries its own copy of the request's context — used for training and
evaluation.  ``_fused_logit`` is the serving one (the two-tower protocol of
:mod:`repro.models.two_tower`): all three modules adapt at *request*
granularity, so over a request-factored batch the user/context embeddings,
their StAEL gates, StSTL's generated map and StABT's modulations are computed
on one row per request and spread over that request's candidates.  The two
agree within float re-association (1e-6, ``tests/serving/test_two_tower.py``).
``_fused_logit`` runs on bare ndarrays from the embedding gathers on, and
StABT's heads are one product over a transpose frozen in ``stacks_t``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ... import nn
from ...features.schema import FeatureSchema, FieldName
from ...nn import Tensor
from ...nn.layers.attention import RequestRows
from ..base import BaseCTRModel, ModelConfig
from ..two_tower import ItemTowerTables, trunk_field_slices
from .stabt import SpatiotemporalAdaptiveBiasTower
from .stael import SpatiotemporalAwareEmbeddingLayer
from .ststl import SpatiotemporalSemanticTransformLayer

__all__ = ["BASM"]

#: Fields a split batch carries once per request; the others vary per candidate.
_REQUEST_FIELDS = (FieldName.USER, FieldName.CONTEXT)


class BASM(BaseCTRModel):
    """Bottom-up Adaptive Spatiotemporal Model."""

    name = "basm"
    supports_two_tower = True

    def __init__(
        self,
        schema: FeatureSchema,
        config: Optional[ModelConfig] = None,
        semantic_dim: int = 64,
        use_stael: bool = True,
        use_ststl: bool = True,
        use_stabt: bool = True,
        use_fusion_fc: bool = True,
        use_fusion_bn: bool = True,
        use_st_filtered_behavior: bool = True,
        gate_scale: float = 2.0,
    ) -> None:
        super().__init__(schema, config)
        rng = np.random.default_rng(self.config.seed + 37)
        self.use_stael = use_stael
        self.use_ststl = use_ststl
        self.use_stabt = use_stabt
        self.use_st_filtered_behavior = use_st_filtered_behavior
        self.gate_scale = gate_scale

        dims = self.embedder.field_dims()
        context_dim = dims[FieldName.CONTEXT]
        behavior_dim = self.config.attention_dim
        raw_semantic_dim = self.embedder.total_dim

        self.stael = SpatiotemporalAwareEmbeddingLayer(dims)
        self.ststl = SpatiotemporalSemanticTransformLayer(
            raw_semantic_dim=raw_semantic_dim,
            context_dim=context_dim,
            behavior_dim=behavior_dim,
            semantic_dim=semantic_dim,
            rng=rng,
        )
        tower_input = semantic_dim if use_ststl else raw_semantic_dim
        if use_stabt:
            self.tower = SpatiotemporalAdaptiveBiasTower(
                tower_input,
                context_dim,
                hidden_units=self.config.tower_units,
                activation=self.config.activation,
                use_fusion_fc=use_fusion_fc,
                use_fusion_bn=use_fusion_bn,
                rng=rng,
            )
            self.static_tower = None
        else:
            self.tower = None
            self.static_tower = nn.MLP(
                tower_input,
                list(self.config.tower_units) + [1],
                activation=self.config.activation,
                use_batchnorm=self.config.use_batchnorm,
                dropout=self.config.dropout,
                final_activation=False,
                rng=rng,
            )

    # ------------------------------------------------------------------ #
    def _field_representations(
        self, batch: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, Tensor], Dict[str, Tensor]]:
        """``(field representations, StAEL alpha per field)``; no alphas without StAEL."""
        fields = self.embedder.field_embeddings(batch)
        if not self.use_stael:
            return fields, {}
        scaled, alphas = self.stael(fields)
        if self.gate_scale != 2.0:
            # Ablation hook: rescale alphas (e.g. plain sigmoid gating).
            rescale = self.gate_scale / 2.0
            scaled = {name: fields[name] * (alphas[name] * rescale) for name in fields}
        return scaled, alphas

    def _semantic(self, batch: Dict[str, np.ndarray], fields: Dict[str, Tensor]) -> Tensor:
        raw_semantic = self.concat_fields(fields)
        if not self.use_ststl:
            return raw_semantic
        mask_key = "behavior_st_mask" if self.use_st_filtered_behavior else "behavior_mask"
        filtered = self.embedder.pool_behavior_mean(batch, mask_key=mask_key)
        return self.ststl(raw_semantic, fields[FieldName.CONTEXT], filtered)

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        fields, _ = self._field_representations(batch)
        semantic = self._semantic(batch, fields)
        if self.use_stabt:
            return self.tower(semantic, fields[FieldName.CONTEXT])
        return self.static_tower(semantic).sigmoid().reshape(-1)

    # ------------------------------------------------------------------ #
    # request-factored serving (see repro.models.two_tower)
    # ------------------------------------------------------------------ #
    def _item_tables(self, item_static_ids: np.ndarray) -> ItemTowerTables:
        """Nothing is frozen per item, only StABT's stacked head transpose.

        BASM's context-independent item partials (item embedding,
        ``target_proj``, the item block of the first linear map) are under
        3 % of a scoring call; a table would still pay its own gathers.
        """
        tower = self.tower
        stacks = {tower: nn.Linear.stacked_transpose(tower.heads())} if tower is not None else {}
        return ItemTowerTables(self.serving_uid, static_cols=0, tables={}, stacks_t=stacks)

    def _fused_logit(self, split_batch: Dict[str, np.ndarray],
                     tables: ItemTowerTables) -> np.ndarray:
        """``forward``'s logit over a request-factored batch (``encode_split``).

        Whatever depends on the request alone is computed on one row per
        request and reaches that request's candidate rows through
        :class:`RequestRows`; see the module docstring.
        """
        embedder = self.embedder
        rows = RequestRows(split_batch["behavior_row_map"], len(split_batch["behavior_unique"]))
        # The request behind each behaviour slot (a request without
        # candidates has rows in ``user_rows`` / ``context_rows`` but no slot).
        owners = split_batch["row_map"][np.cumsum(rows.counts) - rows.counts]

        def embed(ids: np.ndarray) -> np.ndarray:
            return embedder.embed_flat_field(ids).data

        sequence = embedder.embed_sequence(split_batch["behavior_unique"]).data
        sequence = embedder.sequence_proj(sequence)
        item = embed(split_batch["item_field"])
        fields = {
            FieldName.USER: embed(split_batch["user_rows"][owners]),
            FieldName.USER_BEHAVIOR: embedder.target_attention(
                embedder.target_proj(item), sequence,
                mask=split_batch["behavior_mask_unique"], row_map=rows.slot,
            ),
            FieldName.CANDIDATE_ITEM: item,
            FieldName.CONTEXT: embed(split_batch["context_rows"][owners]),
            FieldName.COMBINE: embed(split_batch["combine_ids"]),
        }
        if self.use_stael:
            alphas = self.stael.request_alphas(fields, _REQUEST_FIELDS, rows)
            if self.gate_scale != 2.0:
                rescale = np.float32(self.gate_scale / 2.0)
                alphas = {name: alpha * rescale for name, alpha in alphas.items()}
            fields = {name: x_j * alphas[name] for name, x_j in fields.items()}
        context = fields[FieldName.CONTEXT]

        # The first linear map over the field concat, as column-block
        # partials: the user/context blocks once per request, the rest per row.
        if self.use_ststl:
            first = self.ststl.input_proj
        elif self.use_stabt:
            first = self.tower.layers[0].linear
        else:
            first = self.static_tower.linears[0]
        per_request, per_row = first.bias.data, 0.0
        for name, (start, stop) in trunk_field_slices(self).items():
            partial = first.partial(fields[name], start, stop)
            if name in _REQUEST_FIELDS:
                per_request = per_request + partial
            else:
                per_row = per_row + partial
        hidden = rows.add(per_row, per_request)

        if self.use_ststl:
            mask_key = "behavior_st_mask" if self.use_st_filtered_behavior else "behavior_mask"
            filtered = nn.functional.masked_mean(
                sequence, split_batch[mask_key + "_unique"], axis=1)
            weight, bias = self.ststl.generated(context, filtered)
            hidden = rows.add(rows.matmul(hidden, weight), bias)
        if not self.use_stabt:
            tower = self.static_tower
            return tower(hidden) if self.use_ststl else tower.tail(hidden)
        heads = self.tower.context_heads(context, tables.stacks_t)
        for index, layer in enumerate(self.tower.layers):
            if index or self.use_ststl:  # else ``hidden`` is already layer 0's projection
                hidden = layer.linear(hidden)
            hidden = layer.activation(layer.modulate(hidden, heads[index], rows))
        return self.tower.output(hidden)

    # ------------------------------------------------------------------ #
    def final_representation(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Hidden representation before the logit (for the t-SNE figures)."""
        with nn.no_grad(), nn.inference_mode():
            fields, _ = self._field_representations(batch)
            semantic = self._semantic(batch, fields)
            if self.use_stabt:
                hidden = self.tower.hidden_representation(semantic, fields[FieldName.CONTEXT])
            else:
                hidden = semantic
        return np.array(hidden.data)

    def spatiotemporal_weights(self, batch: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Per-sample StAEL alpha for each field (drives the Fig. 8/9 heatmaps)."""
        with nn.no_grad(), nn.inference_mode():
            _, alphas = self._field_representations(batch)
        return {name: np.array(alpha.data).reshape(-1) for name, alpha in alphas.items()}
