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
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ... import nn
from ...features.schema import FeatureSchema, FieldName
from ...nn import Tensor
from ..base import BaseCTRModel, ModelConfig
from .stabt import SpatiotemporalAdaptiveBiasTower
from .stael import SpatiotemporalAwareEmbeddingLayer
from .ststl import SpatiotemporalSemanticTransformLayer

__all__ = ["BASM"]


class BASM(BaseCTRModel):
    """Bottom-up Adaptive Spatiotemporal Model."""

    name = "basm"

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

    def _request_dedup(self, batch: Dict[str, np.ndarray], fields: Dict[str, Tensor]):
        """``(row_map, per-request context)`` for serving batches, else ``(None, None)``.

        Serving batches from ``OnlineRequestEncoder.encode_many`` mark which
        rows belong to the same request; the context field (and everything
        generated from it) is identical across a request's candidate rows, so
        the context-conditioned meta networks can run once per request.
        """
        row_map = batch.get("behavior_row_map")
        if row_map is None:
            return None, None
        row_map = np.asarray(row_map, dtype=np.int64)
        first_rows = np.unique(row_map, return_index=True)[1]
        return row_map, fields[FieldName.CONTEXT][first_rows]

    def _semantic(
        self,
        batch: Dict[str, np.ndarray],
        fields: Dict[str, Tensor],
        row_map: Optional[np.ndarray] = None,
        context_unique: Optional[Tensor] = None,
    ) -> Tensor:
        raw_semantic = self.concat_fields(fields)
        if not self.use_ststl:
            return raw_semantic
        mask_key = "behavior_st_mask" if self.use_st_filtered_behavior else "behavior_mask"
        if row_map is not None:
            filtered = self.embedder.pool_behavior_mean_unique(batch, mask_key=mask_key)
            return self.ststl(raw_semantic, context_unique, filtered, row_map=row_map)
        context = fields[FieldName.CONTEXT]
        filtered = self.embedder.pool_behavior_mean(batch, mask_key=mask_key)
        return self.ststl(raw_semantic, context, filtered)

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        fields, _ = self._field_representations(batch)
        row_map, context_unique = self._request_dedup(batch, fields)
        semantic = self._semantic(batch, fields, row_map=row_map, context_unique=context_unique)
        if self.use_stabt:
            if row_map is not None:
                return self.tower(semantic, context_unique, row_map=row_map)
            return self.tower(semantic, fields[FieldName.CONTEXT])
        return self.static_tower(semantic).sigmoid().reshape(-1)

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
