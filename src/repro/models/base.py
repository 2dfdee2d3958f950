"""Shared building blocks for all CTR models.

Every model in the reproduction (BASM and the six baselines) consumes the same
batch dictionary produced by :class:`repro.data.DataLoader` and shares the
same embedding machinery, so differences in Table IV reflect the modelling
ideas rather than input plumbing:

* one global embedding table over the schema's id space (paper Eq. 3-4);
* per-field concatenated embeddings (user / candidate item / context / combine);
* the user-behaviour field pooled by multi-head target attention with the
  candidate item as query (the paper's base-model structure).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..features.schema import FeatureSchema, FieldName
from ..nn import Tensor

__all__ = ["ModelConfig", "FieldEmbedder", "BaseCTRModel"]

#: Serving identities handed out to model instances (see
#: ``BaseCTRModel.serving_uid``).  A module-level counter, so two models never
#: share a uid within one process.
_SERVING_UIDS = itertools.count(1)


@dataclass
class ModelConfig:
    """Hyper-parameters shared by all models.

    ``tower_units`` default to a scaled-down version of the paper's
    1024/512/256 tower so experiments run at laptop scale.
    """

    embedding_dim: int = 8
    attention_dim: int = 32
    attention_heads: int = 2
    tower_units: Tuple[int, ...] = (128, 64, 32)
    activation: str = "leaky_relu"
    dropout: float = 0.0
    use_batchnorm: bool = True
    seed: int = 0


class FieldEmbedder(nn.Module):
    """Embeds every field of a batch and pools the behaviour sequence."""

    def __init__(self, schema: FeatureSchema, config: ModelConfig) -> None:
        super().__init__()
        self.schema = schema
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embedding = nn.Embedding(schema.total_vocab_size, config.embedding_dim, rng=rng)

        self.sequence_feature_count = len(schema.sequence_features)
        self.sequence_raw_dim = self.sequence_feature_count * config.embedding_dim
        item_features = schema.num_features_in_field(FieldName.CANDIDATE_ITEM)
        self.target_raw_dim = item_features * config.embedding_dim
        # Project candidate item (query) and behaviours (keys/values) into a
        # common attention space.
        self.sequence_proj = nn.Linear(self.sequence_raw_dim, config.attention_dim, rng=rng)
        self.target_proj = nn.Linear(self.target_raw_dim, config.attention_dim, rng=rng)
        self.target_attention = nn.MultiHeadTargetAttention(
            config.attention_dim, config.attention_heads, rng=rng
        )

    # ------------------------------------------------------------------ #
    def field_dims(self) -> Dict[str, int]:
        """Output dimension of each field's representation."""
        dims = {}
        for field_name in self.schema.field_names:
            if field_name == FieldName.USER_BEHAVIOR:
                dims[field_name] = self.config.attention_dim
            else:
                dims[field_name] = (
                    self.schema.num_features_in_field(field_name) * self.config.embedding_dim
                )
        return dims

    @property
    def total_dim(self) -> int:
        return int(sum(self.field_dims().values()))

    # ------------------------------------------------------------------ #
    def embed_flat_field(self, ids: np.ndarray) -> Tensor:
        """Embed a ``(batch, k)`` id array into ``(batch, k * dim)``."""
        batch, count = ids.shape
        embedded = self.embedding(ids)
        return embedded.reshape(batch, count * self.config.embedding_dim)

    def embed_sequence(self, ids: np.ndarray) -> Tensor:
        """Embed ``(batch, length, k)`` behaviour ids into ``(batch, length, k * dim)``."""
        batch, length, count = ids.shape
        embedded = self.embedding(ids)
        return embedded.reshape(batch, length, count * self.config.embedding_dim)

    def pool_behavior(self, batch: Dict[str, np.ndarray], target_field: Tensor) -> Tensor:
        """Multi-head target attention pooling of the behaviour sequence."""
        sequence = self.embed_sequence(batch["behavior"])
        projected_sequence = self.sequence_proj(sequence)
        query = self.target_proj(target_field)
        return self.target_attention(query, projected_sequence, mask=batch["behavior_mask"])

    def pool_behavior_mean(self, batch: Dict[str, np.ndarray],
                           mask_key: str = "behavior_mask") -> Tensor:
        """Masked mean pooling in the attention space (used by StSTL's filter)."""
        sequence = self.embed_sequence(batch["behavior"])
        projected = self.sequence_proj(sequence)
        return nn.functional.masked_mean(projected, batch[mask_key], axis=1)

    # ------------------------------------------------------------------ #
    def field_embeddings(self, batch: Dict[str, np.ndarray]) -> Dict[str, Tensor]:
        """All field representations, behaviour field pooled by target attention."""
        fields: Dict[str, Tensor] = {}
        for field_name, ids in batch["fields"].items():
            fields[field_name] = self.embed_flat_field(ids)
        fields[FieldName.USER_BEHAVIOR] = self.pool_behavior(
            batch, fields[FieldName.CANDIDATE_ITEM]
        )
        return fields


class BaseCTRModel(nn.Module):
    """Abstract CTR model: shares the embedder and the predict() helper."""

    name = "base"

    #: Whether the model implements the request-factored scoring protocol
    #: (``_item_tables`` + ``_fused_logit`` over ``encode_split``, see
    #: :mod:`repro.models.two_tower`): per-request work done once per request,
    #: whatever of the item side is context-independent frozen per model
    #: version.  ``Ranker`` serves no other model: its constructor and
    #: ``hot_swap`` refuse one, which trains and evaluates offline only.
    supports_two_tower = False

    def __init__(self, schema: FeatureSchema, config: Optional[ModelConfig] = None) -> None:
        super().__init__()
        self.schema = schema
        self.config = config or ModelConfig()
        self.embedder = FieldEmbedder(schema, self.config)
        self.rng = np.random.default_rng(self.config.seed + 1)
        #: Identity of this model *version* for serving-side caches (frozen
        #: item-tower tables and published weight segments are keyed by it).
        #: ``copy.deepcopy`` replicas share the uid — same weights, same
        #: tables — while everything that writes the weights
        #: (:meth:`load_state_dict`, checkpoint restores, ``Trainer.fit``,
        #: ``IncrementalTrainer.refresh``) ends with :meth:`weights_changed`.
        self.serving_uid = next(_SERVING_UIDS)

    def weights_changed(self) -> None:
        """Mint a new serving identity after writing the parameters in place.

        Precomputed item-side tables keyed by the old uid must never score
        for the new parameters; a ``Ranker`` holding this object rebuilds
        them on its next micro-batch.
        """
        self.serving_uid = next(_SERVING_UIDS)

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        super().load_state_dict(state, strict=strict)
        self.weights_changed()

    # ------------------------------------------------------------------ #
    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        """Return the predicted click probability, shape ``(batch,)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # two-tower split serving protocol (see repro.models.two_tower)
    # ------------------------------------------------------------------ #
    def precompute_item_tables(self, item_static_ids: np.ndarray):
        """Freeze this model version's item-side tables for the candidate
        universe (``item_static_ids`` in ``item_static_table`` layout)."""
        with nn.no_grad(), nn.inference_mode():
            tables = self._item_tables(item_static_ids)
        tables.weights_t = nn.transposed_weights(self)
        return tables

    def score_two_tower(self, split_batch: Dict[str, np.ndarray], tables) -> np.ndarray:
        """Fused late-binding score over a split batch (``encode_split``).

        Like :meth:`predict`, callable bare from any thread: graph recording
        is switched off and eval semantics forced here, once per call, so
        every layer ``forward`` underneath is a graph-free kernel that reads
        running statistics and draws no dropout mask even on a model whose
        ``training`` flag is still set.
        """
        if tables.model_uid != self.serving_uid:
            raise ValueError(
                f"item tables were built by model version {tables.model_uid}, "
                f"not by the scoring model (serving_uid {self.serving_uid})"
            )
        if len(split_batch["candidates"]) == 0:
            return np.zeros(0, dtype=np.float32)
        with nn.no_grad(), nn.inference_mode(), nn.frozen_weights(tables.weights_t):
            return nn.functional.sigmoid(self._fused_logit(split_batch, tables)).reshape(-1)

    def _item_tables(self, item_static_ids: np.ndarray):
        """The tables :meth:`precompute_item_tables` returns (two-tower models)."""
        raise NotImplementedError(
            f"model {self.name!r} does not support the two-tower split"
        )

    def _fused_logit(self, split_batch: Dict[str, np.ndarray], tables) -> np.ndarray:
        """``(rows, 1)`` logit ndarray assembled from ``tables`` and the split batch."""
        raise NotImplementedError(
            f"model {self.name!r} does not support the two-tower split"
        )

    def predict(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Inference without building a gradient graph.

        Eval semantics come from the thread-local
        :class:`repro.nn.module.inference_mode` rather than flipping
        ``self.eval()`` / ``self.train()``: those mutate state shared by
        every thread, so a concurrent trainer (or a second serving worker)
        could observe — or clobber — another thread's mode mid-forward.
        """
        with nn.no_grad(), nn.inference_mode():
            return self.forward(batch).data.reshape(-1)

    def export_item_embeddings(self, item_feature_ids: np.ndarray) -> np.ndarray:
        """Per-item vectors for similarity recall, from the trained table.

        ``item_feature_ids`` is an ``(num_items, k)`` array of *global* ids
        — one row per item over its candidate-item features, exactly the
        layout of ``OnlineRequestEncoder.item_static_table`` — and the
        export is the concatenation of those features' learned embeddings:
        the same representation the ranker's candidate-item field consumes,
        so items the model scores similarly land close in this space.  Rows
        are L2-normalised (cosine similarity = dot product); an all-zero row
        is left untouched rather than divided by zero.
        """
        ids = np.asarray(item_feature_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"item_feature_ids must be 2-D, got shape {ids.shape}")
        with nn.no_grad():
            vectors = self.embedder.embed_flat_field(ids).data
        # Serving stores and serves these in float32 (the model's compute
        # dtype); exporting float64 silently doubled the ANN channel's memory
        # and made exported vectors disagree with what the ranker consumes.
        vectors = np.array(vectors, dtype=np.float32)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        return (vectors / np.maximum(norms, 1e-12)).astype(np.float32)

    # ------------------------------------------------------------------ #
    def concat_fields(self, fields: Dict[str, Tensor]) -> Tensor:
        """Concatenate field representations in canonical field order."""
        ordered = [fields[name] for name in self.schema.field_names]
        return Tensor.concat(ordered, axis=-1)

    def input_dim(self) -> int:
        return self.embedder.total_dim

    def describe(self) -> Dict[str, object]:
        """Small summary used by the efficiency benchmark (Table VI)."""
        return {
            "name": self.name,
            "parameters": self.num_parameters(),
            "embedding_parameters": int(self.embedder.embedding.weight.size),
            "fields": self.schema.field_names,
        }
