"""Two-tower split serving: frozen item-side tables + late-bound fusion.

Production rankers avoid re-running the item side of the network for every
(request, candidate) pair: an affine map over a concatenation is the sum of
its column-block partial products, so the first trunk layer

``z = W [user | behaviour | item | context | combine] + b``

decomposes into

* a **frozen item-side contribution** precomputed once per model version for
  the whole candidate universe (the static candidate-item features — exactly
  the rows of ``OnlineRequestEncoder.item_static_table``),
* a **user/context contribution** computed once per *request* and broadcast
  onto that request's candidate rows, and
* small per-row remainders (dynamic item features, cross features, the pooled
  behaviour interest, which depends on the candidate through the attention
  query — DIN's unit splits its own first layer per sequence / row / pair).

The fused scorer gathers the item table, adds the broadcast request
contribution and the per-row partials in one pass, and hands the sum to the
remaining (row-wise, non-decomposable) tower layers via ``MLP.tail``.
Scores match the full forward to float re-association (parity pinned at
1e-6 in ``tests/serving/test_two_tower.py``).

Every layer's arithmetic is its ``forward``: ``BaseCTRModel.score_two_tower``
and ``precompute_item_tables`` enter ``no_grad`` + ``inference_mode`` once
per call, under which ``forward`` builds no graph and keeps eval semantics.
One kernel differs in *algorithm* from a ``forward`` and exists beside it:
the column-block partial ``Linear.partial``.  The attention blocks take the
deduplicated layout (one behaviour sequence per request, ``row_map``) in
their ``forward`` itself.  Layers are called with ndarrays and return
ndarrays, so no ``Tensor`` is boxed between the embedding gathers and the
sigmoid.

Models opt in with ``supports_two_tower``.  Wide&Deep, DIN and the
target-attention base model are *exactly* separable at the concat boundary
and use everything above (:func:`build_common_item_tables`,
:func:`fused_common`).  BASM conditions the item dimensions on the request
context, so it freezes nothing per item — its tables are empty — but StAEL's
gates, StSTL's generated map and StABT's modulations are functions of the
*request*: ``BASM._fused_logit`` computes them on one row per request and
reaches the candidate rows through ``nn``'s ``RequestRows`` (broadcast, or
one GEMM per request).  Models without a split are not served:
:class:`repro.serving.ranker.Ranker` refuses them.

Tables are plain float32 arrays tied to the model version that built them
(``model_uid``); ``BaseCTRModel.score_two_tower`` refuses another version's
tables.  The same object carries the other thing a model version freezes:
the contiguous transposes of its ``Linear`` weights (``weights_t``,
:func:`repro.nn.transposed_weights`), which ``score_two_tower`` — and nothing
else — scopes onto the scoring thread, so a one-request score stops paying a
weight copy per layer, and BASM's stacked head transpose (``stacks_t``).
One uid, one slot in ``Ranker``, one invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..features.schema import FieldName
from ..nn import Module, Parameter

__all__ = [
    "ItemTowerTables",
    "trunk_field_slices",
    "build_common_item_tables",
    "fused_common",
]


@dataclass
class ItemTowerTables:
    """Frozen item-side state of one model version.

    ``model_uid`` is the ``serving_uid`` of the model version that produced
    the tables; ``BaseCTRModel.score_two_tower`` refuses to score any other
    version with them.  ``static_cols`` is the width of the static item block inside the
    candidate-item field embedding (``num_static_features * embedding_dim``).
    ``tables`` maps a name to a float32 ``(num_items, width)`` array.
    ``weights_t`` holds that version's transposed ``Linear`` weights, filled
    in by ``BaseCTRModel.precompute_item_tables``; ``stacks_t`` a module's
    ``nn.Linear.stacked_transpose``, keyed by the module that runs it.
    """

    model_uid: int
    static_cols: int
    tables: Dict[str, np.ndarray]
    weights_t: Dict[Parameter, np.ndarray] = field(default_factory=dict)
    stacks_t: Dict[Module, np.ndarray] = field(default_factory=dict)

    def gather(self, name: str, indices: np.ndarray) -> np.ndarray:
        return self.tables[name][np.asarray(indices, dtype=np.int64)]

    @property
    def nbytes(self) -> int:
        frozen = (*self.tables.values(), *self.weights_t.values(), *self.stacks_t.values())
        return int(sum(array.nbytes for array in frozen))


# ---------------------------------------------------------------------- #
# split-forward helpers shared by the supporting models
# ---------------------------------------------------------------------- #
def trunk_field_slices(model) -> Dict[str, Tuple[int, int]]:
    """Column span of each field block inside the trunk's concat input."""
    dims = model.embedder.field_dims()
    slices: Dict[str, Tuple[int, int]] = {}
    start = 0
    for name in model.schema.field_names:
        slices[name] = (start, start + dims[name])
        start += dims[name]
    return slices


def build_common_item_tables(model, trunk, item_static_ids: np.ndarray) -> ItemTowerTables:
    """Tables every supporting model needs: trunk + attention-query partials.

    ``item_static_ids`` is the ``(num_items, num_static)`` global-id layout of
    ``OnlineRequestEncoder.item_static_table`` — the static prefix of the
    candidate-item field.  Two partial products are frozen per item:

    * ``trunk_item_static`` — the static item block's contribution to the
      trunk's first linear layer, ``(num_items, hidden_1)``;
    * ``query_static`` — its contribution to ``target_proj`` (the attention
      query input), ``(num_items, attention_dim)``.
    """
    ids = np.asarray(item_static_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"item_static_ids must be 2-D, got shape {ids.shape}")
    static_cols = ids.shape[1] * model.config.embedding_dim
    item_start, item_stop = trunk_field_slices(model)[FieldName.CANDIDATE_ITEM]
    if static_cols > item_stop - item_start:
        raise ValueError(
            f"static item block ({static_cols} cols) exceeds the candidate-item "
            f"field ({item_stop - item_start} cols)"
        )
    static_emb = model.embedder.embed_flat_field(ids).data
    tables = {
        "trunk_item_static": trunk.linears[0].partial(
            static_emb, item_start, item_start + static_cols
        ),
        "query_static": model.embedder.target_proj.partial(static_emb, 0, static_cols),
    }
    return ItemTowerTables(model_uid=model.serving_uid, static_cols=static_cols, tables=tables)


def fused_common(model, trunk, split_batch: Dict[str, np.ndarray],
                 tables: ItemTowerTables) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fused work every supporting model shares.

    Returns ``(z, query, proj_seq)``:

    * ``z`` — ``(rows, hidden_1)`` partial activation of the trunk's first
      linear layer: frozen item-static gather + per-request user/context
      contribution broadcast via ``row_map`` + per-row dynamic-item and
      cross-feature partials + bias.  The caller adds its behaviour-interest
      partial(s) and resumes with ``trunk.tail``.
    * ``query`` — ``(rows, attention_dim)`` target-projection input for the
      behaviour attention (frozen static part + per-row dynamic part + bias).
    * ``proj_seq`` — ``(unique, seq_len, attention_dim)`` projected behaviour
      sequences, one per request; gather per row with
      ``split_batch["behavior_row_map"]``.
    """
    l1 = trunk.linears[0]
    slices = trunk_field_slices(model)
    cands = split_batch["candidates"]
    row_map = split_batch["row_map"]
    static_cols = tables.static_cols
    num_static = static_cols // model.config.embedding_dim

    embedder = model.embedder
    user_emb = embedder.embed_flat_field(split_batch["user_rows"]).data
    context_emb = embedder.embed_flat_field(split_batch["context_rows"]).data
    request_contrib = (
        l1.partial(user_emb, *slices[FieldName.USER])
        + l1.partial(context_emb, *slices[FieldName.CONTEXT])
    )

    dyn_emb = embedder.embed_flat_field(split_batch["item_field"][:, num_static:]).data
    combine_emb = embedder.embed_flat_field(split_batch["combine_ids"]).data
    item_start, item_stop = slices[FieldName.CANDIDATE_ITEM]

    z = tables.gather("trunk_item_static", cands)
    z = z + request_contrib[row_map]
    z = z + l1.partial(dyn_emb, item_start + static_cols, item_stop)
    z = z + l1.partial(combine_emb, *slices[FieldName.COMBINE])
    if l1.bias is not None:
        z = z + l1.bias.data

    target_proj = embedder.target_proj
    query = tables.gather("query_static", cands)
    query = query + target_proj.partial(dyn_emb, static_cols, target_proj.in_features)
    if target_proj.bias is not None:
        query = query + target_proj.bias.data

    seq_emb = embedder.embed_sequence(split_batch["behavior_unique"])
    return z, query, embedder.sequence_proj(seq_emb).data
