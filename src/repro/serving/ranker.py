"""Real-Time Prediction (RTP) analog: micro-batched scoring and top-k ranking.

This is the reproduction's RTP tier (the paper's Fig. 13 deployment diagram),
sized for the traffic peaks of Fig. 2a: at mealtime bursts the scoring tier
cannot afford one model invocation per request.  :class:`Ranker` packs the
:class:`ScoreRequest` objects that arrive together into micro-batches bounded
by ``max_batch_rows`` candidate rows — every candidate of every request is one
row of a flat batch — runs the model once per micro-batch and splits the
scores back per request.  Every matmul on the scoring path is either
independent across rows with batch-size-invariant rounding (``Linear``) or
shaped by one request alone (attention, StSTL), so a request's scores are
byte-identical whatever micro-batch it is packed into (``array_equal`` in
``tests/serving``), and single-request ``score``/``rank`` are a batch of one
through the same code, so the two paths cannot drift apart.

Which definition runs is read off the model: one that ``supports_two_tower``
(Wide&Deep, DIN, the target-attention base model, BASM) is scored
request-factored over ``encode_split`` (:mod:`repro.models.two_tower`) —
per-request work once per request, context-independent item partials frozen
per model version where the model has any — within 1e-6 of its flat forward;
every other model is scored by the flat forward over ``encode_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.world import RequestContext
from ..features.schema import FeatureSchema
from ..models.base import BaseCTRModel
from ..models.two_tower import ItemTowerTables
from .encoder import OnlineRequestEncoder
from .state import FeatureCache, ServingState

__all__ = ["ScoreRequest", "RankedRequest", "Ranker", "hot_swap"]


@dataclass
class ScoreRequest:
    """One pending scoring job: a request context plus its recalled candidates."""

    context: RequestContext
    candidates: np.ndarray
    positions: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.candidates = np.asarray(self.candidates, dtype=np.int64)

    def __len__(self) -> int:
        return int(len(self.candidates))


@dataclass
class RankedRequest:
    """Result of ranking one request: items in display order with their scores."""

    context: RequestContext
    items: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return int(len(self.items))


def hot_swap(
    ranker: "Ranker",
    serving_schema: FeatureSchema,
    feature_cache: FeatureCache,
    model: BaseCTRModel,
) -> BaseCTRModel:
    """Fingerprint-checked model promotion shared by the pipeline and canary.

    The single definition of the hot-swap policy: the incoming model must
    speak the serving schema (checked by fingerprint, so an incompatible
    global-id layout fails here rather than mis-scoring traffic), volatile
    feature-cache entries are dropped, pinned static tables survive.
    Returns the previous model so callers can roll back.
    """
    if model.schema.fingerprint() != serving_schema.fingerprint():
        raise ValueError(
            f"cannot hot-swap: model schema {model.schema.name!r} "
            f"({model.schema.fingerprint()}) does not match serving schema "
            f"{serving_schema.name!r} ({serving_schema.fingerprint()})"
        )
    previous, ranker.model = ranker.model, model
    feature_cache.invalidate_volatile()
    return previous


class Ranker:
    """Scores recalled candidates with a trained CTR model and ranks them.

    ``model`` is a plain attribute and assigning it *is* the swap: scoring
    snapshots it once per micro-batch, so every micro-batch is scored by
    exactly one model version.  Frozen two-tower item tables live in one
    ``(serving_uid, tables)`` slot, rebuilt (<1 ms) the first time a model
    version with another uid is scored; the pair is read and replaced as a
    whole, so a micro-batch never mixes one version's weights with another's
    tables — and ``BaseCTRModel.score_two_tower`` would raise if it did.
    """

    def __init__(self, model: BaseCTRModel, encoder: OnlineRequestEncoder,
                 max_batch_rows: int = 2048) -> None:
        if max_batch_rows <= 0:
            raise ValueError("max_batch_rows must be positive")
        self.model = model
        self.encoder = encoder
        self.max_batch_rows = max_batch_rows
        #: ``(serving_uid, ItemTowerTables)`` of the model version last
        #: scored on the fused path; ``None`` until there has been one.
        self.item_tables: Optional[Tuple[int, ItemTowerTables]] = None
        self.batches_run = 0
        self.rows_scored = 0
        self.fused_batches = 0

    # ------------------------------------------------------------------ #
    def _micro_batches(self, requests: Sequence[ScoreRequest]) -> List[List[int]]:
        """Greedily pack request indices so each batch stays under the row cap.

        A single oversized request still forms its own batch — it cannot be
        split without breaking per-request top-k semantics.
        """
        groups: List[List[int]] = []
        current: List[int] = []
        rows = 0
        for index, request in enumerate(requests):
            size = max(len(request), 1)
            if current and rows + size > self.max_batch_rows:
                groups.append(current)
                current = []
                rows = 0
            current.append(index)
            rows += size
        if current:
            groups.append(current)
        return groups

    def _tables_for(self, model: BaseCTRModel, state: ServingState) -> ItemTowerTables:
        """``model``'s frozen item tables, built once per model version."""
        slot = self.item_tables
        if slot is None or slot[0] != model.serving_uid:
            slot = (
                model.serving_uid,
                model.precompute_item_tables(self.encoder.item_static_table(state)),
            )
            self.item_tables = slot
        return slot[1]

    def score_many(
        self, requests: Sequence[ScoreRequest], state: ServingState
    ) -> List[np.ndarray]:
        """Predicted click probability arrays, one per request, in input order."""
        results: List[Optional[np.ndarray]] = [None] * len(requests)
        for group in self._micro_batches(requests):
            members = [requests[index] for index in group]
            non_empty = [index for index, request in zip(group, members) if len(request)]
            for index, request in zip(group, members):
                if len(request) == 0:
                    results[index] = np.zeros(0, dtype=np.float32)
            if not non_empty:
                continue
            # One snapshot per micro-batch: a concurrent hot-swap rebinds the
            # attribute, so this batch is scored entirely by one version.
            model = self.model
            contexts = [requests[index].context for index in non_empty]
            candidate_lists = [requests[index].candidates for index in non_empty]
            positions_list = [requests[index].positions for index in non_empty]
            if model.supports_two_tower:
                split_batch, offsets = self.encoder.encode_split(
                    contexts, candidate_lists, state, positions_list=positions_list
                )
                scores = model.score_two_tower(split_batch, self._tables_for(model, state))
                self.fused_batches += 1
            else:
                batch, offsets = self.encoder.encode_many(
                    contexts, candidate_lists, state, positions_list=positions_list
                )
                scores = model.predict(batch)
            self.batches_run += 1
            self.rows_scored += int(offsets[-1])
            for slot, index in enumerate(non_empty):
                results[index] = scores[offsets[slot]:offsets[slot + 1]]
        return results  # type: ignore[return-value]

    def rank_many(
        self,
        requests: Sequence[ScoreRequest],
        state: ServingState,
        top_k: int,
    ) -> List[RankedRequest]:
        """Rank every request's candidates and keep its ``top_k`` best.

        ``top_k`` larger than a request's candidate count simply returns all
        of that request's candidates in score order.
        """
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        score_lists = self.score_many(requests, state)
        ranked = []
        for request, scores in zip(requests, score_lists):
            order = np.argsort(-scores, kind="stable")[:top_k]
            ranked.append(
                RankedRequest(
                    context=request.context,
                    items=request.candidates[order],
                    scores=scores[order],
                )
            )
        return ranked

    # ------------------------------------------------------------------ #
    # single-request entry points (a batch of one)
    # ------------------------------------------------------------------ #
    def score(self, context: RequestContext, candidates: np.ndarray,
              state: ServingState) -> np.ndarray:
        """Predicted click probability for every candidate."""
        return self.score_many([ScoreRequest(context, candidates)], state)[0]

    def rank(
        self,
        context: RequestContext,
        candidates: np.ndarray,
        state: ServingState,
        top_k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (top-k item indices in display order, their scores)."""
        ranked = self.rank_many([ScoreRequest(context, candidates)], state, top_k)[0]
        return ranked.items, ranked.scores
