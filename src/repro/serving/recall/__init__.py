"""Multi-channel recall subsystem (the Recall stage of the paper's Fig. 1).

A pluggable set of retrieval scenarios — indexed geo retrieval, embedding
similarity, popularity priors, user-history expansion — fused into one
candidate pool for the ranker, plus the seed proximity sampler kept as a
benchmark-parity escape hatch.  See :mod:`repro.serving.recall.base` for the
batch contract (``recall_many``) and :mod:`repro.serving.recall.fusion` for the blend policy.
"""

from .base import RecallChannel, RecallStrategy, request_rng
from .channels import (
    EmbeddingANNChannel,
    GeoGridChannel,
    LocationBasedRecall,
    PopularityChannel,
    UserHistoryChannel,
)
from .fusion import MultiChannelRecall, RecallFusion

__all__ = [
    "RecallChannel",
    "RecallStrategy",
    "request_rng",
    "EmbeddingANNChannel",
    "GeoGridChannel",
    "LocationBasedRecall",
    "PopularityChannel",
    "UserHistoryChannel",
    "MultiChannelRecall",
    "RecallFusion",
]
