"""Numeric-to-bucket discretisation helpers.

Industrial CTR models feed statistics (order counts, click counts, prices,
distances) as bucketised categorical features; these helpers provide the
quantile and fixed-boundary bucketisers used by the synthetic generators and
the feature server.  Bucket ids are 1-based so that 0 remains the padding id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["bucketize", "quantile_buckets", "log_bucketize"]


def bucketize(values: np.ndarray, boundaries: Sequence[float]) -> np.ndarray:
    """Assign 1-based bucket ids using explicit ``boundaries``.

    ``len(boundaries) + 1`` buckets are produced: values below the first
    boundary get bucket 1, values >= the last boundary get the final bucket.
    """
    boundaries = np.sort(np.asarray(boundaries, dtype=np.float64))
    values = np.asarray(values, dtype=np.float64)
    return (np.searchsorted(boundaries, values, side="right") + 1).astype(np.int64)


def quantile_buckets(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Bucketise by empirical quantiles into ``num_buckets`` 1-based buckets."""
    if num_buckets < 2:
        raise ValueError("num_buckets must be at least 2")
    values = np.asarray(values, dtype=np.float64)
    quantiles = np.quantile(values, np.linspace(0, 1, num_buckets + 1)[1:-1])
    return bucketize(values, quantiles)


def log_bucketize(values: np.ndarray, num_buckets: int, base: float = 2.0) -> np.ndarray:
    """Logarithmic bucketing of non-negative counts (common for count features)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and values.min() < 0:
        raise ValueError("log_bucketize expects non-negative values")
    buckets = np.floor(np.log1p(values) / np.log(base)).astype(np.int64) + 1
    return np.minimum(np.maximum(buckets, 1), num_buckets)
