"""User behaviour history and its request-time snapshot.

BASM's StSTL (paper Section II-C) filters the user's historical behaviours by
the *current* request's time-period and geohash to build a "personalized
spatiotemporal filtering behaviour" representation.  :class:`BehaviorHistory`
is the one history type: the offline log generator simulates with it and the
online serving state serves from it, and both read a request's behaviour
window through its one :meth:`BehaviorHistory.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BEHAVIOR_COLUMNS", "BehaviorHistory"]

#: The sequence feature each id column of a snapshot holds, in column order
#: (the raw layout of ``ImpressionLog.behavior_raw``).
BEHAVIOR_COLUMNS = (
    "seq_item_id", "seq_category", "seq_brand", "seq_time_period", "seq_hour", "seq_city_id",
)


@dataclass
class BehaviorHistory:
    """One user's clicks, oldest first, as seven parallel columns."""

    items: List[int] = field(default_factory=list)
    categories: List[int] = field(default_factory=list)
    brands: List[int] = field(default_factory=list)
    periods: List[int] = field(default_factory=list)
    hours: List[int] = field(default_factory=list)
    cities: List[int] = field(default_factory=list)
    geohash_prefixes: List[str] = field(default_factory=list)

    #: The integer columns, in :data:`BEHAVIOR_COLUMNS` order.
    ID_COLUMNS = ("items", "categories", "brands", "periods", "hours", "cities")

    def __len__(self) -> int:
        return len(self.items)

    def copy(self) -> "BehaviorHistory":
        return BehaviorHistory(self.items.copy(), self.categories.copy(), self.brands.copy(),
                               self.periods.copy(), self.hours.copy(), self.cities.copy(),
                               self.geohash_prefixes.copy())

    def append(self, item: int, category: int, brand: int, period: int, hour: int,
               city: int, geohash_prefix: str) -> None:
        self.items.append(item)
        self.categories.append(category)
        self.brands.append(brand)
        self.periods.append(period)
        self.hours.append(hour)
        self.cities.append(city)
        self.geohash_prefixes.append(geohash_prefix)

    def append_clicks(self, items: Sequence[int], world, context, prefix_length: int) -> None:
        """Append the items clicked on one request, in click order.

        Category and brand come from ``world``; time-period, hour, city and
        geohash prefix from the request ``context``.
        """
        prefix = context.geohash[:prefix_length]
        for item in items:
            item = int(item)
            self.append(item, int(world.item_category[item]), int(world.item_brand[item]),
                        context.time_period, context.hour, context.city, prefix)

    def snapshot(self, time_period: int, geohash_prefix: str, max_length: int,
                 upto: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The last ``max_length`` clicks as a request sees them.

        Returns ``(ids, mask, st_mask)``: ``(max_length, 6)`` int64 raw ids in
        :data:`BEHAVIOR_COLUMNS` order, shifted by one so 0 stays padding; the
        float32 valid-position mask; and the float32 mask of clicks made in the
        request's time-period under the request's geohash prefix.  ``upto``
        reads the history as it stood when it held ``upto`` clicks: a history
        only grows, so its length is a watermark.
        """
        end = len(self) if upto is None else upto
        ids = np.zeros((max_length, len(self.ID_COLUMNS)), dtype=np.int64)
        mask = np.zeros(max_length, dtype=np.float32)
        st_mask = np.zeros(max_length, dtype=np.float32)
        start = max(0, end - max_length)
        count = end - start
        if count == 0:
            return ids, mask, st_mask
        window = np.array([getattr(self, name)[start:end] for name in self.ID_COLUMNS],
                          dtype=np.int64).T
        ids[:count] = window + 1
        mask[:count] = 1.0
        prefixes = np.asarray(self.geohash_prefixes[start:end], dtype=object)
        st_mask[:count] = (window[:, 3] == time_period) & (prefixes == geohash_prefix)
        return ids, mask, st_mask
