"""Impression-log simulation.

Runs the :class:`repro.data.world.SyntheticWorld` forward over a number of
days, producing a columnar :class:`ImpressionLog` that mirrors what Ele.me's
MaxCompute log tables would contain: one row per exposed item with its label,
grouped into ranking sessions (requests), plus a per-session snapshot of the
user's behaviour sequence *at request time* (so there is no label leakage —
behaviours only contain clicks that happened strictly before the request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..features.behavior import BehaviorHistory
from ..features.time_features import hour_to_time_period
from .world import RequestContext, SyntheticWorld

__all__ = ["LogConfig", "ImpressionLog", "LogGenerator"]


@dataclass
class LogConfig:
    """Simulation size and behaviour-sequence parameters."""

    num_days: int = 8
    sessions_per_day: int = 1200
    candidates_per_session: int = 10
    max_behavior_length: int = 30
    geohash_match_prefix: int = 4
    order_probability: float = 0.3
    #: Average number of pre-log historical clicks seeded per user, so that
    #: behaviour sequences resemble the paper's mean length (~42) instead of
    #: starting from scratch.  Scaled by each user's activity level.
    warmup_events_per_user: float = 25.0
    seed: int = 11


@dataclass
class ImpressionLog:
    """Columnar impression log.

    Impression-level arrays all have length ``num_impressions``; session-level
    arrays have length ``num_sessions`` and are indexed through
    ``session_index``.
    """

    # Impression level.
    session_index: np.ndarray
    position: np.ndarray
    item_index: np.ndarray
    label: np.ndarray
    distance: np.ndarray
    true_probability: np.ndarray

    # Session level.
    session_user: np.ndarray
    session_day: np.ndarray
    session_hour: np.ndarray
    session_period: np.ndarray
    session_city: np.ndarray
    session_weekday: np.ndarray
    session_geohash: List[str]
    session_user_clicks: np.ndarray
    session_user_orders: np.ndarray
    behavior_raw: np.ndarray        # (sessions, L, 6): item, category, brand, period, hour, city
    behavior_mask: np.ndarray       # (sessions, L)
    behavior_st_mask: np.ndarray    # (sessions, L) spatiotemporal filter match

    @property
    def num_impressions(self) -> int:
        return int(self.label.shape[0])

    @property
    def num_sessions(self) -> int:
        return int(self.session_user.shape[0])

    @property
    def num_clicks(self) -> int:
        return int(self.label.sum())

    @property
    def overall_ctr(self) -> float:
        return float(self.label.mean()) if self.num_impressions else 0.0

    def mean_behavior_length(self) -> float:
        return float(self.behavior_mask.sum(axis=1).mean()) if self.num_sessions else 0.0

    # ------------------------------------------------------------------ #
    # convenient impression-level views of session attributes
    # ------------------------------------------------------------------ #
    def impression_day(self) -> np.ndarray:
        return self.session_day[self.session_index]

    def impression_hour(self) -> np.ndarray:
        return self.session_hour[self.session_index]

    def impression_period(self) -> np.ndarray:
        return self.session_period[self.session_index]

    def impression_city(self) -> np.ndarray:
        return self.session_city[self.session_index]

    def impression_user(self) -> np.ndarray:
        return self.session_user[self.session_index]

    def select_days(self, days) -> "ImpressionLog":
        """Return a new log containing only sessions of the given days."""
        days = set(int(d) for d in np.atleast_1d(days))
        session_keep = np.array([int(d) in days for d in self.session_day])
        return self._select_sessions(np.where(session_keep)[0])

    def _select_sessions(self, session_ids: np.ndarray) -> "ImpressionLog":
        session_ids = np.asarray(session_ids, dtype=np.int64)
        remap = -np.ones(self.num_sessions, dtype=np.int64)
        remap[session_ids] = np.arange(len(session_ids))
        impression_keep = np.isin(self.session_index, session_ids)
        return ImpressionLog(
            session_index=remap[self.session_index[impression_keep]],
            position=self.position[impression_keep],
            item_index=self.item_index[impression_keep],
            label=self.label[impression_keep],
            distance=self.distance[impression_keep],
            true_probability=self.true_probability[impression_keep],
            session_user=self.session_user[session_ids],
            session_day=self.session_day[session_ids],
            session_hour=self.session_hour[session_ids],
            session_period=self.session_period[session_ids],
            session_city=self.session_city[session_ids],
            session_weekday=self.session_weekday[session_ids],
            session_geohash=[self.session_geohash[i] for i in session_ids],
            session_user_clicks=self.session_user_clicks[session_ids],
            session_user_orders=self.session_user_orders[session_ids],
            behavior_raw=self.behavior_raw[session_ids],
            behavior_mask=self.behavior_mask[session_ids],
            behavior_st_mask=self.behavior_st_mask[session_ids],
        )


class LogGenerator:
    """Simulate impression logs from a :class:`SyntheticWorld`."""

    def __init__(self, world: SyntheticWorld, config: Optional[LogConfig] = None) -> None:
        self.world = world
        self.config = config or LogConfig()
        self.rng = np.random.default_rng(self.config.seed)
        # Persistent user state: click/order counts and behaviour histories so
        # the statistics features reflect everything seen so far.
        self._user_clicks = np.zeros(world.config.num_users, dtype=np.int64)
        self._user_orders = np.zeros(world.config.num_users, dtype=np.int64)
        self._histories: Dict[int, BehaviorHistory] = {}
        if self.config.warmup_events_per_user > 0:
            self._bootstrap_histories()

    # ------------------------------------------------------------------ #
    def _bootstrap_histories(self) -> None:
        """Seed each user with historical clicks consistent with their tastes.

        The clicks are drawn from the same preference structure the ground
        truth uses (category affinity modulated by the time-period's category
        popularity), so behaviour sequences are genuinely predictive — the
        property DIN-style attention and BASM's StSTL rely on.
        """
        world = self.world
        cfg = self.config
        rng = self.rng
        expected = cfg.warmup_events_per_user * world.user_activity / world.user_activity.mean()
        event_counts = rng.poisson(np.clip(expected, 0.0, 4.0 * cfg.warmup_events_per_user))
        for user in range(world.config.num_users):
            count = int(event_counts[user])
            if count == 0:
                continue
            city = int(world.user_city[user])
            history = self._histories.setdefault(user, BehaviorHistory())
            prefix = world.user_home_geohash[user][: cfg.geohash_match_prefix]
            hours = rng.choice(24, size=count, p=world.hour_request_share)
            periods = hour_to_time_period(hours)
            for hour, period in zip(hours, periods):
                affinity = (
                    world.user_category_affinity[user]
                    * np.exp(0.8 * world.period_category_pop[int(period)])
                )
                affinity = affinity / affinity.sum()
                category = int(rng.choice(world.config.num_categories, p=affinity))
                pool = world.items_by_city_category[(city, category)]
                if len(pool) == 0:
                    pool = world.items_by_city[city]
                item = int(rng.choice(pool))
                history.append(
                    item,
                    int(world.item_category[item]),
                    int(world.item_brand[item]),
                    int(period),
                    int(hour),
                    city,
                    prefix,
                )
            self._user_clicks[user] += count
            self._user_orders[user] += int(rng.binomial(count, cfg.order_probability))

    # ------------------------------------------------------------------ #
    def simulate(self, num_days: Optional[int] = None, start_day: int = 0) -> ImpressionLog:
        """Run the simulation and return the impression log."""
        cfg = self.config
        num_days = num_days if num_days is not None else cfg.num_days

        session_index: List[np.ndarray] = []
        position: List[np.ndarray] = []
        item_index: List[np.ndarray] = []
        label: List[np.ndarray] = []
        distance: List[np.ndarray] = []
        true_probability: List[np.ndarray] = []

        session_user: List[int] = []
        session_day: List[int] = []
        session_hour: List[int] = []
        session_period: List[int] = []
        session_city: List[int] = []
        session_weekday: List[int] = []
        session_geohash: List[str] = []
        session_user_clicks: List[int] = []
        session_user_orders: List[int] = []
        behavior_raw: List[np.ndarray] = []
        behavior_mask: List[np.ndarray] = []
        behavior_st_mask: List[np.ndarray] = []

        session_counter = 0
        for day in range(start_day, start_day + num_days):
            for _ in range(cfg.sessions_per_day):
                context = self.world.sample_request_context(day, self.rng)
                candidates = self.world.candidate_items(context, cfg.candidates_per_session, self.rng)
                positions = np.arange(len(candidates))
                logits = self.world.click_logits(
                    context.user_index, candidates, context.hour, context.city,
                    (context.latitude, context.longitude), positions=positions, rng=self.rng,
                )
                probabilities = 1.0 / (1.0 + np.exp(-logits))
                clicks = (self.rng.random(len(candidates)) < probabilities).astype(np.float32)

                # Snapshot the behaviour sequence *before* appending today's clicks.
                history = self._histories.get(context.user_index) or BehaviorHistory()
                ids, mask, st_mask = history.snapshot(
                    context.time_period, context.geohash[: cfg.geohash_match_prefix],
                    cfg.max_behavior_length,
                )

                session_index.append(np.full(len(candidates), session_counter, dtype=np.int64))
                position.append(positions)
                item_index.append(candidates.astype(np.int64))
                label.append(clicks)
                distance.append(self.world.distance_to_request(candidates, context))
                true_probability.append(probabilities.astype(np.float32))

                session_user.append(context.user_index)
                session_day.append(day)
                session_hour.append(context.hour)
                session_period.append(context.time_period)
                session_city.append(context.city)
                session_weekday.append(day % 7)
                session_geohash.append(context.geohash)
                session_user_clicks.append(int(self._user_clicks[context.user_index]))
                session_user_orders.append(int(self._user_orders[context.user_index]))
                behavior_raw.append(ids)
                behavior_mask.append(mask)
                behavior_st_mask.append(st_mask)

                self._update_user_state(context, candidates, clicks)
                session_counter += 1

        return ImpressionLog(
            session_index=np.concatenate(session_index),
            position=np.concatenate(position),
            item_index=np.concatenate(item_index),
            label=np.concatenate(label),
            distance=np.concatenate(distance),
            true_probability=np.concatenate(true_probability),
            session_user=np.array(session_user, dtype=np.int64),
            session_day=np.array(session_day, dtype=np.int64),
            session_hour=np.array(session_hour, dtype=np.int64),
            session_period=np.array(session_period, dtype=np.int64),
            session_city=np.array(session_city, dtype=np.int64),
            session_weekday=np.array(session_weekday, dtype=np.int64),
            session_geohash=session_geohash,
            session_user_clicks=np.array(session_user_clicks, dtype=np.int64),
            session_user_orders=np.array(session_user_orders, dtype=np.int64),
            behavior_raw=np.stack(behavior_raw),
            behavior_mask=np.stack(behavior_mask),
            behavior_st_mask=np.stack(behavior_st_mask),
        )

    # ------------------------------------------------------------------ #
    def _update_user_state(self, context: RequestContext, candidates: np.ndarray,
                           clicks: np.ndarray) -> None:
        cfg = self.config
        clicked = np.where(clicks > 0)[0]
        if len(clicked) == 0:
            return
        user = context.user_index
        self._histories.setdefault(user, BehaviorHistory()).append_clicks(
            candidates[clicked], self.world, context, cfg.geohash_match_prefix
        )
        self._user_clicks[user] += len(clicked)
        orders = self.rng.random(len(clicked)) < cfg.order_probability
        self._user_orders[user] += int(orders.sum())
