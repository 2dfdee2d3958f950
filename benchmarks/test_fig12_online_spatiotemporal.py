"""Figure 12: online CTR and exposure ratio per time-period and city.

The paper's online analysis: BASM improves CTR in every time-period and city,
and the improvement tends to be larger where the exposure share is smaller.
The bench reuses one A/B simulation and reports both breakdowns.
"""

from __future__ import annotations

import numpy as np

from repro.serving import ABTestConfig, ABTestSimulator, LocationBasedRecall

from .conftest import format_rows, save_result

AB_CONFIG = ABTestConfig(num_days=5, requests_per_day=300, recall_size=25, exposure_size=8, seed=131)


def _run(world, base, basm, encoder, state):
    # The paper's online experiment recalls via the location-based service,
    # so this figure reproduction pins the proximity recall (the fused
    # multi-channel stage has its own benchmark: test_recall_quality.py).
    recall = LocationBasedRecall(world, pool_size=AB_CONFIG.recall_size,
                                 seed=AB_CONFIG.seed + 1)
    simulator = ABTestSimulator(world, base, basm, encoder, state, AB_CONFIG,
                                recall=recall)
    return simulator.run(start_day=200)


def test_fig12_online_spatiotemporal_breakdown(eleme_bench, trained_base_din,
                                               trained_basm, serving_environment):
    state, encoder = serving_environment
    result = _run(eleme_bench.world, trained_base_din, trained_basm, encoder, state)
    period_rows = result.figure12_time_period_rows()
    city_rows = result.figure12_city_rows()
    text = (
        format_rows(period_rows, "Fig. 12(a) — online exposure ratio and CTR by time-period")
        + "\n\n"
        + format_rows(city_rows, "Fig. 12(b) — online exposure ratio and CTR by city")
    )
    save_result("fig12_online_spatiotemporal", text)

    # Overall improvement holds in the aggregate.
    assert result.average_treatment_ctr > result.average_control_ctr
    # BASM improves CTR in the majority of time-periods and cities with traffic.
    period_improvements = [row["Relative Improvement"] for row in period_rows
                           if row["Base CTR"] > 0 and row["BASM CTR"] > 0]
    city_improvements = [row["Relative Improvement"] for row in city_rows
                         if row["Base CTR"] > 0 and row["BASM CTR"] > 0]
    assert np.mean([value > 0 for value in period_improvements]) >= 0.6
    assert np.mean([value > 0 for value in city_improvements]) >= 0.5
    # Exposure shares are a proper distribution.
    assert np.isclose(sum(row["Exposure Ratio"] for row in period_rows), 1.0, atol=1e-6)
