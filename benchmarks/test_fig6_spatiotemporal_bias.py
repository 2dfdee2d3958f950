"""Figure 6: the spatiotemporal bias surface — CTR over (city, hour).

The paper plots CTR as a function of city and hour to argue there is a strong
inherent bias that the model must absorb.  The bench regenerates the surface
from the synthetic log and checks it is genuinely non-flat in both directions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import coefficient_of_variation, spatiotemporal_bias_matrix

from .conftest import format_rows, save_result


def _build(dataset):
    return spatiotemporal_bias_matrix(dataset.log, dataset.config.num_cities)


def test_fig6_spatiotemporal_bias_surface(eleme_bench):
    matrix = _build(eleme_bench)
    rows = []
    for city in range(matrix.shape[0]):
        row = {"City": city + 1}
        for hour in range(0, 24, 3):
            value = matrix[city, hour]
            row[f"h{hour:02d}"] = "-" if np.isnan(value) else round(float(value), 3)
        rows.append(row)
    save_result("fig6_spatiotemporal_bias", format_rows(rows, "Fig. 6 — CTR by (city, hour), 3-hour stride"))

    # CTR varies across hours within cities and across cities within hours.
    per_city_variation = np.nanmax(matrix, axis=1) - np.nanmin(matrix, axis=1)
    assert np.nanmean(per_city_variation) > 0.02
    city_means = np.nanmean(matrix, axis=1)
    assert (np.nanmax(city_means) - np.nanmin(city_means)) > 0.01
    assert coefficient_of_variation(matrix) > 0.05
