"""Figure 2: exposure and CTR distributions over hours and cities.

Regenerates the motivating statistics of the paper — the data distribution
(exposures, CTR) varies with the hour of day and with the city.
"""

from __future__ import annotations

from repro.analysis import distribution_report

from .conftest import format_rows, save_result


def _build_report(dataset):
    report = distribution_report(dataset.log)
    hour_rows = [
        {"Hour": hour, "Exposures": entry["exposures"], "CTR": round(entry["ctr"], 4)}
        for hour, entry in report.by_hour.items()
    ]
    city_rows = [
        {"City": city + 1, "Exposures": entry["exposures"], "CTR": round(entry["ctr"], 4)}
        for city, entry in report.by_city.items()
    ]
    text = (
        format_rows(hour_rows, "Fig. 2(a) — exposures and CTR by hour")
        + "\n\n"
        + format_rows(city_rows, "Fig. 2(b) — exposures and CTR by city")
        + f"\n\nCTR spread over hours: {report.ctr_spread_over_hours():.4f}"
        + f"\nCTR spread over cities: {report.ctr_spread_over_cities():.4f}"
    )
    return report, text


def test_fig2_exposure_and_ctr_distribution(eleme_bench):
    report, text = _build_report(eleme_bench)
    save_result("fig2_distribution", text)
    # The paper's premise: CTR varies materially across hours and cities.
    assert report.ctr_spread_over_hours() > 0.01
    assert report.ctr_spread_over_cities() > 0.01
    # Mealtime hours receive more exposures than the small hours (Fig. 2a shape).
    assert report.by_hour[12]["exposures"] > report.by_hour[3]["exposures"]
