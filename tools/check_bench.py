#!/usr/bin/env python
"""Benchmark regression harness: compare ``results/BENCH_*.json`` to baselines.

Benchmarks persist their headline numbers as machine-readable JSON
(``save_bench_json`` in ``benchmarks/conftest.py``).  This tool compares
them against the committed tolerance bands in ``benchmarks/baselines.json``,
so parity, count and quality numbers cannot silently regress: CI runs it
right after the tier-1 suite.  The bands are deterministic — nothing here
depends on a clock; speed is measured by ``bench/run.py`` alone.

``baselines.json`` maps ``benchmark name -> metric name -> band``, where a
band is any combination of:

* ``min`` / ``max`` — hard floors/ceilings (parity diffs, mismatch counts,
  quality gains);
* ``baseline`` with ``rel_tol`` and/or ``abs_tol`` — a two-sided band
  around an expected value: ``|value - baseline| <= abs_tol +
  rel_tol * |baseline|`` (the choice for statistical quality metrics).

Metrics present in a results file but absent from the baselines are
ignored (informational only).  A baselined metric whose results file or
key is missing is a failure — a deleted benchmark cannot silently take its
regression guard with it — unless ``--allow-missing`` is given (useful for
checking a partial local run).

Exit code 0 when every band holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINES = REPO_ROOT / "benchmarks" / "baselines.json"
DEFAULT_RESULTS = REPO_ROOT / "results"


def check_band(value: float, band: dict) -> List[str]:
    """Return a list of violation descriptions (empty when inside the band)."""
    problems = []
    if "min" in band and value < band["min"]:
        problems.append(f"value {value:g} below min {band['min']:g}")
    if "max" in band and value > band["max"]:
        problems.append(f"value {value:g} above max {band['max']:g}")
    if "baseline" in band:
        baseline = band["baseline"]
        allowed = band.get("abs_tol", 0.0) + band.get("rel_tol", 0.0) * abs(baseline)
        if abs(value - baseline) > allowed:
            problems.append(
                f"value {value:g} outside baseline {baseline:g} ± {allowed:g}"
            )
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="skip baselined benchmarks/metrics with no results instead of failing",
    )
    arguments = parser.parse_args(argv)

    baselines = json.loads(arguments.baselines.read_text(encoding="utf-8"))
    failures = 0
    checked = 0
    for benchmark, bands in sorted(baselines.items()):
        results_path = arguments.results / f"BENCH_{benchmark}.json"
        if not results_path.exists():
            if arguments.allow_missing:
                print(f"SKIP {benchmark}: no {results_path.name}")
                continue
            print(f"FAIL {benchmark}: missing {results_path} (run the benchmarks first)")
            failures += 1
            continue
        metrics = json.loads(results_path.read_text(encoding="utf-8"))["metrics"]
        for metric, band in sorted(bands.items()):
            if metric not in metrics:
                if arguments.allow_missing:
                    print(f"SKIP {benchmark}.{metric}: not in results")
                    continue
                print(f"FAIL {benchmark}.{metric}: metric missing from {results_path.name}")
                failures += 1
                continue
            checked += 1
            problems = check_band(float(metrics[metric]), band)
            if problems:
                for problem in problems:
                    print(f"FAIL {benchmark}.{metric}: {problem}")
                failures += len(problems)
            else:
                print(f"ok   {benchmark}.{metric} = {metrics[metric]:g}")
    if failures:
        print(f"\n{failures} benchmark regression(s).")
        return 1
    print(f"\nbench check OK ({checked} metric(s) within tolerance).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
