"""A/A: does the unchanged tree agree with itself within the benchmark's bounds?

    python bench/aa.py --runs 10

Runs N full runs of every workload (interleaved run by run, a new seed each
run), then for every workload x end-to-end metric prints

* the single-run spread, (max - min) / median, which must stay within the
  metric's bound in ``BENCHMARK.json``;
* the distance between the medians of the odd and the even runs, as a share
  of the overall median — the same code measured twice, interleaved — which
  must stay within half the bound;
* beside them, for information: the interquartile spread (what the contract's
  driver compares with the bound), the single-run spread of the unscaled twin,
  and in how many runs the metric was listed under ``unresolved``.

The table is appended to ``bench/history/aa.jsonl`` with the host block, and
the exit code is 1 when any metric is out of bounds or any run is incorrect.
Each row also says whether the issue's ceiling (0.10 on timings, 0.03 on
``peak_rss_mb``) was met by the same two tests, whatever bound the metric
ships with (``bench/README.md`` says how the bounds were set from this file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HISTORY = ROOT / "bench" / "history" / "aa.jsonl"
FIRST_SEED = 101
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
#: The issue's ceilings: what the bounds were meant to stay under.  Where the
#: host cannot hold one the table says so, whatever bound the metric ships with.
CEILINGS = {name: 0.03 if name == "peak_rss_mb" else 0.10 for name in BOUNDS}


def within(row: Dict[str, float], limit: float) -> bool:
    """The issue's gate: single-run spread within the limit, odd/even within half."""
    return row["spread"] <= limit and row["odd_even"] <= limit / 2


def one_run(workload: str, seed: int) -> Dict[str, object]:
    """One ``bench/run.py`` process, as the driver starts it; returns its run file."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-1000:]}\n{done.stderr[-2000:]}")
    return json.loads((ROOT / "results" / "bench" /
                       f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))


def spread(values: List[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def summarise(values: List[float], raw: List[float], unresolved: int,
              bound: float, ceiling: float) -> Dict[str, object]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    row = {
        "median": median, "spread": spread(values),
        "odd_even": abs(statistics.median(values[0::2])
                        - statistics.median(values[1::2])) / median,
        "bound": bound, "iqr": (q3 - q1) / median, "unresolved_runs": unresolved,
    }
    if raw:
        row["raw_spread"] = spread(raw)
    row["ok"] = within(row, bound)
    row["ceiling"], row["ceiling_met"] = ceiling, within(row, ceiling)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    runs = parser.parse_args().runs
    if runs < 4:
        parser.error("--runs must be at least 4 (quartiles and odd/even halves)")

    records: Dict[str, List[Dict[str, object]]] = {w: [] for w in WORKLOADS}
    started = time.time()
    for run in range(runs):
        for workload in WORKLOADS:
            record = one_run(workload, FIRST_SEED + run)
            records[workload].append(record)
            print(f"run {run + 1}/{runs} {workload} ({record['host']['wall_s']:.0f} s): "
                  + "  ".join(f"{m}={record['values'][m]:.5g}" for m in BOUNDS)
                  + (f"  unresolved {record['unresolved']}" if record["unresolved"] else ""),
                  flush=True)

    table = {
        workload: {
            metric: summarise(
                [r["values"][metric] for r in runs_],
                [r["raw"][metric] for r in runs_ if metric in r["raw"]],
                sum(metric in r["unresolved"] for r in runs_), bound, CEILINGS[metric])
            for metric, bound in BOUNDS.items()}
        for workload, runs_ in records.items()}
    failures = [f"{w} seed {r['seed']} incorrect" for w, runs_ in records.items()
                for r in runs_ if not r["correct"] or r["failed"]]
    print(f"\n{'workload':14s} {'metric':18s} {'median':>11s} {'spread':>8s} {'odd/even':>9s} "
          f"{'bound':>6s}       {'ceiling':>8s}          {'iqr':>7s} {'raw spread':>11s} "
          f"{'unresolved':>11s}")
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            print(f"{workload:14s} {metric:18s} {row['median']:11.5g} {row['spread']:8.2%} "
                  f"{row['odd_even']:9.2%} {row['bound']:6.0%} {'ok  ' if row['ok'] else 'FAIL'}  "
                  f"{row['ceiling']:8.0%} {'met    ' if row['ceiling_met'] else 'NOT MET'}  "
                  f"{row['iqr']:7.2%} {row.get('raw_spread', float('nan')):11.2%} "
                  f"{row['unresolved_runs']:8d}/{runs}")
            if not row["ok"]:
                failures.append(f"{workload}/{metric}")
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "runs": runs, "first_seed": FIRST_SEED, "seconds": SECONDS,
            "host": records[WORKLOADS[0]][0]["host"], "table": table,
            "samples": {w: {m: [r["values"][m] for r in runs_] for m in BOUNDS}
                        for w, runs_ in records.items()},
            "raw": {w: {m: [r["raw"][m] for r in runs_ if m in r["raw"]] for m in BOUNDS}
                    for w, runs_ in records.items()},
            "failures": failures,
        }) + "\n")
    print(f"\n{time.time() - started:.0f} s for {runs * len(WORKLOADS)} runs; "
          f"appended to {HISTORY.relative_to(ROOT)}; "
          f"{'all within bounds' if not failures else 'NOT MET: ' + ', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
