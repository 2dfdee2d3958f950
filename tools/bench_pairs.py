#!/usr/bin/env python3
"""Interleaved parent/change pairs of the repo benchmark, and the verdict.

Every perf PR has to show the same thing (guides/choosing-metrics §6, §8): N
pairs of the *unchanged* ``bench/run.py`` on the parent commit and on the
change, alternating which side runs first, each side's median and quartiles
per metric, pairs won, and whether that amounts to a gain, a regression or
nothing resolvable.  This script does the runs and prints that table.

    git worktree add /tmp/parent <parent-sha>      # or: git clone . /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --change . \\
        --workload basm_inproc --seed 1 --pairs 10 --log pairs.jsonl
    python3 tools/bench_pairs.py --report pairs.jsonl      # the table again, no runs

Each run is ``python3 bench/run.py --workload W --seed N`` with the checkout
as working directory; its last stdout line carries the scaled metrics, its
run file (``results/bench/W-seedN-trace0.json``) the raw twins and the
checks.  One JSON line per run goes to ``--log``; the table is a pure
function of those lines (:func:`report`), which is what the unit test feeds.
The two ``bench/`` trees and ``BENCHMARK.json`` must be byte-identical — a
change that claims a gain may not edit the benchmark — and the script
refuses to start otherwise.  Stdlib only; reads the clock never, the
benchmark does that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

SIDES = ("parent", "change")
#: §8: a gain needs nine tenths of all pairs run, ties counting for neither.
WIN_SHARE = 0.9


# ---------------------------------------------------------------------- #
# the table: a pure function of the logged runs
# ---------------------------------------------------------------------- #
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method (defined from two samples up)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """§8 on one metric of one workload; ``parent[i]`` and ``change[i]`` are a pair.

    ``gain``: the change wins >= 9/10 of the pairs and the medians are
    further apart than the parent's interquartile distance.  Otherwise
    ``worse`` when the change's median is beyond ``bound`` on the wrong
    side, ``unresolved`` when the parent's own spread exceeds the bound (and
    the change does not beat every parent run), else ``within bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    improvement = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    scale = abs(p_med) or 1.0
    dominates = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if wins >= WIN_SHARE * len(parent) and improvement > iqr:
        outcome = "gain"
    elif -improvement > bound * scale:
        outcome = "worse"
    elif iqr > bound * scale and not dominates:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins, "losses": losses, "pairs": len(parent), "verdict": outcome,
    }


def report(runs: Iterable[dict], contract: dict) -> str:
    """The pairs table for every workload and seed in ``runs``.

    ``runs`` are the logged lines (``side``, ``pair``, ``workload``, ``seed``,
    ``correct``, ``attempted``, ``failed``, ``parity``, ``metrics``, ``raw``);
    ``contract`` is BENCHMARK.json (``better`` and ``bound`` per metric).
    """
    groups: Dict[Tuple[str, int], Dict[int, Dict[str, dict]]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"]), {}).setdefault(
            run["pair"], {})[run["side"]] = run
    lines = []
    for (workload, seed), by_pair in sorted(groups.items()):
        pairs = [by_pair[index] for index in sorted(by_pair) if len(by_pair[index]) == 2]
        lines.append(f"## {workload} seed {seed}: {len(pairs)} pairs")
        if not pairs:
            continue
        for side in SIDES:
            sent = [pair[side] for pair in pairs]
            lines.append(
                f"{side}: correct {sum(run['correct'] for run in sent)}/{len(sent)}, "
                f"failed {sum(run['failed'] for run in sent)} of "
                f"{sum(run['attempted'] for run in sent)} attempted, "
                f"parity mismatches or failures {sum(run.get('parity') or 0 for run in sent)}"
            )
        lines.append("| metric | parent median [q1, q3] | change median [q1, q3] "
                     "| change / parent | pairs won | verdict |")
        lines.append("|---|---|---|---|---|---|")
        for spec in contract["end_to_end"]:
            for twin in ("metrics", "raw"):
                name = spec["name"]
                if not all(name in pair[side].get(twin, {}) for pair in pairs for side in SIDES):
                    continue
                row = verdict(
                    [pair["parent"][twin][name] for pair in pairs],
                    [pair["change"][twin][name] for pair in pairs],
                    spec["better"], spec["bound"],
                )
                label = name if twin == "metrics" else f"{name} (raw)"
                lines.append(
                    f"| {label} | {_spread(row['parent'])} | {_spread(row['change'])} "
                    f"| x{row['ratio']:.3f} | {row['wins']}/{row['pairs']} "
                    f"(lost {row['losses']}) | {row['verdict']} |"
                )
    return "\n".join(lines)


def _spread(quartile_triple: Tuple[float, float, float]) -> str:
    q1, median, q3 = quartile_triple
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


# ---------------------------------------------------------------------- #
# the runs
# ---------------------------------------------------------------------- #
def tree_digest(checkout: Path) -> str:
    """sha256 over ``BENCHMARK.json`` and every file under ``bench/``."""
    digest = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted(
        path for path in (checkout / "bench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    for path in files:
        digest.update(str(path.relative_to(checkout)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One unmodified benchmark run in ``checkout``; the fields the table needs."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    stdout = done.stdout.strip().splitlines()
    if not stdout:
        raise RuntimeError(f"bench/run.py printed nothing in {checkout}:\n{done.stderr}")
    final = json.loads(stdout[-1])
    record = {
        "correct": bool(final["correct"]), "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: entry["value"] for name, entry in final["metrics"].items()},
    }
    run_file = checkout / "results" / "bench" / f"{workload}-seed{seed}-trace0.json"
    if run_file.exists():
        detail = json.loads(run_file.read_text(encoding="utf-8"))
        record["raw"] = {name: value for name, value in detail.get("raw", {}).items()
                         if isinstance(value, (int, float))}
        record["parity"] = detail.get("checks", {}).get("parity_mismatches_or_failures")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--log", type=Path, help="append one JSON line per run here")
    parser.add_argument("--report", type=Path, help="print the table of an existing log; no runs")
    args = parser.parse_args(argv)

    if args.report is not None:
        contract = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
        runs = [json.loads(line) for line in args.report.read_text(encoding="utf-8").splitlines()
                if line.strip()]
        print(report(runs, contract))
        return 0
    if args.parent is None:
        parser.error("--parent is required unless --report is given")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if tree_digest(checkouts["parent"]) != tree_digest(checkouts["change"]):
        print("bench/ or BENCHMARK.json differs between the two checkouts: a change that "
              "claims a gain may not edit the benchmark", file=sys.stderr)
        return 2
    contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [entry["name"] for entry in contract["workloads"]]
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                record = run_once(checkouts[side], workload, args.seed)
                record.update(side=side, pair=pair, first=position == 0,
                              workload=workload, seed=args.seed)
                runs.append(record)
                if args.log is not None:
                    with args.log.open("a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record) + "\n")
                print(f"{workload} seed {args.seed} pair {pair} {side}: "
                      f"correct {record['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                      file=sys.stderr, flush=True)
    print(report(runs, contract))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
