"""The repo benchmark: one command, four workloads.

    python bench/run.py --workload NAME --seed S [--seconds N] [--trace 1] [--smoke]
    python bench/run.py --check

Prints every metric by name with its unit, the correctness checks, the input
``validation_report`` and a host block, writes the same under
``results/bench/`` and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS pools must be pinned before numpy loads: the reference host has two
# cores, one for the load generator and one for the worker.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import gc
import itertools
import json
import math
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    import numpy as np

    from repro.data import encode_eleme_log
    from repro.models import create_model, save_checkpoint
    from repro.serving import (
        OnlineRequestEncoder,
        ReplayBuffer,
        ServingState,
        state_fingerprint,
    )
    from repro.serving.durable import scan_journal
    from repro.training import TrainConfig, Trainer, evaluate_model
except ImportError as error:  # the program under test is not in this checkout
    sys.exit(f"bench: cannot import the program under test from {ROOT / 'src'}: {error}")

from bench import drivers, gen, trace
from bench.drivers import Cluster, Target, expected_bytes, reference_pipeline, response_bytes
from bench.probe import PROBE_REFERENCE_S, PROBE_VERSION, SpeedProbe, speed_factor

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = ROOT / "results" / "bench"
LAYER_NAMES = [metric["name"] for metric in SPEC["per_layer"]]
#: The tail percentile of every workload: p90, not p95.  The run-time cap
#: leaves the open loop 1600-4500 arrivals; in windows of 200 a p90 has the 20
#: samples beyond it the issue asks for, a p95 would need windows of 400 and
#: leave half as many of them.
TAIL_PERCENTILE = 90
MIN_BEYOND_TAIL = 20
PARITY_SAMPLE = 256
AUC_FLOOR = 0.60
#: Checks that say how far to trust a run's numbers, not whether its outputs
#: are right: they put metrics under ``unresolved``, never ``correct`` to false.
QUALIFIERS = ("generator_on_time", "tail_under_limit")


def setup_count(args, workload: gen.Workload) -> int:
    """Fresh set-ups in this run: a traced run needs the deployment, not the
    timing; a smoke run needs a median."""
    return 1 if args.trace else 3 if args.smoke else workload.setups


def min_beyond(args) -> int:
    """Samples required beyond the tail percentile; a smoke run is too short
    to have them and only checks the schema."""
    return 1 if args.smoke else MIN_BEYOND_TAIL


# ---------------------------------------------------------------------- #
# host block
# ---------------------------------------------------------------------- #
def host_block() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {n: os.environ.get(n) for n in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "gil_switch_interval_s": sys.getswitchinterval(),
        "git_sha": sha,
        "probe_version": PROBE_VERSION,
        "probe_reference_s": PROBE_REFERENCE_S,
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #
def timed_setups(build, probe: SpeedProbe, count: int):
    """``count`` fresh set-ups; returns (scaled seconds, raw seconds, last built)."""
    scaled, raw, built = [], [], None
    for _ in range(count):
        if built is not None:
            built.close()
            built = None
        # A replica starts with no garbage: without this every third set-up
        # pays a full collection of the previous ones' debris (100 ms for 40).
        gc.collect()
        before = probe()
        start = time.perf_counter()
        built = build()
        seconds = time.perf_counter() - start
        raw.append(seconds)
        scaled.append(seconds * speed_factor(before, probe()))
    return scaled, raw, built


def run_serving(args, fixture: gen.Fixture, inputs: gen.Inputs, scratch: Path,
                probe: SpeedProbe, home: int) -> Dict[str, object]:
    workload = inputs.workload
    checkpoint = save_checkpoint(
        create_model(workload.model, fixture.schema, gen.MODEL_CONFIG),
        scratch / f"{workload.model}.npz",
    )
    reference = reference_pipeline(fixture, checkpoint)
    first = inputs.contexts[inputs.ops[0][1]]
    first_expected = response_bytes(reference.run(first))
    setups = itertools.count()
    checks: Dict[str, object] = {}

    def build() -> Cluster:
        cluster = Cluster(workload, fixture, checkpoint, scratch / f"store-{next(setups)}")
        try:
            if response_bytes(cluster.frontend.serve(first)) != first_expected:
                raise RuntimeError("first response after set-up differs from the reference")
        except BaseException:
            cluster.close()
            raise
        return cluster

    setup_scaled, setup_raw, cluster = timed_setups(build, probe, setup_count(args, workload))
    try:
        if args.trace:
            return trace.serving_layers(args, fixture, inputs, cluster, reference,
                                        checkpoint, scratch, probe, home, LAYER_NAMES, RESULTS)
        target = Target(cluster.frontend, inputs.contexts, bool(workload.feedback_every))
        cpu = drivers.cpu_clock(cluster.child_pids)
        closed_ops = inputs.ops[: inputs.closed_windows * workload.closed_window]

        # Warm to steady state: the whole operation sequence once, untimed
        # (both timed phases replay its head).
        if workload.feedback_every:
            target.prime()
        warm = drivers.closed_loop(target, inputs.ops, workload.closed_window,
                                   lambda: PROBE_REFERENCE_S, cpu)
        warm_failed = sum(w.failed for w in warm)
        if cluster.frontend.cache is not None:
            cluster.frontend.cache.reset_stats()

        # Parity sample: evenly spaced serves of the timed closed-loop pass.
        check = None
        if not workload.feedback_every:
            step = max(1, len(closed_ops) // PARITY_SAMPLE)
            sample = [op[1] for op in closed_ops[::step]][:PARITY_SAMPLE]
            wanted = dict(zip(sample, expected_bytes(
                reference, [inputs.contexts[i] for i in sample])))
            seen = set()

            def check(op, response) -> bool:
                if op[1] not in wanted:
                    return True
                seen.add(op[1])
                return response_bytes(response) == wanted[op[1]]

        closed = drivers.closed_loop(target, closed_ops, workload.closed_window,
                                     probe, cpu, check)
        if workload.cache:
            # A closed-loop burst has duplicates of a hot context in flight at
            # once, which all miss; the band is for one-at-a-time arrivals.
            checks["cache_hit_share_closed"] = cluster.frontend.cache.hit_rate
            cluster.frontend.cache.reset_stats()
        with drivers.on_cpu(home):
            opened = drivers.open_loop(target, inputs.open_ops,
                                       workload.open_window // drivers.BURSTS_PER_WINDOW,
                                       workload.open_rate, probe)

        over_limit = drivers.over_limit_share(opened, gen.LATENCY_LIMIT_MS)
        if workload.feedback_every:
            serves_only(opened, inputs.open_ops)
            share = cluster.frontend.cache.hit_rate
            checks["cache_hit_share_open"] = share
            checks["cache_hit_share_in_band"] = (
                gen.HIT_SHARE_BAND[0] <= share <= gen.HIT_SHARE_BAND[1])
            checks.update(feedback_checks(fixture, inputs, cluster, checkpoint))
        else:
            checks["parity_sampled"] = len(seen)
            checks["parity_sample_complete"] = len(seen) == len(wanted)
        rss = drivers.peak_rss_mb(cluster.child_pids)
        served = cluster.frontend.stats()
    finally:
        cluster.close()

    windows = closed + opened
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    checks["parity_mismatches_or_failures"] = failed
    checks["warm_pass_failed"] = warm_failed
    checks["rejected"] = served["rejected"]
    phases = {
        "throughput_per_s": drivers.throughput(closed),
        "cpu_s_per_kunit": drivers.cpu_per_kunit(closed),
        "latency_p50_ms": drivers.latency(opened, 50),
        "latency_tail_ms": drivers.latency(opened, TAIL_PERCENTILE, min_beyond(args)),
    }
    lateness = sorted(value for w in opened for value in w.lateness)
    late = {f"gen.late_p{p}_ms": 1e3 * drivers.percentile(lateness, p, min(10, min_beyond(args)))
            for p in (50, 99)}
    checks.update(late)
    checks["latency_limit_ms"] = gen.LATENCY_LIMIT_MS
    checks["over_limit_share"] = over_limit
    checks["tail_under_limit"] = phases["latency_tail_ms"].value <= gen.LATENCY_LIMIT_MS
    checks["open_loop_samples"] = sum(len(w.latencies) for w in opened)
    record = phase_record(phases, setup_scaled, setup_raw, rss)
    # A generator that ran late measured its own delay, not the system's.
    checks["generator_on_time"] = (
        late["gen.late_p99_ms"] <= 0.25 * phases["latency_p50_ms"].raw)
    if not checks["generator_on_time"]:
        record["unresolved"] = sorted({*record["unresolved"],
                                       "latency_p50_ms", "latency_tail_ms"})
    correct = (failed == 0 and warm_failed == 0 and all(
        value is not False for name, value in checks.items() if name not in QUALIFIERS))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        **record, "checks": checks,
        "errors": [e for w in windows for e in w.errors][:5],
        "window_detail": {
            "closed": [{"ops": w.ops, "seconds": w.seconds, "cpu_seconds": w.cpu_seconds,
                        "factor": w.factor, "failed": w.failed} for w in closed],
            "open_bursts": [{"ops": w.ops, "seconds": w.seconds, "factor": w.factor,
                             "pace": w.pace, "failed": w.failed} for w in opened],
            "open": [{"p50_ms": drivers.percentile(scaled, 50),
                      "tail_ms": drivers.percentile(scaled, TAIL_PERCENTILE, min_beyond(args)),
                      "raw_p50_ms": drivers.percentile(raw, 50),
                      "raw_tail_ms": drivers.percentile(raw, TAIL_PERCENTILE, min_beyond(args))}
                     for scaled, raw in zip(drivers.pooled_latencies(opened, True),
                                            drivers.pooled_latencies(opened, False))]},
    }


def serves_only(bursts: List[drivers.Window], ops: List[gen.Op]) -> None:
    """Keep the latencies of serve requests (and of anything that failed).

    A feedback is an event, not a request: it returns nothing to wait for.  It
    stays in the arrival stream, so the requests it delays are charged that
    delay from their due time, and it stays in ``attempted``, ``failed`` and
    the share over the limit.  Percentiles over all operations would put p50
    at the 88th percentile of the hits (57 % of operations), on the edge of
    the hit mode; over serves it sits at their 69th.
    """
    size = bursts[0].ops
    for index, burst in enumerate(bursts):
        chunk = ops[index * size:(index + 1) * size]
        burst.latencies = [value for value, op in zip(burst.latencies, chunk)
                           if op[0] == "serve" or math.isinf(value)]


def feedback_checks(fixture: gen.Fixture, inputs: gen.Inputs, cluster: Cluster,
                    checkpoint: Path) -> Dict[str, object]:
    """hot_feedback's oracles: dense journal, replay fingerprint, byte parity.

    The journal is the record of the feedback stream; replaying it over a
    fresh state must reproduce the live state's fingerprint, and a single
    pipeline over that *replayed* state (own model, cold caches) must serve
    the same bytes as the cluster does once its response cache is emptied.
    """
    journal = cluster.state.journal
    journal.sync()
    scan = scan_journal(journal.path)
    sequences = [sequence for sequence, _ in scan.records]
    replayed = ServingState.from_log_generator(fixture.generator, fixture.log)
    replayed.attach_replay(ReplayBuffer(OnlineRequestEncoder(fixture.world, fixture.schema)))
    for sequence, event in scan.records:
        replayed.apply_feedback(event.context, event.items, event.clicks, event.orders)
        replayed.feedback_seq = sequence
    cluster.frontend.cache.clear()
    sample = inputs.contexts[:PARITY_SAMPLE]
    served = cluster.frontend.serve_many(sample)
    expected = expected_bytes(reference_pipeline(fixture, checkpoint, replayed), sample)
    return {
        "journal_events": len(sequences),
        "journal_dense": sequences == list(range(1, len(sequences) + 1)),
        "replay_fingerprint_equal": state_fingerprint(replayed) == state_fingerprint(
            cluster.state),
        "parity_mismatches": sum(response_bytes(r) != e for r, e in zip(served, expected)),
        "parity_sampled": len(sample),
        "parity_ok": all(response_bytes(r) == e for r, e in zip(served, expected)),
    }


# ---------------------------------------------------------------------- #
# training workload
# ---------------------------------------------------------------------- #
class TrainSetup:
    """Encoded data, split, model and a verified first optimisation step."""

    def __init__(self, fixture: gen.Fixture, inputs: gen.Inputs) -> None:
        encoded = encode_eleme_log(fixture.log, fixture.world, fixture.schema)
        train, self.test = encoded.split_by_day([int(encoded.day.max())])
        self.data = train.subset(inputs.train_rows)
        self.config = TrainConfig(epochs=1, batch_size=gen.TRAIN_BATCH, seed=inputs.seed)
        model_config = replace(gen.MODEL_CONFIG, seed=inputs.model_seed)
        self.model = create_model("basm", fixture.schema, model_config)
        # Optimiser + first step on a scratch copy, so the timed fit below
        # starts from the same initial weights on every run.
        scratch = create_model("basm", fixture.schema, model_config)
        first = Trainer(self.config).fit(
            scratch, self.data.subset(np.arange(gen.TRAIN_BATCH)))
        self.first_loss = first.step_losses[0]
        if not np.isfinite(self.first_loss):
            raise RuntimeError(f"first training step produced loss {self.first_loss}")

    def close(self) -> None:
        pass


def run_training(args, fixture: gen.Fixture, inputs: gen.Inputs, scratch: Path,
                 probe: SpeedProbe, home: int) -> Dict[str, object]:
    first_losses = []

    def build() -> TrainSetup:
        setup = TrainSetup(fixture, inputs)
        first_losses.append(setup.first_loss)
        return setup

    setup_scaled, setup_raw, setup = timed_setups(
        build, probe, setup_count(args, inputs.workload))
    if args.trace:
        return trace.training_layers(args, fixture, inputs, setup, probe, LAYER_NAMES, RESULTS)
    workload = inputs.workload
    cpu = drivers.cpu_clock([])
    steps = drivers.StepWindows(workload.closed_window, probe, cpu)
    steps.open()
    result = Trainer(setup.config).fit(setup.model, setup.data, callback=steps)
    # evaluate_model sets the memory high-water mark; whether the fit's cyclic
    # garbage is still around when it does moved peak_rss_mb by 6 % run to run.
    gc.collect()
    report = evaluate_model(setup.model, setup.test)
    rss = drivers.peak_rss_mb([])

    windows = steps.windows
    scaled_steps = [1e3 * seconds * windows[index // workload.closed_window].factor
                    for index, seconds in enumerate(steps.step_seconds)]
    raw_steps = [1e3 * seconds for seconds in steps.step_seconds]
    rate = drivers.throughput(windows, gen.TRAIN_BATCH)
    cpu_cost = drivers.cpu_per_kunit(windows, gen.TRAIN_BATCH)
    per_window = [statistics.median(scaled_steps[i:i + workload.closed_window])
                  for i in range(0, len(scaled_steps), workload.closed_window)]
    quality = {"auc": report.auc, "tauc": report.tauc, "cauc": report.cauc}
    first_window = statistics.median(steps.losses[: workload.closed_window])
    last_window = statistics.median(steps.losses[-workload.closed_window:])
    checks = {
        **{name: repr(value) for name, value in quality.items()},
        "quality_above_floor": min(quality.values()) >= AUC_FLOOR,
        "loss_finite": bool(np.all(np.isfinite(steps.losses))),
        "loss_first_window": first_window, "loss_last_window": last_window,
        "loss_decreasing": last_window < first_window,
        "first_step_loss_repeats": len(set(first_losses)) == 1,
        "steps": result.steps, "step_samples": len(scaled_steps),
    }

    def step_time(p: float, beyond: int) -> drivers.Phase:
        return drivers.Phase(drivers.percentile(scaled_steps, p, beyond),
                             drivers.percentile(raw_steps, p, beyond),
                             drivers.drift(per_window), len(windows))

    phases = {
        "throughput_per_s": rate,
        "cpu_s_per_kunit": cpu_cost,
        "latency_p50_ms": step_time(50, 10),
        "latency_tail_ms": step_time(TAIL_PERCENTILE, min_beyond(args)),
    }
    failed = inputs.train_steps - result.steps
    return {
        "correct": failed == 0 and all(v is not False for v in checks.values()),
        "attempted": inputs.train_steps, "failed": failed,
        **phase_record(phases, setup_scaled, setup_raw, rss),
        "checks": checks, "errors": [],
    }


def phase_record(phases: Dict[str, drivers.Phase], setup_scaled: List[float],
                 setup_raw: List[float], rss: float) -> Dict[str, object]:
    """The metric values of a run with their raw twins, drift and what is unresolved."""
    return {
        "values": {"setup_s": statistics.median(setup_scaled),
                   **{name: phase.value for name, phase in phases.items()},
                   "peak_rss_mb": rss},
        "raw": {"setup_s": statistics.median(setup_raw), "setup_s_all": setup_raw,
                **{name: phase.raw for name, phase in phases.items()}},
        "drift": {name: phase.drift for name, phase in phases.items()},
        "windows": {name: phase.windows for name, phase in phases.items()},
        "unresolved": [name for name, phase in phases.items() if not phase.steady],
    }


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def run_once(args) -> Dict[str, object]:
    """Run one workload; returns the full record (also written to disk)."""
    host = host_block()
    allowed = os.sched_getaffinity(0)
    home, work = drivers.cpu_roles()
    # Everything the run builds inherits this: one CPU for the work and the probe.
    os.sched_setaffinity(0, {work})
    host["cpu_roles"] = {"work": work, "open_loop_generator": home}
    probe = SpeedProbe(work)
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    tempfile.tempdir = str(scratch)  # anything the program spills stays in the checkout
    try:
        started = time.perf_counter()
        fixture = gen.build_fixture(RESULTS)
        inputs = gen.generate(args.workload, args.seed, args.seconds, fixture, args.smoke)
        generated = time.perf_counter() - started
        runner = run_training if args.workload == "train_basm" else run_serving
        outcome = runner(args, fixture, inputs, scratch, probe, home)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        os.sched_setaffinity(0, allowed)
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    factors = [PROBE_REFERENCE_S / sample for sample in probe.samples]
    if args.trace:
        outcome["values"]["host.speed_factor_median"] = statistics.median(factors)
        outcome["values"]["host.speed_factor_iqr"] = drivers.iqr_share(factors)
    host.update(loadavg_end=os.getloadavg(), wall_s=time.perf_counter() - started,
                input_generation_s=generated, probe_samples=len(factors),
                speed_factor_median=statistics.median(factors),
                speed_factor_min=min(factors), speed_factor_max=max(factors))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": inputs.workload.why,
        "input_digest": inputs.digest, "validation_report": inputs.report,
        "host": host, **outcome,
        "metrics": {name: {"value": outcome["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_record(record: Dict[str, object]) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  ({record['seconds']} s of measurement asked) ==")
    print(f"why: {record['why']}")
    print(f"input digest: {record['input_digest']}")
    raw = record.get("raw", {})
    drift = record.get("drift", {})
    for name, metric in record["metrics"].items():
        extras = []
        if name in raw:
            extras.append(f"raw {raw[name]:.6g}")
        if name in drift:
            extras.append(f"drift {drift[name]:.3f}")
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s} {'  '.join(extras)}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}  unresolved {record['unresolved']}")
    for title in ("checks", "validation_report", "host"):
        print(f"{title}:")
        for key, value in record[title].items():
            print(f"  {key}: {value}")
    if record["errors"]:
        print(f"errors: {record['errors']}")
    print(f"written to {record['path']}")


def final_line(record: Dict[str, object]) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------- #
# --check: BENCHMARK.json against a smoke run of everything
# ---------------------------------------------------------------------- #
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spec(args) -> int:
    problems: List[str] = []
    names = [w["name"] for w in SPEC["workloads"]]
    if sorted(names) != sorted(gen.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(gen.WORKLOADS)}")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            if not _NAME.match(entry["name"]):
                problems.append(f"bad name {entry['name']!r} in {group}")
    for name in names:
        for traced in (0, 1):
            run_args = argparse.Namespace(**{**vars(args), "workload": name, "trace": traced,
                                             "smoke": True, "seconds": 3})
            record = run_once(run_args)
            declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace {traced}: metrics differ: "
                                f"{sorted(set(want) ^ set(got))}")
            if not record["correct"]:
                problems.append(f"{name} trace {traced}: correct is false: "
                                f"{record['checks']}")
            print(f"checked {name} trace {traced}: {len(got)} metrics, "
                  f"correct {record['correct']}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how much measurement to size the fixed work for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few seconds per workload: schema and correctness only")
    parser.add_argument("--check", action="store_true",
                        help="validate BENCHMARK.json against a smoke run of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 3.0)
    if not args.check and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.check:
            return check_spec(args)
        record = run_once(args)
    finally:
        # No process of ours outlives the run, on any path out of it.
        drivers.stop_resource_tracker()
    print_record(record)
    print(final_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
