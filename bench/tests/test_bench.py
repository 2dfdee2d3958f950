"""Tests of the benchmark itself.  Run with ``python -m pytest bench/tests -q``.

They sit outside tier-1's ``testpaths`` on purpose: the smoke runs take about a
minute and a half, and tier-1 must not depend on the benchmark.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import drivers, gen  # noqa: E402 - needs the path set above
from bench.probe import PROBE_REFERENCE_S, speed_factor  # noqa: E402
from repro.serving import ClusterOverloadError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------- #
# the command, end to end
# ---------------------------------------------------------------------- #
def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=False, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_matches_benchmark_json(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_names_and_workloads():
    assert sorted(WORKLOADS) == sorted(gen.WORKLOADS)
    names = [e["name"] for group in ("workloads", "end_to_end", "per_layer")
             for e in SPEC[group]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_training_quality_is_bit_equal_for_one_seed():
    records = []
    for _ in range(2):
        smoke("train_basm", 0, seed=5)
        records.append(json.loads(
            (ROOT / "results/bench/train_basm-seed5-trace0.json").read_text()))
    first, second = (r["checks"] for r in records)
    assert (first["auc"], first["tauc"], first["cauc"]) == (
        second["auc"], second["tauc"], second["cauc"])
    assert records[0]["input_digest"] == records[1]["input_digest"]
    assert records[0]["attempted"] == records[1]["attempted"]


# ---------------------------------------------------------------------- #
# the generator
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fixture():
    return gen.build_fixture()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_function_of_the_seed(fixture, workload):
    first = gen.generate(workload, 7, 3.0, fixture, smoke=True)
    again = gen.generate(workload, 7, 3.0, fixture, smoke=True)
    other = gen.generate(workload, 8, 3.0, fixture, smoke=True)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.report == again.report


def test_generator_holds_each_workload_to_its_property(fixture):
    distinct = gen.generate("basm_inproc", 1, 3.0, fixture, smoke=True)
    assert distinct.report["repeat_share_all"] == 0.0
    hot = gen.generate("hot_feedback", 1, 3.0, fixture, smoke=True)
    low, high = gen.HIT_SHARE_BAND
    assert low <= hot.report["predicted_hit_share"] <= high
    assert hot.report["feedback_per_serve"] == pytest.approx(0.25, abs=0.01)
    # A stream without feedback never strands an entry: out of band, refused.
    serves_only = [op for op in hot.ops if op[0] == "serve"]
    assert gen.predicted_hit_share(serves_only, hot.contexts) > high


# ---------------------------------------------------------------------- #
# the drivers, against fake servers
# ---------------------------------------------------------------------- #
def done(value="ok") -> Future:
    future = Future()
    future.set_result(value)
    return future


class FakeTime:
    """A clock that only moves when someone sleeps or a server stalls."""

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_counts_the_wait_from_the_due_time():
    fake = FakeTime()
    rate, stall = 100.0, 0.050  # arrivals every 10 ms; one submit blocks 50 ms

    def submit(op):
        if op == 10:
            fake.now += stall
        return done()

    (window,) = drivers.open_loop(submit, list(range(20)), 20, rate,
                                  probe=lambda: PROBE_REFERENCE_S,
                                  sleep=fake.sleep, clock=fake.clock)
    latency = window.latencies
    assert latency[9] == pytest.approx(0.0, abs=1e-9)
    assert latency[10] == pytest.approx(stall, abs=1e-9)
    # Arrivals due during the stall are charged the time they waited for it:
    # a driver that times from the actual send would report 0 for all of them.
    for behind, index in enumerate(range(11, 15), start=1):
        assert latency[index] == pytest.approx(stall - behind / rate, abs=1e-9)
        assert window.lateness[index] == pytest.approx(stall - behind / rate, abs=1e-9)
    assert latency[16] == pytest.approx(0.0, abs=1e-9)
    assert window.failed == 0


def test_open_loop_keeps_its_schedule_in_probe_time():
    fake = FakeTime()
    sent = []

    def submit(op):
        sent.append(fake.now)
        return done()

    # A host the probe finds twice as slow is offered arrivals twice as far
    # apart: the same share of what it can do.
    (window,) = drivers.open_loop(submit, list(range(10)), 10, 100.0,
                                  probe=lambda: 2 * PROBE_REFERENCE_S,
                                  sleep=fake.sleep, clock=fake.clock)
    gaps = [later - earlier for earlier, later in zip(sent, sent[1:])]
    assert gaps == pytest.approx([0.02] * 9)
    assert window.factor == pytest.approx(0.5)


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_refusals_count_as_failed(loop):
    def submit(op):
        if op % 20 == 0:
            raise ClusterOverloadError("queue full")
        return done()

    ops = list(range(400))
    if loop == "closed":
        windows = drivers.closed_loop(submit, ops, 100, lambda: PROBE_REFERENCE_S,
                                      lambda: 0.0)
    else:
        fake = FakeTime()
        windows = drivers.open_loop(submit, ops, 100, 1000.0, lambda: PROBE_REFERENCE_S,
                                    sleep=fake.sleep, clock=fake.clock)
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    assert attempted == 400
    assert failed / attempted == pytest.approx(0.05)
    if loop == "open":
        assert sum(value == float("inf") for w in windows for value in w.latencies) == 20


def test_failed_check_counts_as_failed():
    windows = drivers.closed_loop(lambda op: done(op), list(range(100)), 50,
                                  lambda: PROBE_REFERENCE_S, lambda: 0.0,
                                  check=lambda op, result: result != 7)
    assert sum(w.failed for w in windows) == 1


def test_probe_scaling_cancels_a_uniform_slowdown():
    def windows(slowdown: float):
        return [drivers.Window(256, 0, 0.150 * slowdown * wobble, 0.140 * slowdown * wobble,
                               speed_factor(PROBE_REFERENCE_S * slowdown,
                                            PROBE_REFERENCE_S * slowdown))
                for wobble in (0.98, 1.0, 1.02, 1.01, 0.99, 1.0)]

    base, slow = windows(1.0), windows(1.2)
    assert drivers.throughput(slow).raw == pytest.approx(
        drivers.throughput(base).raw / 1.2, rel=1e-9)
    assert drivers.throughput(slow).value == pytest.approx(
        drivers.throughput(base).value, rel=0.02)
    assert drivers.cpu_per_kunit(slow).value == pytest.approx(
        drivers.cpu_per_kunit(base).value, rel=0.02)


def test_latency_is_the_median_over_windows_of_bursts_scaled_in_their_working_share():
    # Three percentile windows of five bursts each.  Within a window the bursts
    # ran at different speeds: the share of a latency that is work stretched
    # with the host, the share that is waiting did not.  Every latency is scaled
    # by its own burst's latency factor before the window's percentile is taken.
    wait = drivers.WAIT_SHARE

    def window(level_ms: float):
        return [drivers.Window(40, 0, 0.1, 0.0, factor,
                               latencies=[level_ms * 1e-3 * (wait + (1 - wait) / factor)] * 40)
                for factor in (0.5, 0.8, 1.0, 1.25, 2.0)]

    assert drivers.Window(1, 0, 0.1, 0.0, 1.0).latency_factor == 1.0
    assert 0.6 < drivers.Window(1, 0, 0.1, 0.0, 0.6).latency_factor < 1.0
    bursts = window(30.0) + window(10.0) + window(20.0)
    phase = drivers.latency(bursts, 50)
    assert phase.windows == 3
    assert phase.value == pytest.approx(20.0)  # median of 30, 10, 20: scaling undone
    assert phase.raw == pytest.approx(20.0)  # each window's raw median is its 1.0 burst
    assert phase.drift == pytest.approx(20.0 / 30.0)
    assert drivers.over_limit_share(bursts, 25.0) == pytest.approx(1 / 3)


def test_a_phase_is_steady_only_inside_the_hard_band():
    assert drivers.Phase(1.0, 1.0, 1.03, 30).steady
    assert drivers.Phase(1.0, 1.0, 0.97, 30).steady
    assert not drivers.Phase(1.0, 1.0, 1.031, 30).steady
    assert not drivers.Phase(1.0, 1.0, 0.96, 30).steady


def test_an_incorrect_run_exits_non_zero(monkeypatch, capsys):
    from bench import run

    record = {"correct": False, "attempted": 10, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_once", lambda args: record)
    monkeypatch.setattr(run, "print_record", lambda record: None)
    assert run.main(["--workload", "basm_inproc"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
    record["correct"] = True
    assert run.main(["--workload", "basm_inproc"]) == 0


def test_the_resource_tracker_is_stopped_and_waited_for():
    from multiprocessing import resource_tracker, shared_memory

    drivers.stop_resource_tracker()  # nothing running yet: a no-op
    segment = shared_memory.SharedMemory(create=True, size=64)
    tracker = resource_tracker._resource_tracker._pid
    segment.close()
    segment.unlink()
    assert tracker is not None and Path(f"/proc/{tracker}").exists()
    drivers.stop_resource_tracker()
    # Waited for, not just signalled: not even a zombie is left.
    assert not Path(f"/proc/{tracker}").exists()


def test_percentile_refuses_too_few_samples_beyond_it():
    assert drivers.percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="beyond"):
        drivers.percentile(list(range(199)), 95)
    with pytest.raises(ValueError, match="beyond"):
        drivers.percentile(list(range(100)), 95, min_beyond=20)
    # A failed operation is an infinite latency, not a dropped sample.
    assert drivers.percentile([1.0] * 50 + [float("inf")] * 50, 90) == float("inf")


def test_drift_is_last_third_over_first_third():
    assert drivers.drift([10.0] * 9) == 1.0
    assert drivers.drift([10.0] * 3 + [11.0] * 3 + [12.0] * 3) == pytest.approx(1.2)
