"""Load drivers and the statistics the metrics are made of.

Two drivers over one ``submit(op) -> Future`` callable:

* :func:`closed_loop` — saturation: submit one window of operations, gather
  them all, repeat.  Throughput and CPU cost come from here.
* :func:`open_loop` — a fixed arrival schedule that does not wait for the
  system.  Every operation is timed **from when it was due**, so a stall is
  charged to every request it delayed (no coordinated omission), and how late
  the generator itself ran is reported beside the latencies.

Work is fixed: a phase is a given operation sequence cut into windows of a
given operation count.  Every window is bracketed by the speed probe
(:mod:`bench.probe`) and carries the factor its times are multiplied by.
An operation that is refused, raises, times out or fails its check counts in
``failed`` and as an infinite latency.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.models import restore_model
from repro.serving import (
    ClusterConfig,
    DurableStateStore,
    OnlineRequestEncoder,
    PipelineConfig,
    ReplayBuffer,
    ServingState,
    build_cluster,
    build_pipeline,
)

from .gen import EXPOSURE_SIZE, RECALL_SIZE
from .probe import PROBE_REFERENCE_S, speed_factor

#: Seconds an operation may take before it is counted as failed.
OP_TIMEOUT_S = 30.0
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], p: float, min_beyond: int = 10) -> float:
    """The ``p``-th percentile, refused unless enough samples lie beyond it.

    A p95 of 40 samples is the second-largest value, which is an extreme, not
    a percentile; the helper raises instead of reporting it.
    """
    count = len(values)
    beyond = count * (100.0 - p) / 100.0
    if beyond < min_beyond:
        raise ValueError(
            f"p{p:g} of {count} samples has {beyond:.1f} samples beyond it, "
            f"fewer than {min_beyond}"
        )
    ordered = sorted(values)
    rank = p / 100.0 * (count - 1)
    low = int(math.floor(rank))
    high = min(low + 1, count - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if rank > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def drift(values: Sequence[float]) -> float:
    """Median of the last third over median of the first third (1.0 = steady)."""
    third = max(1, len(values) // 3)
    return statistics.median(values[-third:]) / statistics.median(values[:third])


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------- #
# process accounting (parent + worker processes)
# ---------------------------------------------------------------------- #
def _process_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK  # utime + stime


def cpu_clock(child_pids: Iterable[int]) -> Callable[[], float]:
    """CPU seconds used so far by this process and ``child_pids`` together."""
    pids = list(child_pids)

    def read() -> float:
        return time.process_time() + sum(_process_cpu_seconds(pid) for pid in pids)

    return read


def peak_rss_mb(child_pids: Iterable[int]) -> float:
    """High-water resident memory of this process plus ``child_pids``, in MB."""
    total_kb = 0
    for pid in [os.getpid(), *child_pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_roles():
    """``(home, work)``: the load generator's CPU during the open loop, and the
    CPU everything else runs on.

    Sized to the reference host's two cores.  The bench process pins itself to
    ``work`` before it builds anything, so worker threads and worker processes
    inherit it: set-ups, the closed loop, training and the probe share one
    CPU, the only one whose speed then matters (and the closed loop is faster
    there than spread over two: 41 ms against 56 ms for 64 BASM requests,
    since the interpreter lock serialises the two threads anyway and a
    cross-CPU wake-up is slow on this guest).  Only the open loop needs the
    second CPU: a generator that shares the worker's CPU is woken up to 5 ms
    late by the scheduler, so for that phase it moves to ``home``.
    With one allowed CPU both roles share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


@contextmanager
def on_cpu(cpu: int):
    """Run the calling thread on ``cpu`` for the duration."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# ---------------------------------------------------------------------- #
# the system under load: one deployment, and the adapter the drivers call
# ---------------------------------------------------------------------- #
PIPELINE_CONFIG = PipelineConfig(recall_size=RECALL_SIZE, exposure_size=EXPOSURE_SIZE)


def parity_bytes(candidates, items, scores) -> bytes:
    """What parity compares: the recalled pool, exposed items and scores."""
    return b"|".join(np.ascontiguousarray(array).tobytes() + array.dtype.str.encode()
                     for array in (candidates, items, scores))


def response_bytes(response) -> bytes:
    return parity_bytes(response.candidates, response.items, response.scores)


class Cluster:
    """One freshly set-up serving deployment and what it must release."""

    def __init__(self, workload, fixture, checkpoint: Path,
                 scratch: Path) -> None:
        self.state = ServingState.from_log_generator(fixture.generator, fixture.log)
        self.encoder = OnlineRequestEncoder(fixture.world, fixture.schema)
        self.model, _ = restore_model(checkpoint, fixture.schema)
        self.durable = None
        if workload.feedback_every:
            self.state.attach_replay(ReplayBuffer(self.encoder))
            self.durable = DurableStateStore(scratch, fsync="interval")
        elif workload.process:
            # The pool would otherwise put its store under the system tmp dir.
            self.durable = DurableStateStore(scratch, fsync="off")
        self.frontend = build_cluster(
            fixture.world, self.model, self.encoder, self.state,
            config=ClusterConfig(num_workers=1, cache_enabled=workload.cache,
                                 cache_ttl_seconds=600.0),
            pipeline_config=PIPELINE_CONFIG, process_workers=workload.process,
            durable=self.durable,
        )

    @property
    def child_pids(self) -> List[int]:
        processes = [getattr(w, "process", None) for w in self.frontend.workers.values()]
        return [p.pid for p in processes if p is not None]

    def close(self) -> None:
        self.frontend.close()
        if self.durable is not None:
            self.durable.close()


def stop_resource_tracker() -> None:
    """Stop the interpreter's shared-memory resource tracker and wait for it.

    The first ``SharedMemory`` a process workload publishes starts a helper
    process that the interpreter never waits for: it ends by itself once the
    parent is gone, which is *after* the run.  Every worker has been joined by
    ``Cluster.close`` when this is called, so closing our end of its pipe ends
    it and the wait returns at once.  A no-op when no tracker was started.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


class Target:
    """Adapts a cluster frontend to the drivers' ``submit(op) -> Future``."""

    def __init__(self, frontend, contexts, track_latest: bool) -> None:
        self.frontend = frontend
        self.contexts = contexts
        #: Most recent response per context: what a feedback op clicks on.
        self.latest: Dict[int, object] = {}
        self.track_latest = track_latest
        self._done = Future()
        self._done.set_result(None)

    def __call__(self, op) -> Future:
        if op[0] == "feedback":
            self.frontend.feedback(self.latest[op[1]], op[2])
            return self._done
        future = self.frontend.submit(self.contexts[op[1]], block=False)
        if self.track_latest:
            future.add_done_callback(lambda f, _index=op[1]: self._remember(_index, f))
        return future

    def prime(self) -> None:
        """Serve every context once, so each has a response to click on (and,
        with the response cache on, an entry to hit)."""
        for start in range(0, len(self.contexts), 64):
            chunk = range(start, min(start + 64, len(self.contexts)))
            served = self.frontend.serve_many([self.contexts[i] for i in chunk])
            self.latest.update(zip(chunk, served))

    def _remember(self, index: int, future: Future) -> None:
        if future.exception() is None:
            self.latest[index] = future.result()


def reference_pipeline(fixture, checkpoint: Path, state=None):
    """The oracle: a single ``ServingPipeline`` with its own model and caches."""
    state = state or ServingState.from_log_generator(fixture.generator, fixture.log)
    model, _ = restore_model(checkpoint, fixture.schema)
    encoder = OnlineRequestEncoder(fixture.world, fixture.schema)
    return build_pipeline(fixture.world, model, encoder, state, PIPELINE_CONFIG)


def expected_bytes(pipeline, contexts) -> List[bytes]:
    out: List[bytes] = []
    for start in range(0, len(contexts), 64):
        out.extend(response_bytes(r) for r in pipeline.run_many(contexts[start:start + 64]))
    return out


# ---------------------------------------------------------------------- #
# windows
# ---------------------------------------------------------------------- #
#: Share of an open-loop latency, at the reference speed, that is waiting set
#: in wall-clock time and not work: the batcher's 2 ms collection timer, the
#: interpreter's 5 ms switch interval, thread and process wake-ups, pipe
#: transfers.  A host at speed ``f`` stretches the working share by ``1 / f``
#: and the waiting share not at all, so a latency is brought back to the
#: reference speed by ``f / (WAIT_SHARE * f + 1 - WAIT_SHARE)``: ``f`` for pure
#: work, 1 for pure waiting, and 1 at the reference speed whatever the share.
#: Measured: with the host at 0.6 of the reference speed (third A/A set in
#: bench/history) raw p50 / tail read 19-33 % above the two quiet sets and
#: multiplied by ``f`` 19-27 % below; the share that reconciles them is
#: 0.56-0.69 on the five metrics with a timer in them, and with 0.6 their
#: medians land within 4 % of the quiet ones (bench/README.md has the table).
WAIT_SHARE = 0.6


@dataclass
class Window:
    """One timed window: fixed operations, measured time, its probe factor."""

    ops: int
    failed: int
    seconds: float
    cpu_seconds: float
    factor: float
    #: Open loop only: per-operation seconds from due time (inf = failed) and
    #: how late the generator submitted each one.
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Open loop only: what the arrival gaps were stretched by (host slowness).
    pace: float = 1.0

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.factor

    @property
    def latency_factor(self) -> float:
        """What this burst's open-loop latencies are multiplied by."""
        return self.factor / (WAIT_SHARE * self.factor + 1.0 - WAIT_SHARE)


Submit = Callable[[object], "object"]
Check = Callable[[object, object], bool]


def _settle(pending, errors: List[str]):
    """Wait for every submitted operation: ``(failed count, [(op, result)])``."""
    failed = 0
    outcomes = []
    for op, future in pending:
        try:
            outcomes.append((op, future.result(timeout=OP_TIMEOUT_S)))
        except Exception as error:  # noqa: BLE001 - any failure is a failed op
            failed += 1
            errors.append(f"{type(error).__name__}: {error}")
    return failed, outcomes


def closed_loop(submit: Submit, ops: Sequence, window: int, probe: Callable[[], float],
                cpu: Callable[[], float], check: Optional[Check] = None) -> List[Window]:
    """Saturate: per window, submit every operation, then gather every result."""
    windows: List[Window] = []
    before = probe()
    for offset in range(0, len(ops) - window + 1, window):
        chunk = ops[offset:offset + window]
        errors: List[str] = []
        refused = 0
        pending = []
        cpu_start = cpu()
        start = time.perf_counter()
        for op in chunk:
            try:
                pending.append((op, submit(op)))
            except Exception as error:  # noqa: BLE001 - refused counts as failed
                refused += 1
                errors.append(f"{type(error).__name__}: {error}")
        failed, outcomes = _settle(pending, errors)
        seconds = time.perf_counter() - start
        cpu_seconds = cpu() - cpu_start
        after = probe()
        if check is not None:
            failed += sum(not check(op, result) for op, result in outcomes)
        windows.append(Window(len(chunk), refused + failed, seconds, cpu_seconds,
                              speed_factor(before, after), errors=errors[:3]))
        before = after
    return windows


def open_loop(submit: Submit, ops: Sequence, window: int, rate: float,
              probe: Callable[[], float], check: Optional[Check] = None,
              sleep: Callable[[float], None] = time.sleep,
              clock: Callable[[], float] = time.perf_counter) -> List[Window]:
    """Fixed-rate arrivals, uniformly spaced; latency runs from the due time.

    Each window (a *burst*: ``BURSTS_PER_WINDOW`` of them make one percentile
    window) is its own short experiment: probe, ``window`` arrivals, drain,
    probe.  The schedule never waits for the system — a stalled server finds
    the arrivals it missed queued behind the stall, each one timed from the
    instant it should have been sent.

    ``rate`` is the arrival rate **at the reference speed**.  The schedule is
    kept in the probe's time like every other timing: when the host runs 25 %
    slow the arrivals are spaced 25 % wider, so the system is offered the same
    share of what it can do.  At a rate fixed in wall-clock seconds a slow
    hour of this host took utilisation from 40 % to 55 % and the median
    latency from 10 to 17 ms with no change to the code.  The pace comes from
    the median of the last five probes, never from the system under test.
    """
    windows: List[Window] = []
    before = probe()
    recent = deque([before], maxlen=5)
    for offset in range(0, len(ops) - window + 1, window):
        chunk = ops[offset:offset + window]
        errors: List[str] = []
        done_at: Dict[int, float] = {}
        due_at: List[float] = []
        lateness: List[float] = []
        pending = []
        refused = 0
        pace = statistics.median(recent) / PROBE_REFERENCE_S
        gap = pace / rate
        origin = clock() + 0.001
        for index, op in enumerate(chunk):
            due = origin + index * gap
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            due_at.append(due)
            lateness.append(max(0.0, clock() - due))
            try:
                future = submit(op)
            except Exception as error:  # noqa: BLE001 - refused counts as failed
                refused += 1
                errors.append(f"{type(error).__name__}: {error}")
                continue
            future.add_done_callback(
                lambda _future, _index=index: done_at.__setitem__(_index, clock()))
            pending.append(((index, op), future))
        failed, outcomes = _settle(pending, errors)
        seconds = clock() - origin
        after = probe()
        recent.append(after)
        latencies = [math.inf] * len(chunk)
        for (index, op), result in outcomes:
            if check is not None and not check(op, result):
                failed += 1
                continue
            while index not in done_at:  # result() can wake before the callback ran
                time.sleep(0)
            latencies[index] = done_at[index] - due_at[index]
        windows.append(Window(len(chunk), refused + failed, seconds, 0.0,
                              speed_factor(before, after), latencies=latencies,
                              lateness=lateness, errors=errors[:3], pace=pace))
        before = after
    return windows


class StepWindows:
    """``Trainer.fit`` callback cutting the step stream into probed windows.

    The trainer calls it after every optimisation step; every ``window``
    steps it closes a window and runs the probe, whose time is kept out of
    both neighbouring windows.
    """

    def __init__(self, window: int, probe: Callable[[], float],
                 cpu: Callable[[], float]) -> None:
        self.window = window
        self.probe = probe
        self.cpu = cpu
        self.windows: List[Window] = []
        self.step_seconds: List[float] = []
        self.losses: List[float] = []
        self._before = 0.0
        self._opened = self._last = self._cpu_opened = 0.0

    def open(self) -> None:
        """Call right before ``fit``: probe, then start the first window."""
        self._before = self.probe()
        self._cpu_opened = self.cpu()
        self._opened = self._last = time.perf_counter()

    def __call__(self, step: int, loss: float) -> None:
        now = time.perf_counter()
        self.step_seconds.append(now - self._last)
        self.losses.append(loss)
        self._last = now
        if step % self.window:
            return
        cpu_seconds = self.cpu() - self._cpu_opened
        after = self.probe()
        self.windows.append(Window(self.window, 0, now - self._opened, cpu_seconds,
                                   speed_factor(self._before, after)))
        self._before = after
        self._cpu_opened = self.cpu()
        self._opened = self._last = time.perf_counter()


# ---------------------------------------------------------------------- #
# from windows to metrics
# ---------------------------------------------------------------------- #
#: A phase is steady when the median of its last third of windows is within
#: this share of the median of its first third.
DRIFT_BAND = 0.03


@dataclass
class Phase:
    """One metric of a phase: the probe-scaled value, its raw twin, its drift."""

    value: float
    raw: float
    drift: float
    windows: int

    @property
    def steady(self) -> bool:
        return 1.0 - DRIFT_BAND <= self.drift <= 1.0 + DRIFT_BAND


def throughput(windows: Sequence[Window], units_per_op: float = 1.0) -> Phase:
    """Median over windows of operations (x units) per scaled second."""
    scaled = [w.ops * units_per_op / w.scaled_seconds for w in windows]
    raw = [w.ops * units_per_op / w.seconds for w in windows]
    return Phase(statistics.median(scaled), statistics.median(raw), drift(scaled),
                 len(windows))


def cpu_per_kunit(windows: Sequence[Window], units_per_op: float = 1.0) -> Phase:
    """CPU seconds per 1000 units over the whole phase, each window scaled."""
    units = sum(w.ops for w in windows) * units_per_op / 1000.0
    scaled = sum(w.cpu_seconds * w.factor for w in windows) / units
    raw = sum(w.cpu_seconds for w in windows) / units
    per_window = [w.cpu_seconds * w.factor / w.ops for w in windows]
    # The kernel's CPU clock ticks every 10 ms: a window of a few ticks can
    # read 0, and a ratio of such windows says nothing about drift.
    steady = drift(per_window) if statistics.median(per_window) > 0 else 1.0
    return Phase(scaled, raw, steady, len(windows))


#: Probed bursts per percentile window of the open loop.  A window must hold
#: 200 arrivals for its p90, which at the pinned rates lasts 0.3-1 s; probes
#: that far apart say nothing about the time between them (their values
#: correlate 0.1-0.5, against 0.8 at 50 ms).  So arrivals come in bursts of a
#: fifth of a window, each drained and bracketed by the probe, every latency is
#: scaled from its own burst's factor, and five bursts are pooled for a percentile.
BURSTS_PER_WINDOW = 5


def pooled_latencies(bursts: Sequence[Window], scaled: bool) -> List[List[float]]:
    """Per percentile window, the latencies in ms of its bursts."""
    return [[1e3 * value * (burst.latency_factor if scaled else 1.0)
             for burst in bursts[start:start + BURSTS_PER_WINDOW]
             for value in burst.latencies]
            for start in range(0, len(bursts) - BURSTS_PER_WINDOW + 1, BURSTS_PER_WINDOW)]


def latency(bursts: Sequence[Window], p: float, min_beyond: int = 10) -> Phase:
    """Median over windows of the per-window ``p``-th percentile, in ms, every
    latency multiplied by its burst's :attr:`Window.latency_factor`."""
    scaled = [percentile(window, p, min_beyond) for window in pooled_latencies(bursts, True)]
    raw = [percentile(window, p, min_beyond) for window in pooled_latencies(bursts, False)]
    return Phase(statistics.median(scaled), statistics.median(raw), drift(scaled), len(scaled))


def over_limit_share(windows: Sequence[Window], limit_ms: float) -> float:
    """Share of operations slower than the limit (scaled like the latency
    metrics); failures, being infinite, count."""
    total = sum(len(w.latencies) for w in windows)
    over = sum(1e3 * value * w.latency_factor > limit_ms
               for w in windows for value in w.latencies)
    return over / max(total, 1)
