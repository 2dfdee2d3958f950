"""Speed probe: a frozen kernel timed beside every measured window.

The reference host is a shared 2-vCPU guest whose speed the guest cannot see
(steal time reads 0): each vCPU wanders by +-10 % over half a second to two
seconds and moves in steps of 20-45 % lasting seconds to minutes.  A timed
window is therefore bracketed by one pass of this kernel, run **on the CPU the
measured work runs on**, and the window's time is multiplied by
``PROBE_REFERENCE_S / probe seconds``.

Two things decide whether that repeats, both measured (``bench/README.md``):

* *Density.*  One pass every 50-150 ms tracks the wander; one every 400 ms
  does not (residual 1.5 % against 3.2 % on training steps).  So windows are
  short and every one is bracketed, and a pass is a single pass: the fastest
  of several ignores exactly the interruptions the work also suffers.
* *The mix.*  What slows this host is mostly contention for memory, which
  slows cache-resident arithmetic little and pointer-chasing a lot.  The
  kernel is therefore half cache-resident work (an interpreter loop, sixty
  request-sized numpy gather / matmul / argsort rounds, two mid-sized float32
  matmuls) and half an interpreter walk over a shuffled list of 200 000 small
  objects, far larger than the caches.  With that mix the four workloads slow
  down by 0.9-1.15 % for every 1 % the probe does; with the cache-resident half
  alone the threaded serving workloads slowed by 1.7-1.9 %.

The mix is frozen: changing any constant below changes every scaled metric,
so it bumps ``PROBE_VERSION`` and starts ``bench/history/aa.jsonl`` over.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

PROBE_VERSION = 2
#: Typical time of one pass on the reference host; only ratios to it matter.
PROBE_REFERENCE_S = 0.0030

_PY_ITERATIONS = 3000
_SMALL_ROUNDS = 60
_BIG_ROUNDS = 2
_OBJECTS = 200_000
_OBJECT_PICKS = 4000


class SpeedProbe:
    """Owns the probe's fixed operands so every call does identical work."""

    def __init__(self, cpu: int) -> None:
        rng = np.random.default_rng(20230403)
        self._table = rng.standard_normal((1200, 40)).astype(np.float32)
        self._rows = rng.integers(0, 1200, size=(_SMALL_ROUNDS, 30))
        self._weights = rng.standard_normal((40, 32)).astype(np.float32)
        self._left = rng.standard_normal((1024, 128)).astype(np.float32)
        self._right = rng.standard_normal((128, 64)).astype(np.float32)
        # Allocated in index order, listed in shuffled order: walking the list
        # jumps through memory the way a request's Python objects do.
        objects = [(index, float(index)) for index in range(_OBJECTS)]
        self._objects = [objects[i] for i in rng.permutation(_OBJECTS)]
        self._picks = [int(i) for i in rng.integers(0, _OBJECTS, size=_OBJECT_PICKS)]
        #: The CPU probed: the one the measured work runs on.
        self.cpu = cpu
        self.samples: List[float] = []

    def one_pass(self) -> float:
        """Seconds for one pass of the kernel on the calling thread's CPU."""
        start = time.perf_counter()
        bucket = {}
        trail = []
        total = 0
        for index in range(_PY_ITERATIONS):
            key = (index * 7) & 63
            bucket[key] = bucket.get(key, 0) + index
            if not index & 7:
                trail.append(key)
            total += len(trail) & 3
        checksum = 0.0
        for rows in self._rows:
            scores = (self._table[rows] @ self._weights).sum(axis=1)
            checksum += float(scores[np.argsort(-scores, kind="stable")[0]])
        for _ in range(_BIG_ROUNDS):
            checksum += float((self._left @ self._right)[0, 0])
        objects = self._objects
        for index in self._picks:
            total += objects[index][0]
        seconds = time.perf_counter() - start
        if total < 0 or checksum != checksum:  # keeps both results live
            raise RuntimeError("speed probe produced NaN")
        return seconds

    def __call__(self) -> float:
        """One pass on the probed CPU (the caller hops there and back if it
        runs elsewhere, as the open loop's generator does); the sample is kept."""
        allowed = os.sched_getaffinity(0)
        hop = allowed != {self.cpu}
        if hop:
            os.sched_setaffinity(0, {self.cpu})
        try:
            seconds = self.one_pass()
        finally:
            if hop:
                os.sched_setaffinity(0, allowed)
        self.samples.append(seconds)
        return seconds


def speed_factor(before_s: float, after_s: float) -> float:
    """What a window's time is multiplied by, from its two bracketing probes."""
    return PROBE_REFERENCE_S / (0.5 * (before_s + after_s))
