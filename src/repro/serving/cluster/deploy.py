"""Rolling model deploys across the serving cluster, shard by shard.

A refreshed checkpoint should reach traffic without downtime *and* without
betting the whole cluster on it at once.  :class:`RollingDeploy` sequences
the existing promotion path — each worker's ``swap_model`` drives
:func:`repro.serving.ranker.hot_swap` (schema-fingerprint check, volatile
feature-cache drop) plus the embedding-ANN re-export — one shard at a time,
and between shards serves probe requests through the freshly swapped worker
and validates the responses.  While the deploy is in flight, swapped shards
serve the new model and the rest keep serving the old one; the response
cache cannot mix them because each worker's ``model_version`` is part of
the cache key.

A failed health check (or a swap error) aborts the deploy and rolls every
already-swapped shard back to the previous model, so the cluster ends on
exactly one version either way — new everywhere on success, old everywhere
on failure (:class:`RollingDeployError` carries the partial report).  A
restore that itself fails (a dead process child) does not stop the others;
the shard is named in the report's ``rollback_failures``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ...data.world import RequestContext
from ...models.base import BaseCTRModel
from ..pipeline import ServeRequest, ServeResponse
from .frontend import ClusterFrontend

__all__ = ["DeployReport", "RollingDeploy", "RollingDeployError", "ShardDeployResult"]


def default_health_check(responses: Sequence[ServeResponse]) -> bool:
    """A healthy shard exposes a non-empty, finite-scored list per probe."""
    if not responses:
        return False
    for response in responses:
        if response.items is None or len(response.items) == 0:
            return False
        if response.scores is None or not np.all(np.isfinite(response.scores)):
            return False
    return True


@dataclass
class ShardDeployResult:
    """Outcome of one shard's swap + health probe."""

    worker_id: str
    healthy: bool
    model_version: int
    probe_seconds: float = 0.0
    error: str = ""


@dataclass
class DeployReport:
    """What a rolling deploy did, shard by shard, in order."""

    shards: List[ShardDeployResult] = field(default_factory=list)
    completed: bool = False
    rolled_back: bool = False
    #: Shards whose rollback restore raised: worker id -> the error's repr.
    #: They may still serve the aborted model.
    rollback_failures: Dict[str, str] = field(default_factory=dict)
    #: Snapshot generation published before the first swap (durable clusters
    #: only): the warm-rollback point — a crash mid-deploy recovers the full
    #: feedback window as of promotion start, not a cold state.
    pre_deploy_snapshot: Optional[int] = None

    def summary(self) -> str:
        status = (
            "completed" if self.completed
            else "rolled back" if self.rolled_back
            else "in flight"
        )
        detail = ", ".join(
            f"{shard.worker_id}:{'ok' if shard.healthy else 'FAIL'}"
            f" v{shard.model_version} ({1e3 * shard.probe_seconds:.1f}ms)"
            for shard in self.shards
        )
        snapshot = (
            f" [pre-deploy snapshot gen {self.pre_deploy_snapshot}]"
            if self.pre_deploy_snapshot is not None else ""
        )
        failed = (
            f" [rollback FAILED on {', '.join(self.rollback_failures)}]"
            if self.rollback_failures else ""
        )
        return f"rolling deploy {status} — {detail or '(no shards)'}{snapshot}{failed}"


class RollingDeployError(RuntimeError):
    """The deploy aborted; the cluster was rolled back to the previous model."""

    def __init__(self, message: str, report: DeployReport) -> None:
        super().__init__(message)
        self.report = report


class RollingDeploy:
    """Shard-by-shard promotion with a health gate between shards."""

    def __init__(
        self,
        frontend: ClusterFrontend,
        probe_requests: Sequence[Union[ServeRequest, RequestContext]],
        health_check: Optional[Callable[[Sequence[ServeResponse]], bool]] = None,
        probe_timeout: float = 30.0,
    ) -> None:
        if not probe_requests:
            raise ValueError("a rolling deploy needs at least one probe request")
        self.frontend = frontend
        self.probe_requests = list(probe_requests)
        self.health_check = health_check or default_health_check
        self.probe_timeout = probe_timeout

    # ------------------------------------------------------------------ #
    def _probe(self, worker) -> tuple:
        """Serve the probes through this worker directly; (healthy, seconds, error).

        Probes bypass the ring on purpose: they must exercise the shard
        that just swapped, whatever users they mention.  They also bypass
        the response cache, so a stale cached response can never vouch for
        a broken model.
        """
        start = time.perf_counter()
        try:
            futures = [
                worker.submit(ClusterFrontend._as_request(request))
                for request in self.probe_requests
            ]
            responses = [future.result(timeout=self.probe_timeout) for future in futures]
        except Exception as error:  # noqa: BLE001 - any probe failure is unhealthy
            return False, time.perf_counter() - start, repr(error)
        elapsed = time.perf_counter() - start
        try:
            healthy = bool(self.health_check(responses))
        except Exception as error:  # noqa: BLE001
            return False, elapsed, repr(error)
        return healthy, elapsed, "" if healthy else "health check rejected responses"

    def run(self, model: BaseCTRModel) -> DeployReport:
        """Promote ``model`` across every shard, health-gated in between.

        Returns the per-shard report on success; raises
        :class:`RollingDeployError` after rolling all swapped shards back
        when any shard fails its swap or health probe.

        On a durable cluster a snapshot generation is published *before* the
        first swap: should the deploy (or the process) die mid-promotion,
        recovery restarts from the full pre-deploy feedback window — a warm
        rollback instead of a cold boot.
        """
        report = DeployReport()
        if getattr(self.frontend, "durable", None) is not None:
            report.pre_deploy_snapshot = self.frontend.snapshot().generation
        swapped: List[tuple] = []  # (worker, previous_model), in swap order
        for worker in self.frontend.workers.values():
            try:
                previous = worker.swap_model(model)
            except Exception as error:
                self._rollback(swapped, report)
                report.shards.append(
                    ShardDeployResult(
                        worker_id=worker.worker_id, healthy=False,
                        model_version=worker.model_version, error=repr(error),
                    )
                )
                raise RollingDeployError(
                    f"swap failed on shard {worker.worker_id!r}: {error}"
                    f"{_rollback_note(report)}", report
                ) from error
            swapped.append((worker, previous))
            healthy, probe_seconds, error = self._probe(worker)
            report.shards.append(
                ShardDeployResult(
                    worker_id=worker.worker_id, healthy=healthy,
                    model_version=worker.model_version,
                    probe_seconds=probe_seconds, error=error,
                )
            )
            if not healthy:
                self._rollback(swapped, report)
                raise RollingDeployError(
                    f"health check failed on shard {worker.worker_id!r} "
                    f"({error}){_rollback_note(report)}", report
                )
        report.completed = True
        return report

    @staticmethod
    def _rollback(swapped: List[tuple], report: DeployReport) -> None:
        """Restore the previous model on every already-swapped shard.

        Each restore is itself a version-bumping swap, so cache entries
        written against the aborted version are stranded too.  The previous
        model is already this worker's own replica, so it is reinstalled
        as-is (``replicate=False``).  Every restore is attempted: one that
        raises is recorded in ``report.rollback_failures`` and the next
        shard is restored all the same.
        """
        for worker, previous in reversed(swapped):
            try:
                worker.swap_model(previous, replicate=False)
            except Exception as error:  # noqa: BLE001 - the other shards still roll back
                report.rollback_failures[worker.worker_id] = repr(error)
        report.rolled_back = bool(swapped)


def _rollback_note(report: DeployReport) -> str:
    """How the rollback went, for the error message."""
    if report.rollback_failures:
        return f"; rollback FAILED on {sorted(report.rollback_failures)}"
    return "; cluster rolled back" if report.rolled_back else ""
