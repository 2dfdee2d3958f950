"""Sharded multi-worker serving cluster (the scale-out layer over the
pipeline): consistent-hash user→shard routing, per-worker coalescing request
queues with admission control, a versioned-key TTL response cache, and
shard-by-shard rolling deploys with health gates — cluster output stays
byte-identical to the single-pipeline baseline.  There is one worker core
(``worker.ClusterWorker``: queue, dispatcher, counters, ``model_version``);
a process replica (``procworker.ProcessWorkerHandle``) is that worker with
an engine whose ``run_many`` is one frame out and one frame back over a
pipe to a child process holding the pipeline."""

from .cache import ResponseCache, context_hash
from .deploy import DeployReport, RollingDeploy, RollingDeployError, ShardDeployResult
from .frontend import ClusterConfig, ClusterFrontend, build_cluster
from .procworker import ProcessWorkerHandle
from .sharding import ConsistentHashRing
from .shm import MappedSegment, SegmentPublisher
from .supervisor import ProcessWorkerPool, Supervisor
from .worker import ClusterOverloadError, ClusterWorker

__all__ = [
    "ClusterConfig",
    "ClusterFrontend",
    "ClusterOverloadError",
    "ClusterWorker",
    "ConsistentHashRing",
    "DeployReport",
    "MappedSegment",
    "ProcessWorkerHandle",
    "ProcessWorkerPool",
    "ResponseCache",
    "SegmentPublisher",
    "Supervisor",
    "RollingDeploy",
    "RollingDeployError",
    "ShardDeployResult",
    "build_cluster",
    "context_hash",
]
