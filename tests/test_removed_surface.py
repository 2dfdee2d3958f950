"""Pins on deleted surface: names a simplification removed stay removed.

Each test names what a PR deleted ("Removed, not deprecated" in CHANGES.md)
and fails if a compatibility alias, a second implementation or the old knob
comes back.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_load_generators_are_gone():
    """bench/run.py is the only harness: the in-package ones stay deleted."""
    import repro.serving
    import repro.serving.cluster

    removed = (
        "LoadTestReport", "run_load_test", "BaselineRun", "ClusterLoadReport",
        "run_cluster_burst", "run_cluster_load_test", "run_single_worker_baseline",
    )
    for package in (repro.serving, repro.serving.cluster):
        exported = [name for name in removed if hasattr(package, name)]
        assert not exported, f"{package.__name__} still exports {exported}"


def test_rank_knobs_are_gone():
    """One rank engine: the path and the table dtype are not settable."""
    import inspect

    import repro.models.two_tower as two_tower
    import repro.serving
    from repro.models import DIN, BaseCTRModel, TargetAttentionDIN, WideDeep
    from repro.serving import ProcessWorkerPool, Ranker, build_cluster

    knobs = {"quantization", "item_table_quantization", "two_tower"}
    callables = [Ranker, build_cluster, ProcessWorkerPool, two_tower.build_common_item_tables]
    callables += [
        model.precompute_item_tables
        for model in (BaseCTRModel, WideDeep, DIN, TargetAttentionDIN)
    ]
    for target in callables:
        left = knobs & set(inspect.signature(target).parameters)
        assert not left, f"{target.__qualname__} still takes {sorted(left)}"
    for name in ("ItemTable", "QUANTIZATIONS"):
        assert not hasattr(two_tower, name), f"repro.models.two_tower still has {name}"
    for name in ("BatchScorer", "ModelRef"):
        assert not hasattr(repro.serving, name), f"repro.serving still exports {name}"


def test_infer_mirrors_are_gone():
    """One numerics definition per layer: ``forward`` under ``no_grad`` is the
    inference kernel.  The two kernels whose *algorithm* differs from a
    ``forward`` are the only ``infer*`` attributes left in ``repro.nn.layers``."""
    import inspect

    import repro.models.two_tower as two_tower
    import repro.nn.layers as layers
    from repro.nn import MLP, Linear, Module

    found = {
        f"{cls.__name__}.{attribute}"
        for _, cls in inspect.getmembers(layers, inspect.isclass)
        if issubclass(cls, Module)
        for attribute in dir(cls)
        if attribute.startswith("infer")
    }
    assert found == {"Linear.infer_partial", "MultiHeadTargetAttention.infer"}
    assert list(inspect.signature(Linear.infer_partial).parameters) == [
        "self", "x", "start", "stop"
    ]
    assert list(inspect.signature(MLP.tail).parameters) == ["self", "x"]
    for name in ("fused_sigmoid", "embed_rows"):
        assert not hasattr(two_tower, name), f"repro.models.two_tower still has {name}"
    assert not hasattr(Linear, "weight_columns")


def test_embedding_padding_idx_is_gone():
    """It zeroed one row at construction and then trained it like any other."""
    import inspect

    from repro.nn import Embedding

    assert "padding_idx" not in inspect.signature(Embedding).parameters
    assert not hasattr(Embedding(4, 2), "padding_idx")


def test_envelope_reductions_are_gone():
    """Envelopes cross processes through ``cluster/codec.py`` only."""
    import repro.serving.pipeline as pipeline

    for cls in (pipeline.ServeRequest, pipeline.ServeResponse):
        assert "__reduce__" not in vars(cls), f"{cls.__name__} still defines __reduce__"
    for name in ("_context_fields", "_pack_array", "_unpack_array",
                 "_rebuild_serve_request", "_rebuild_serve_response"):
        assert not hasattr(pipeline, name), f"repro.serving.pipeline still has {name}"


def test_bench_band_tool_is_gone():
    """Benchmark tests assert their own floors inline; no second mechanism."""
    assert not (REPO_ROOT / "tools" / "check_bench.py").exists()
    assert not (REPO_ROOT / "benchmarks" / "baselines.json").exists()
    conftest = (REPO_ROOT / "benchmarks" / "conftest.py").read_text(encoding="utf-8")
    assert "save_bench_json" not in conftest


def test_second_coalescing_loop_is_gone():
    """One worker core: a process replica is a ``ClusterWorker`` whose
    engine's ``run_many`` crosses the pipe.  The child gatherer, the
    correlation table, the reader thread and the reply queues stay deleted."""
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import repro.serving.cluster as cluster
    from repro.serving.cluster import ClusterConfig, procworker
    from repro.serving.cluster.worker import ClusterWorker

    assert issubclass(procworker.ProcessWorkerHandle, ClusterWorker)
    # Names only the second transport had: gone from the module altogether.
    source = inspect.getsource(procworker)
    left = [
        name for name in (
            "_serve_batch", "_handle_control", "_PendingRequest", "_ParentFeedbackEngine",
            "_slots", "_release_slot", "_corr", "_pending", "_resolve", "_on_disconnect",
            "reader_loop", "_replies", "_request_reply", "_control_lock", "fetch_stats",
            "close_pump", "requests_served", "batches_run", "batch_failures",
        )
        if name in source
    ]
    assert not left, f"repro.serving.cluster.procworker still mentions {left}"
    # Names the worker core owns: inherited by the handle, never redefined.
    redefined = {"submit", "depth", "_dispatch_loop", "_execute", "_fail_pending"} & set(
        vars(procworker.ProcessWorkerHandle)
    )
    assert not redefined, f"ProcessWorkerHandle redefines {sorted(redefined)}"
    child = inspect.getsource(procworker._ChildWorker)
    for forbidden in ("poll(", "monotonic", "deadline", "max_batch", "max_wait_ms"):
        assert forbidden not in child, f"the child process still uses {forbidden!r}"

    fields = {field.name for field in dataclasses.fields(procworker.WorkerBootstrap)}
    assert len(fields) == 9 and not fields & {"max_batch", "max_wait_ms"}

    # The handle inherits the queue and the dispatcher, it does not redefine them.
    owners = {"_dispatch_loop": [], "_execute": [], "submit": []}
    for info in pkgutil.iter_modules(cluster.__path__):
        module = importlib.import_module(f"{cluster.__name__}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or "Worker" not in cls.__name__:
                continue
            for name in owners:
                if name in vars(cls):
                    owners[name].append(cls.__qualname__)
    assert owners == {name: ["ClusterWorker"] for name in owners}
    supervisor = inspect.getsource(importlib.import_module(cluster.__name__ + ".supervisor"))
    assert "threading.Thread(" in supervisor  # the liveness monitor ...
    assert supervisor.count("threading.Thread(") == 1  # ... and no reader thread

    # No new option: the bench builds its clusters from exactly these.
    assert [field.name for field in dataclasses.fields(ClusterConfig)] == [
        "num_workers", "virtual_nodes", "max_batch", "queue_depth",
        "cache_enabled", "cache_ttl_seconds", "cache_max_entries",
    ]
    assert ClusterConfig() == ClusterConfig(4, 64, 64, 512, True, 30.0, 100_000)


def test_coalescing_timer_is_gone():
    """The dispatcher is work-conserving: it takes what is already queued and
    executes.  No wait knob, no deadline and no clock in the worker core."""
    import inspect

    import pytest

    from repro.serving.cluster import ClusterConfig, procworker, worker

    source = inspect.getsource(worker)
    for forbidden in ("max_wait", "deadline", "monotonic", "import time"):
        assert forbidden not in source, f"cluster/worker.py still mentions {forbidden!r}"
    assert "max_wait" not in inspect.getsource(procworker)
    for target in (worker.ClusterWorker, ClusterConfig):
        parameters = inspect.signature(target).parameters
        assert not [name for name in parameters if "wait" in name or "timer" in name]
    with pytest.raises(TypeError):
        ClusterConfig(max_wait_ms=2.0)
    with pytest.raises(TypeError):
        worker.ClusterWorker("worker-0", object(), max_wait_ms=2.0)


def test_stats_rpc_is_gone():
    """Telemetry rides the batch reply: no STATS round trip, no payload form
    of ``StageMetrics``, and a process handle's ``metrics`` is the attribute
    ``ClusterWorker`` sets — not a property that calls the child."""
    from repro.serving import StageMetrics
    from repro.serving.cluster import codec
    from repro.serving.cluster.procworker import ProcessWorkerHandle

    for name in ("STATS", "STATS_REPLY"):
        assert not hasattr(codec, name), f"codec still has {name}"
    for name in ("to_payload", "from_payload"):
        assert not hasattr(StageMetrics, name), f"StageMetrics still has {name}"
    assert "metrics" not in vars(ProcessWorkerHandle)


def test_one_serving_entry():
    """``build_pipeline`` for one replica, ``build_cluster`` for N: the
    facade, the thread-only scenario cluster and the options only tests set
    stay deleted."""
    import dataclasses
    import importlib
    import inspect

    import pytest

    import repro.models.base as models_base
    import repro.serving
    from repro.models import BaseCTRModel
    from repro.serving import (
        ABTestConfig,
        CategoryDiversityRule,
        ClusterWorker,
        PipelineConfig,
        ScenarioRouter,
        ServingPipeline,
        build_cluster,
    )

    facade = ("PersonalizationPlatform", "ServedImpression")
    for name in facade:
        assert not hasattr(repro.serving, name), f"repro.serving still exports {name}"
    with pytest.raises(ImportError):
        importlib.import_module("repro.serving.platform")

    removed_parameters = {
        build_cluster: {"scenario_configs", "classifier", "default_scenario", "unknown_tag"},
        ScenarioRouter: {"unknown_tag"},
        ServingPipeline: {"order_probability"},
        CategoryDiversityRule: {"overflow"},
        BaseCTRModel.predict: {"micro_batch_size"},
    }
    for target, names in removed_parameters.items():
        left = names & set(inspect.signature(target).parameters)
        assert not left, f"{target.__qualname__} still takes {sorted(left)}"
    removed_fields = {
        PipelineConfig: {"log_exposures", "rerank_overflow"},
        ABTestConfig: {"micro_batch_size"},
    }
    for config, names in removed_fields.items():
        left = names & {field.name for field in dataclasses.fields(config)}
        assert not left, f"{config.__name__} still has {sorted(left)}"
    for name in ("slice_batch", "_UNIQUE_KEYS"):
        assert not hasattr(models_base, name), f"repro.models.base still has {name}"
    assert not hasattr(ClusterWorker, "pipelines")

    names = facade + (
        "scenario_configs", "default_scenario", "unknown_tag", "log_exposures",
        "rerank_overflow", "micro_batch_size", "slice_batch", "serving/platform.py",
    )
    texts = [
        path for folder in ("src", "examples") for path in (REPO_ROOT / folder).rglob("*.py")
    ] + [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md",
         REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    found = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in texts
        for name in names
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, f"removed names still mentioned: {found}"


def test_request_context_layout_is_known_by_one_module():
    """``repro.serving.wire`` is the one byte layout for a context: the pipe
    codec, the journal and the snapshot go through it.  Within
    ``src/repro/serving``, no other module spells a context out — names every
    field of ``RequestContext`` in one statement, as a struct pack, a JSON
    dict, a keyword constructor or a tuple of its fields does."""
    import ast
    import dataclasses

    import repro.serving.durable.journal as journal
    import repro.serving.durable.snapshot as snapshot
    from repro.data.world import RequestContext

    assert "json" not in Path(journal.__file__).read_text(encoding="utf-8")
    for name in ("_context_to_json", "_context_from_json"):
        assert not hasattr(snapshot, name), f"snapshot still has {name}"

    fields = {field.name for field in dataclasses.fields(RequestContext)}
    compound = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
                ast.While, ast.With, ast.Try, ast.Module)
    serving = REPO_ROOT / "src" / "repro" / "serving"
    spelled = set()
    for path in sorted(serving.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in ast.walk(tree):
            if not isinstance(statement, ast.stmt) or isinstance(statement, compound):
                continue
            named = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.keyword):
                    named.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named.add(node.value)
            if fields <= named:
                spelled.add(path.relative_to(serving).as_posix())
    assert spelled == {"wire.py"}
