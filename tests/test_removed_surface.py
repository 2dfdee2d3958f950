"""Pins on deleted surface: names a simplification removed stay removed.

Each test names what a PR deleted ("Removed, not deprecated" in CHANGES.md)
and fails if a compatibility alias, a second implementation or the old knob
comes back.
"""

from __future__ import annotations

from pathlib import Path

import pytest

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
    inference kernel, and no ``infer*`` attribute is left in
    ``repro.nn.layers``; ``Linear.partial`` takes an ndarray itself (no
    ``infer_partial`` wrapper)."""
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
    assert found == set()
    assert not hasattr(Linear, "infer_partial")
    assert list(inspect.signature(Linear.partial).parameters) == ["self", "x", "start", "stop"]
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
        ClusterWorker,
        PipelineConfig,
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
        ServingPipeline: {"order_probability"},
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
        "ScenarioRouter", "RerankStage", "RerankRule", "CategoryDiversityRule",
        "max_per_category", "recall_quotas", "scenario_pipeline",
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


def test_one_request_time_feature_view():
    """The offline log and the online state share one behaviour history with
    one snapshot, and both encoders one id builder per Table I field: the
    parallel history types, the row-loop snapshot and the encoders' private
    copies of the id layout stay deleted."""
    import inspect

    import repro.data.encoding as encoding
    import repro.data.log as log
    import repro.features as features
    import repro.features.behavior as behavior
    import repro.serving as serving
    import repro.serving.encoder as encoder
    import repro.serving.state as state
    from repro.data import LogGenerator
    from repro.features.table_ids import behavior_ids

    removed = {
        features: ("BehaviorEvent", "BehaviorSequence", "spatiotemporal_match_mask"),
        behavior: ("BehaviorEvent", "BehaviorSequence", "spatiotemporal_match_mask"),
        log: ("_UserHistory",),
        state: ("UserHistoryState",),
        serving: ("UserHistoryState",),
        encoder: ("_SNAPSHOT_COLUMNS",),
        encoding: ("_encode_behavior", "_geohash_ids"),
    }
    for module, names in removed.items():
        left = [name for name in names if hasattr(module, name)]
        assert not left, f"{module.__name__} still has {left}"
    assert not hasattr(LogGenerator, "_behavior_snapshot")
    assert not hasattr(behavior.BehaviorHistory, "window_arrays")
    for name in ("_gid", "_user_rows", "_context_rows", "_geohash_vocab"):
        assert not hasattr(encoder.OnlineRequestEncoder, name), name
    assert list(inspect.signature(behavior_ids).parameters) == ["schema", "raw"]

    # Each piece of the view is spelled in exactly one module under src/.
    owners = {
        "geohash_prefixes.append(": "features/behavior.py",
        "np.linspace(0.1, 0.9, 9)": "features/table_ids.py",
        "np.linspace(0.2, 1.8, 9)": "features/table_ids.py",
        "cross_activity_time_period(": "features/table_ids.py",
        "cross_distance_time_period(": "features/table_ids.py",
        "HashingVocabulary(": "features/table_ids.py",
    }
    source = REPO_ROOT / "src" / "repro"
    for needle, owner in owners.items():
        found = sorted(
            path.relative_to(source).as_posix() for path in source.rglob("*.py")
            if needle in path.read_text(encoding="utf-8")
            and path.name not in ("crosses.py", "vocabulary.py")
        )
        assert found == [owner], f"{needle!r} spelled in {found}"


SERVING_GRAPH_REMOVED_CLASSES = (
    "ScenarioRouter", "RerankRule", "CategoryDiversityRule", "RerankStage",
)

# (owner in ``repro.serving``, attribute path or None, removed parameter).
SERVING_GRAPH_REMOVED_PARAMETERS = (
    ("ServingPipeline", None, "name"),
    ("RecallStage", None, "pool_size"),
    ("RecallFusion", None, "quotas"),
    ("MultiChannelRecall", None, "quotas"),
    ("MultiChannelRecall", "build", "quotas"),
    ("GeoGridChannel", None, "max_precision"),
    ("GeoGridChannel", None, "min_precision"),
    ("EmbeddingANNChannel", None, "history_window"),
    ("EmbeddingANNChannel", "from_model", "history_window"),
    ("PopularityChannel", None, "period_weight"),
    ("PopularityChannel", None, "quality_weight"),
    ("UserHistoryChannel", None, "history_window"),
    ("UserHistoryChannel", None, "revisit_share"),
    ("UserHistoryChannel", None, "recency_decay"),
)


def test_one_serving_graph_and_one_recall_configuration():
    """Every pipeline is recall → rank → exposure and every recall stack the
    default one: the scenario example, the response tag, the A/B router and
    the frontend's write-only counter stay deleted, and the pipeline config
    holds the four values of that one graph."""
    import dataclasses
    import inspect

    from repro.serving import ABTestSimulator, PipelineConfig, ServeResponse
    from repro.serving.cluster import ClusterFrontend

    assert not (REPO_ROOT / "examples" / "scenario_pipeline.py").exists()
    assert [field.name for field in dataclasses.fields(PipelineConfig)] == [
        "recall_size", "exposure_size", "order_probability", "seed",
    ]
    assert "scenario" not in vars(ServeResponse)  # the request keeps its tag
    assert "router" not in inspect.getsource(ABTestSimulator)
    assert "cache_bypasses" not in inspect.getsource(ClusterFrontend)


@pytest.mark.parametrize("name", SERVING_GRAPH_REMOVED_CLASSES)
def test_serving_graph_class_is_gone(name):
    """The router and the rerank plug-in are exported by neither module."""
    import repro.serving
    import repro.serving.pipeline as pipeline

    for module in (repro.serving, pipeline):
        assert not hasattr(module, name), f"{module.__name__} still has {name}"


@pytest.mark.parametrize("field", ["scenario", "recall_quotas", "max_per_category"])
def test_pipeline_config_field_is_gone(field):
    """The router tag, the quota weights and the diversity cap are not config."""
    import dataclasses

    from repro.serving import PipelineConfig

    assert field not in {spec.name for spec in dataclasses.fields(PipelineConfig)}


@pytest.mark.parametrize(
    "owner, attribute, parameter",
    SERVING_GRAPH_REMOVED_PARAMETERS,
    ids=[
        ".".join(filter(None, (owner, attribute, parameter)))
        for owner, attribute, parameter in SERVING_GRAPH_REMOVED_PARAMETERS
    ],
)
def test_serving_graph_option_is_gone(owner, attribute, parameter):
    """The recall quota weights and the knobs no caller set are constants."""
    import inspect

    import repro.serving

    target = getattr(repro.serving, owner)
    if attribute is not None:
        target = getattr(target, attribute)
    assert parameter not in inspect.signature(target).parameters, (
        f"{target.__qualname__} still takes {parameter}"
    )


@pytest.mark.parametrize("module, name", [
    ("repro.serving", "LoggedImpression"),
    ("repro.serving.replay", "LoggedImpression"),
    ("repro.training.incremental", "_take_rows"),
])
def test_replay_copy_of_the_training_layout_is_gone(module, name):
    """A logged exposure is an ``EncodedDataset`` and a refresh iterates it
    with ``DataLoader``: no second impression type, no second row selector."""
    import importlib

    assert not hasattr(importlib.import_module(module), name), f"{module} still has {name}"


def test_target_attention_infer_is_gone():
    """One target-attention kernel: ``forward`` takes the deduplicated layout
    (``row_map``) itself, and no ``infer`` sits beside it."""
    import inspect

    from repro.nn import MultiHeadTargetAttention, ScaledDotProductAttention

    assert not hasattr(MultiHeadTargetAttention, "infer")
    assert "row_map" in inspect.signature(MultiHeadTargetAttention.forward).parameters
    assert "mask" not in inspect.signature(ScaledDotProductAttention.forward).parameters


#: (``module[:class]``, name) of the ops and losses no caller used, deleted from ``repro.nn``.
UNCALLED_NN_SURFACE = (
    ("repro.nn:Tensor", "abs"), ("repro.nn:Tensor", "exp"), ("repro.nn:Tensor", "max"),
    ("repro.nn:Tensor", "var"), ("repro.nn:Tensor", "squeeze"),
    ("repro.nn:Tensor", "expand_dims"), ("repro.nn:Tensor", "stack"),
    ("repro.nn:Tensor", "where"), ("repro.nn:Tensor", "detach"),
    ("repro.nn:Tensor", "__truediv__"), ("repro.nn:Tensor", "__rtruediv__"),
    ("repro.nn.functional", "binary_cross_entropy_with_logits"),
    ("repro.nn.functional", "mse_loss"), ("repro.nn.functional", "masked_softmax"),
    ("repro.nn", "LayerNorm"), ("repro.nn", "BCEWithLogitsLoss"), ("repro.nn", "MSELoss"),
    ("repro.nn.layers", "LayerNorm"), ("repro.nn.losses", "BCEWithLogitsLoss"),
    ("repro.nn.losses", "MSELoss"), ("repro.nn.layers.normalization", "LayerNorm"),
)


@pytest.mark.parametrize("owner, name", UNCALLED_NN_SURFACE,
                         ids=[f"{owner}.{name}" for owner, name in UNCALLED_NN_SURFACE])
def test_uncalled_nn_surface_is_gone(owner, name):
    import importlib

    module, _, attribute = owner.partition(":")
    target = importlib.import_module(module)
    target = getattr(target, attribute) if attribute else target
    assert not hasattr(target, name), f"{owner} still has {name}"


def test_one_primitive_table():
    """Each op is defined once, in ``PRIMITIVES``: ``Tensor``'s methods and
    ``nn.functional``'s ops are its entries, with no type dispatch beside them."""
    import inspect

    import repro.nn.functional as F
    from repro.nn import Tensor
    from repro.nn.tensor import PRIMITIVES

    for name in ("sigmoid", "tanh", "relu", "leaky_relu", "softmax", "concat"):
        assert getattr(F, name) is getattr(Tensor, name) is PRIMITIVES[name]
    assert Tensor.__mul__ is Tensor.__rmul__ is PRIMITIVES["mul"]
    assert "isinstance" not in inspect.getsource(F)
    for name in ("_sigmoid", "_relu", "_leaky_relu", "_softmax"):
        assert not hasattr(F, name), f"repro.nn.functional still imports {name}"


#: (owner in ``repro.serving``, removed attribute or parameter).
SECOND_SERVING_ENCODING = (
    ("OnlineRequestEncoder", "encode"),
    ("OnlineRequestEncoder", "encode_many"),
    ("OnlineRequestEncoder", "_assemble"),
    ("ScoreRequest", "positions"),
    ("OnlineRequestEncoder.encode_split", "positions_list"),
    ("Ranker", "rows_scored"),
    ("Ranker", "fused_batches"),
)


@pytest.mark.parametrize(
    "owner, name", SECOND_SERVING_ENCODING,
    ids=[f"{owner}.{name}" for owner, name in SECOND_SERVING_ENCODING],
)
def test_second_serving_encoding_is_gone(eleme_dataset, small_model_config, owner, name):
    """One serving encoding: ``encode_split`` feeds the ranker and the replay
    log.  The flat encoder, the positions knob no caller set and the ranker
    counters the flat path kept apart stay deleted."""
    import inspect

    import numpy as np

    from repro.models import create_model
    from repro.serving import OnlineRequestEncoder, Ranker, ScoreRequest

    world, schema = eleme_dataset.world, eleme_dataset.schema
    encoder = OnlineRequestEncoder(world, schema)
    context = world.sample_request_context(1, np.random.default_rng(0))
    if owner == "OnlineRequestEncoder.encode_split":
        parameters = inspect.signature(encoder.encode_split).parameters
        assert name not in parameters, f"{owner} still takes {name}"
        return
    instances = {
        "OnlineRequestEncoder": encoder,
        "ScoreRequest": ScoreRequest(context, np.arange(3)),
        "Ranker": Ranker(create_model("din", schema, small_model_config), encoder),
    }
    assert not hasattr(instances[owner], name), f"{owner} still has {name}"
