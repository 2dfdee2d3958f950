"""Per-layer metrics from a traced run (``--trace 1``).

Layers are measured from outside, by timing their public functions: the
bench replays the workload's own micro-batches stage by stage on its own
thread, recording a span (name, start, end, parent, batch id) around every
call into a layer.  Spans stay in memory and are written when the run ends.
A layer's self time is its span minus the part its children cover.

The decomposed replay must reproduce the frontend's responses byte for byte;
``pipeline.residual_share`` says how much of ``ServingPipeline.run_many`` the
spans do not account for.  A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import nn
from repro.data import DataLoader, encode_eleme_log
from repro.models import create_model
from repro.nn import BCELoss
from repro.serving import (
    ConsistentHashRing,
    OnlineRequestEncoder,
    ReplayBuffer,
    ResponseCache,
    ServeRequest,
    ServingState,
    request_rng,
)
from repro.serving.cluster import codec
from repro.serving.cluster.shm import SegmentPublisher
from repro.serving.durable import Journal, scan_journal
from repro.training import Trainer, build_optimizer, evaluate_model

from . import drivers, gen
from .drivers import Cluster, Target, parity_bytes, response_bytes
from .probe import PROBE_REFERENCE_S, speed_factor

BATCH = 64
REPLAY_BATCHES = 24
TRAIN_REPLAY_STEPS = 40


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, batch id or None]``
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, batch: Optional[int] = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if batch is None and parent is not None:
            batch = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, batch])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_batch(self, name: str, factors: Dict[int, float]) -> List[float]:
        """Scaled seconds spent under ``name`` in each batch (summed per batch)."""
        totals: Dict[int, float] = {}
        for span_name, start, end, _, batch in self.spans:
            if span_name == name:
                totals[batch] = totals.get(batch, 0.0) + (end - start) * factors[batch]
        return [totals[batch] for batch in sorted(totals)]

    def write(self, path: Path) -> None:
        """The spans, each with its self time, as one JSON file."""
        rows = [span + [own] for span, own in zip(self.spans, self.self_seconds())]
        path.write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "batch", "self_seconds"],
             "spans": rows}), encoding="utf-8")


def span_cost_s(count: int = 5000) -> float:
    """Seconds one span costs its caller (recorder bookkeeping included)."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / count


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_each(call: Callable, items: Iterable, probe: Callable[[], float]) -> float:
    """Scaled seconds per item of calling ``call(item)`` over ``items``."""
    items = list(items)
    before = probe()
    start = time.perf_counter()
    for item in items:
        call(item)
    seconds = time.perf_counter() - start
    return seconds / max(len(items), 1) * speed_factor(before, probe())


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
def decomposed_batch(tracer: Tracer, pipeline, contexts, batch: int, tables=None):
    """One micro-batch through the public stage functions, span by span.

    Mirrors ``MultiChannelRecall.recall`` and ``BatchScorer.rank_many`` from
    outside; the byte comparison with the frontend is what keeps this honest.
    Returns ``[(candidates, items, scores)]`` in request order.
    """
    strategy = pipeline.stage("recall").strategy
    rank = pipeline.stage("rank")
    model, encoder, state = rank.ranker.model, rank.ranker.encoder, pipeline.state
    size = strategy.pool_size
    with tracer.span("batch", batch):
        pools = []
        with tracer.span("recall"):
            for context in contexts:
                found = {}
                for channel in strategy.channels:
                    with tracer.span("recall." + channel.name):
                        found[channel.name] = channel.recall(
                            context, state, size,
                            request_rng(strategy.seed, context, salt=channel.name))
                with tracer.span("recall.fuse"):
                    fused = strategy.fusion.fuse(found, size)
                    if len(fused) < size:
                        missing = np.setdiff1d(strategy.world.recall_pool(context.city), fused)
                        fused = np.concatenate([fused, missing[: size - len(fused)]])
                    pools.append(fused.astype(np.int64))
        with tracer.span("rank"):
            if model.supports_two_tower:
                with tracer.span("encoder.encode_split"):
                    split, offsets = encoder.encode_split(contexts, pools, state)
                with tracer.span("model.score_two_tower"):
                    scores = model.score_two_tower(split, tables)
            else:
                with nn.no_grad():
                    with tracer.span("encoder.encode_many"):
                        rows, offsets = encoder.encode_many(contexts, pools, state)
                    with tracer.span("model.predict"):
                        scores = model.predict(rows)
            with tracer.span("rank.topk"):
                out = []
                for slot, pool in enumerate(pools):
                    mine = scores[offsets[slot]:offsets[slot + 1]]
                    order = np.argsort(-mine, kind="stable")[: rank.exposure_size]
                    out.append((pool, pool[order], mine[order]))
    return out


def serving_layers(args, fixture, inputs, cluster, reference, checkpoint, scratch,
                   probe, home: int, spec_names, results_dir: Path) -> Dict[str, object]:
    """Everything ``--trace 1`` reports for a serving workload."""
    workload = inputs.workload
    tracer = Tracer()
    values: Dict[str, float] = dict.fromkeys(spec_names, 0.0)
    replay = replay_layers(args, inputs, cluster, reference, probe, tracer)
    values.update(replay["values"])
    if workload.process:
        values.update(process_layers(fixture, inputs, cluster, checkpoint, scratch,
                                     probe, replay["batches"], replay["frontend_s"]))
    traffic = traffic_layers(args, inputs, cluster, probe, home, tracer)
    values.update(traffic["values"])
    if workload.cache:
        values.update(cache_layers(cluster, traffic["target"], probe))
    if workload.feedback_every:
        values.update(write_path_layers(fixture, cluster, scratch, probe))
    ring = ConsistentHashRing(list(cluster.frontend.workers))
    values["ring.shard_for_us"] = 1e6 * timed_each(
        ring.shard_for, [c.user_index for c in inputs.contexts[:512]], probe)

    tracer.write(results_dir / f"{workload.name}-seed{inputs.seed}-spans.json")
    mismatches = replay["mismatches"]
    windows = traffic["windows"]
    failed = sum(w.failed for w in windows) + mismatches
    return {
        "correct": failed == 0,
        "attempted": len(replay["batches"]) * BATCH + sum(w.ops for w in windows),
        "failed": failed, "values": values, "unresolved": [],
        "checks": {"decomposed_parity_mismatches": mismatches,
                   "decomposed_parity_ok": mismatches == 0,
                   "replay_batches": len(replay["batches"]),
                   "spans_recorded": len(tracer.spans)},
        "errors": [e for w in windows for e in w.errors][:5],
    }


def replay_layers(args, inputs, cluster, reference, probe, tracer: Tracer):
    """The same micro-batches three ways, interleaved batch by batch:
    ``ServingPipeline.run_many``, the cluster frontend, and the decomposed
    replay whose spans become the recall / encoder / model / rank metrics."""
    values: Dict[str, float] = {}
    frontend = cluster.frontend
    ranker = reference.stage("rank").ranker
    tables = None
    if ranker.model.supports_two_tower:
        static = ranker.encoder.item_static_table(reference.state)
        built = []
        values["model.item_tables_build_ms"] = 1e3 * timed_each(
            lambda _: built.append(ranker.model.precompute_item_tables(static)),
            range(3), probe)
        tables = built[-1]
        values["model.item_tables_mb"] = tables.nbytes / 2 ** 20

    distinct = list(dict.fromkeys(op[1] for op in inputs.ops if op[0] == "serve"))
    count = 4 if args.smoke else min(REPLAY_BATCHES, len(distinct) // BATCH)
    batches = [[inputs.contexts[i] for i in distinct[b * BATCH:(b + 1) * BATCH]]
               for b in range(count)]
    for contexts in batches:  # warm both sides, untimed
        reference.run_many(contexts)
        frontend.serve_many(contexts)
    reference.metrics.reset()
    factors: Dict[int, float] = {}
    run_many_s, frontend_s, mismatches, pools = [], [], 0, []
    before = probe()
    for index, contexts in enumerate(batches):
        if frontend.cache is not None:
            frontend.cache.clear()
        start = time.perf_counter()
        reference.run_many(contexts)
        middle = time.perf_counter()
        served = frontend.serve_many(contexts)
        end = time.perf_counter()
        replayed = decomposed_batch(tracer, reference, contexts, index, tables)
        after = probe()
        factors[index] = speed_factor(before, after)
        before = after
        run_many_s.append((middle - start) * factors[index])
        frontend_s.append((end - middle) * factors[index])
        pools.extend(len(triple[0]) for triple in replayed)
        mismatches += sum(response_bytes(r) != parity_bytes(*t)
                          for r, t in zip(served, replayed))

    def per_batch_s(name: str) -> float:
        return _median(tracer.per_batch(name, factors))

    values["recall.batch_ms"] = 1e3 * per_batch_s("recall")
    for metric, span in (("recall.geo_us", "recall.geo_grid"),
                         ("recall.ann_us", "recall.embedding_ann"),
                         ("recall.popularity_us", "recall.popularity"),
                         ("recall.history_us", "recall.user_history"),
                         ("recall.fuse_us", "recall.fuse"),
                         ("rank.topk_us", "rank.topk")):
        values[metric] = 1e6 * per_batch_s(span) / BATCH
    for metric in ("encoder.encode_many", "encoder.encode_split",
                   "model.predict", "model.score_two_tower"):
        values[metric + "_ms"] = 1e3 * per_batch_s(metric)
    values["recall.pool_mean"] = float(np.mean(pools))
    values["rank.rows_per_s"] = float(np.mean(pools)) * BATCH / per_batch_s("rank")
    typical_factor = _median(list(factors.values()))
    for stage in ("recall", "rank", "exposure"):
        stats = reference.metrics.stats(stage)
        values[f"pipeline.{stage}_ms"] = 1e3 * stats.seconds / stats.calls * typical_factor
    values["pipeline.run_many_ms"] = 1e3 * _median(run_many_s)
    values["pipeline.residual_share"] = 1.0 - per_batch_s("batch") / _median(run_many_s)
    values["worker.overhead_us_per_req"] = (
        1e6 * (_median(frontend_s) - _median(run_many_s)) / BATCH)
    return {"values": values, "batches": batches, "frontend_s": frontend_s,
            "mismatches": mismatches}


def traffic_layers(args, inputs, cluster, probe, home: int, tracer: Tracer):
    """The workload's own traffic: the warm pass, then a traced open loop."""
    workload = inputs.workload
    frontend = cluster.frontend
    values: Dict[str, float] = {}
    target = Target(frontend, inputs.contexts, bool(workload.feedback_every))
    if workload.feedback_every:
        frontend.cache.clear()
        target.prime()
    warm = drivers.closed_loop(target, inputs.ops, workload.closed_window,
                               lambda: PROBE_REFERENCE_S, drivers.cpu_clock([]))
    if frontend.cache is not None:
        frontend.cache.reset_stats()
    features = cluster.state.features
    hits_before, misses_before = features.hits, features.misses
    stats_before = frontend.stats()

    def traced(op):
        with tracer.span("frontend." + op[0]):
            return target(op)

    # Enough arrivals for a p99 of the generator's lateness (>= 10 beyond it).
    open_count = min(inputs.open_windows, max(3, -(-1100 // workload.open_window)))
    with drivers.on_cpu(home):
        opened = drivers.open_loop(traced, inputs.ops[: open_count * workload.open_window],
                                   workload.open_window // drivers.BURSTS_PER_WINDOW,
                                   workload.open_rate, probe)
    stats = frontend.stats()
    batches_run = stats["batches_run"] - stats_before["batches_run"]
    values["worker.batches"] = float(batches_run)
    values["worker.mean_batch"] = (
        (stats["requests_served"] - stats_before["requests_served"]) / max(batches_run, 1))
    values["worker.rejected"] = float(stats["rejected"])
    # Process workers keep their own feature cache; the parent's stays idle.
    hits, misses = features.hits - hits_before, features.misses - misses_before
    values["featurecache.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    values["featurecache.volatile_entries"] = float(features.num_volatile)
    if frontend.cache is not None:
        values["cache.hit_share"] = frontend.cache.hit_rate
        values["cache.entries"] = float(len(frontend.cache))
    lateness = sorted(v for w in opened for v in w.lateness)
    values["gen.late_p50_ms"] = 1e3 * drivers.percentile(lateness, 50)
    values["gen.late_p99_ms"] = 1e3 * drivers.percentile(
        lateness, 99, min_beyond=1 if args.smoke else 10)
    open_factor = _median([w.factor for w in opened])
    values["frontend.submit_us"] = 1e6 * open_factor * _median(
        [end - start for name, start, end, _, _ in tracer.spans if name == "frontend.serve"])
    # One span per operation on the generator's thread.  Alternating traced and
    # plain windows cannot resolve its cost (about 0.1 %, under windows that
    # scatter by several percent), so it is the measured cost of a span over the
    # measured time of an operation.
    per_op_s = _median([w.seconds / w.ops for w in warm[len(warm) // 2:]])
    values["trace.overhead_share"] = span_cost_s() / per_op_s
    return {"values": values, "windows": warm + opened, "target": target}


def cache_layers(cluster, target, probe) -> Dict[str, float]:
    """``ResponseCache`` get and put on their own, over this run's responses."""
    responses = [target.latest[i] for i in sorted(target.latest)][:512]
    keys = [ResponseCache.key_for(r.context, 0, 0) for r in responses]
    scratch_cache = ResponseCache(ttl_seconds=600.0)
    return {
        "cache.put_us": 1e6 * timed_each(
            lambda pair: scratch_cache.put(*pair), zip(keys, responses), probe),
        "cache.get_us": 1e6 * timed_each(scratch_cache.get, keys, probe),
    }


def process_layers(fixture, inputs, cluster, checkpoint, scratch, probe,
                   batches, process_frontend_s) -> Dict[str, float]:
    """Transport layers of the process workload, from their public functions."""
    values: Dict[str, float] = {}
    requests = [ServeRequest(context=c, request_id=f"r{i}", scenario="default")
                for i, c in enumerate(batches[0])]
    responses = cluster.frontend.serve_many(batches[0])
    frames = [codec.encode_serve(i, r) for i, r in enumerate(requests)]
    replies = [codec.encode_serve_response(i, r) for i, r in enumerate(responses)]
    values["codec.encode_serve_us"] = 1e6 * timed_each(
        lambda r: codec.encode_serve(7, r), requests * 8, probe)
    values["codec.decode_serve_us"] = 1e6 * timed_each(
        lambda f: codec.decode_serve(f[1:]), frames * 8, probe)
    values["codec.encode_response_us"] = 1e6 * timed_each(
        lambda r: codec.encode_serve_response(7, r), responses * 8, probe)
    values["codec.decode_response_us"] = 1e6 * timed_each(
        lambda f: codec.decode_serve_response(f[1:]), replies * 8, probe)
    values["codec.request_bytes"] = float(np.mean([len(f) for f in frames]))
    values["codec.response_bytes"] = float(np.mean([len(f) for f in replies]))

    # Publishing the model's tensors into one shared segment, as the pool does.
    pool = cluster.frontend.pool
    manifest = pool.publish_model(pool.model)
    values["shm.segment_mb"] = manifest["nbytes"] / 2 ** 20
    tensors = {f"weights.{k}": v for k, v in pool.model.state_dict().items()}
    publisher = SegmentPublisher()
    try:
        values["shm.publish_ms"] = 1e3 * timed_each(
            lambda _: publisher.publish(tensors), range(3), probe)
    finally:
        publisher.close()

    # A second fresh process deployment, timed alone: spawn -> healthy.
    before = probe()
    start = time.perf_counter()
    second = Cluster(inputs.workload, fixture, checkpoint, scratch / "store-spawn")
    seconds = time.perf_counter() - start
    second.close()
    values["proc.spawn_to_healthy_s"] = seconds * speed_factor(before, probe())

    # The same model and requests behind an in-process worker: the difference
    # is what the pipe, the codec and the second process cost per request.
    inproc = Cluster(gen.Workload("din_inproc", "", model="din"), fixture, checkpoint,
                     scratch / "store-inproc")
    try:
        for contexts in batches:
            inproc.frontend.serve_many(contexts)
        inproc_s = []
        before = probe()
        for contexts in batches:
            start = time.perf_counter()
            inproc.frontend.serve_many(contexts)
            seconds = time.perf_counter() - start
            after = probe()
            inproc_s.append(seconds * speed_factor(before, after))
            before = after
    finally:
        inproc.close()
    values["transport.overhead_us_per_req"] = (
        1e6 * (_median(process_frontend_s) - _median(inproc_s)) / BATCH)
    return values


def write_path_layers(fixture, cluster, scratch, probe) -> Dict[str, float]:
    """The feedback write path, one public function at a time."""
    live = cluster.state.journal
    live.sync()
    events = [event for _, event in scan_journal(live.path).records][:512]
    stats = live.stats()
    values = {
        "journal.fsyncs": float(stats["fsyncs"]),
        "journal.bytes_per_event": live.path.stat().st_size / max(stats["appended"], 1),
    }
    bare = ServingState.from_log_generator(fixture.generator, fixture.log)
    values["state.record_clicks_us"] = 1e6 * timed_each(
        lambda e: bare.record_clicks(e.context, e.items, e.clicks), events, probe)
    with Journal(scratch / "probe-journal.log", fsync="interval") as journal:
        values["journal.append_us"] = 1e6 * timed_each(journal.append, events, probe)
    replay = ReplayBuffer(OnlineRequestEncoder(fixture.world, fixture.schema))
    logged = ServingState.from_log_generator(fixture.generator, fixture.log)
    values["replay.log_us"] = 1e6 * timed_each(
        lambda e: replay.log(logged, e.context, e.items, e.clicks), events, probe)
    return values


# ---------------------------------------------------------------------- #
# training
# ---------------------------------------------------------------------- #
def training_layers(args, fixture, inputs, setup, probe, spec_names,
                    results_dir: Path) -> Dict[str, object]:
    """Everything ``--trace 1`` reports for the training workload."""
    tracer = Tracer()
    values = dict.fromkeys(spec_names, 0.0)
    steps = 8 if args.smoke else TRAIN_REPLAY_STEPS
    subset = setup.data.subset(np.arange(steps * gen.TRAIN_BATCH))
    config = setup.config

    before = probe()
    start = time.perf_counter()
    encoded = encode_eleme_log(fixture.log, fixture.world, fixture.schema)
    seconds = (time.perf_counter() - start) * speed_factor(before, probe())
    values["data.encode_rows_per_s"] = len(encoded) / seconds

    def fresh():
        return create_model("basm", fixture.schema, setup.model.config)

    # The trainer's own loop, then the same steps through its public parts.
    start = time.perf_counter()
    fitted = Trainer(config).fit(fresh(), subset)
    fit_s = time.perf_counter() - start
    before = probe()
    model = fresh()
    optimizer, scheduler = build_optimizer(model, config)
    loss_fn = BCELoss()
    loader = iter(DataLoader(subset, batch_size=config.batch_size,
                             shuffle=config.shuffle, seed=config.seed))
    model.train()
    losses = []
    factors: Dict[int, float] = {}
    for step in range(steps):
        with tracer.span("step", step):
            with tracer.span("train.loader"):
                batch = next(loader)
            with tracer.span("train.forward"):
                loss = loss_fn(model(batch), batch["labels"])
            with tracer.span("train.backward"):
                model.zero_grad()
                loss.backward()
            with tracer.span("train.optim"):
                if config.gradient_clip_norm is not None:
                    optimizer.clip_grad_norm(config.gradient_clip_norm)
                optimizer.step()
                if scheduler is not None:
                    scheduler.step()
            losses.append(float(loss.item()))
        after = probe()
        factors[step] = speed_factor(before, after)
        before = after
    for name in ("train.loader", "train.forward", "train.backward", "train.optim"):
        values[name + "_ms"] = 1e3 * _median(tracer.per_batch(name, factors))
    mismatches = sum(a != b for a, b in zip(losses, fitted.step_losses))
    # Five spans a step; the A/B difference of the two loops is below the noise.
    values["trace.overhead_share"] = 5 * span_cost_s() / (fit_s / steps)

    before = probe()
    start = time.perf_counter()
    report = evaluate_model(model, setup.test)
    seconds = (time.perf_counter() - start) * speed_factor(before, probe())
    values["eval.rows_per_s"] = len(setup.test) / seconds

    tracer.write(results_dir / f"train_basm-seed{inputs.seed}-spans.json")
    checks = {
        "decomposed_loss_mismatches": mismatches,
        "decomposed_parity_ok": mismatches == 0 and len(losses) == len(fitted.step_losses),
        "replay_steps": steps, "auc_after_replay": repr(report.auc),
        "spans_recorded": len(tracer.spans),
    }
    return {
        "correct": checks["decomposed_parity_ok"], "attempted": steps,
        "failed": mismatches, "values": values, "checks": checks, "unresolved": [],
        "errors": [],
    }
