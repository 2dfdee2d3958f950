"""Tests for the benchmark regression harness (tools/check_bench.py)."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def _write(tmp_path, baselines, results):
    baselines_path = tmp_path / "baselines.json"
    baselines_path.write_text(json.dumps(baselines), encoding="utf-8")
    results_dir = tmp_path / "results"
    results_dir.mkdir(exist_ok=True)
    for name, metrics in results.items():
        (results_dir / f"BENCH_{name}.json").write_text(
            json.dumps({"benchmark": name, "metrics": metrics}), encoding="utf-8"
        )
    return ["--baselines", str(baselines_path), "--results", str(results_dir)]


class TestBands:
    def test_min_max_bounds(self):
        assert check_bench.check_band(2.0, {"min": 1.0, "max": 3.0}) == []
        assert check_bench.check_band(0.5, {"min": 1.0}) != []
        assert check_bench.check_band(4.0, {"max": 3.0}) != []

    def test_baseline_with_tolerances(self):
        band = {"baseline": 10.0, "rel_tol": 0.1, "abs_tol": 0.5}
        assert check_bench.check_band(11.4, band) == []
        assert check_bench.check_band(11.6, band) != []
        assert check_bench.check_band(8.4, band) != []


class TestMain:
    def test_green_run(self, tmp_path, capsys):
        argv = _write(
            tmp_path,
            {"speed": {"ratio": {"min": 2.0}}},
            {"speed": {"ratio": 3.5, "extra_metric": 1.0}},
        )
        assert check_bench.main(argv) == 0
        assert "ok   speed.ratio" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path):
        argv = _write(
            tmp_path,
            {"speed": {"ratio": {"min": 2.0}}},
            {"speed": {"ratio": 1.2}},
        )
        assert check_bench.main(argv) == 1

    def test_missing_results_fail_unless_allowed(self, tmp_path):
        argv = _write(tmp_path, {"gone": {"metric": {"min": 0.0}}}, {})
        assert check_bench.main(argv) == 1
        assert check_bench.main(argv + ["--allow-missing"]) == 0

    def test_missing_metric_fails(self, tmp_path):
        argv = _write(
            tmp_path,
            {"speed": {"renamed": {"min": 0.0}}},
            {"speed": {"ratio": 1.0}},
        )
        assert check_bench.main(argv) == 1

    def test_repo_baselines_are_well_formed(self):
        baselines = json.loads(
            (REPO_ROOT / "benchmarks" / "baselines.json").read_text(encoding="utf-8")
        )
        assert baselines, "baselines.json must guard at least one benchmark"
        for benchmark, bands in baselines.items():
            assert bands, f"{benchmark} has no bands"
            for metric, band in bands.items():
                assert set(band) <= {
                    "min", "max", "baseline", "rel_tol", "abs_tol"
                }, f"unknown band keys for {benchmark}.{metric}: {band}"
                # Tier-1 bands parity, counts and quality only: wall-clock
                # claims come from bench/run.py (BENCHMARK.json).
                assert not re.search(r"speedup|rps|seconds|_ms$|_us$", metric), (
                    f"{benchmark}.{metric} is a timing band"
                )
                assert any(key in band for key in ("min", "max", "baseline")), (
                    f"{benchmark}.{metric} band constrains nothing"
                )


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
