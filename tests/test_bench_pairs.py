"""``tools/bench_pairs.py``: the pairs table and the §8 verdict on canned runs.

The tool's runs take minutes and read a clock; its table is a pure function
of the logged JSON lines, and that is what is tested here (tier-1 reads no
clock).  The run loop is driven once with a stub in place of the benchmark to
pin the alternation and the refusal to compare across different ``bench/``
trees.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CONTRACT = {
    "workloads": [{"name": "basm_inproc"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    ],
}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(parent, change, metric="latency_p50_ms", raw_scale=1.25):
    """Canned log lines: pair ``i`` is ``(parent[i], change[i])`` on one metric."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            runs.append(json.loads(json.dumps({
                "side": side, "pair": pair, "first": (pair % 2 == 0) == (side == "parent"),
                "workload": "basm_inproc", "seed": 1, "correct": True,
                "attempted": 6520, "failed": 0, "parity": 0,
                "metrics": {metric: value}, "raw": {metric: value * raw_scale},
            })))
    return runs


PARENT = [6.37, 6.45, 6.50, 6.52, 6.60, 6.64, 6.70, 6.82, 6.88, 6.91]


class TestVerdict:
    def test_nine_of_ten_and_beyond_the_parents_iqr_is_a_gain(self, bench_pairs):
        change = [3.38, 3.5, 3.6, 3.7, 3.8, 3.9, 4.0, 4.05, 4.09, 7.0]  # loses one pair
        row = bench_pairs.verdict(PARENT, change, "lower", 0.25)
        assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
        assert row["verdict"] == "gain"
        assert row["parent"][1] == pytest.approx(6.62) and row["ratio"] < 0.6

    def test_eight_of_ten_is_not_a_gain_whatever_the_medians_say(self, bench_pairs):
        change = [3.4] * 8 + [7.0, 7.0]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25)["verdict"] == "within bound"

    def test_ties_count_for_neither_side(self, bench_pairs):
        row = bench_pairs.verdict(PARENT, PARENT[:5] + [6.0] * 5, "lower", 0.25)
        assert (row["wins"], row["losses"]) == (5, 0)
        assert row["verdict"] == "within bound"

    def test_a_win_inside_the_parents_own_spread_is_not_a_gain(self, bench_pairs):
        change = [value - 0.05 for value in PARENT]  # 10/10, but IQR is ~0.28
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25)["verdict"] == "within bound"

    def test_beyond_the_bound_on_the_wrong_side_is_worse(self, bench_pairs):
        change = [value * 1.3 for value in PARENT]
        assert bench_pairs.verdict(PARENT, change, "lower", 0.25)["verdict"] == "worse"
        # ... and direction comes from the contract: more throughput is better.
        assert bench_pairs.verdict(PARENT, change, "higher", 0.25)["verdict"] == "gain"

    def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(self, bench_pairs):
        noisy = [0.20, 0.22, 0.25, 0.28, 0.30, 0.33, 0.36, 0.40, 0.45, 0.50]
        assert bench_pairs.verdict(noisy, noisy[::-1], "lower", 0.25)["verdict"] == "unresolved"
        # unless every run of the change beats every run of the parent
        better = [0.19, 0.18, 0.17, 0.19, 0.18, 0.16, 0.19, 0.18, 0.17, 0.15]
        assert bench_pairs.verdict(noisy, better, "lower", 0.25)["verdict"] in (
            "gain", "within bound")


class TestReport:
    def test_table_has_a_scaled_and_a_raw_row_per_metric(self, bench_pairs):
        change = [3.38, 3.5, 3.6, 3.7, 3.8, 3.9, 4.0, 4.05, 4.09, 3.45]
        table = bench_pairs.report(_lines(PARENT, change), CONTRACT)
        assert "## basm_inproc seed 1: 10 pairs" in table
        assert "parent: correct 10/10, failed 0 of 65200 attempted" in table
        rows = [line for line in table.splitlines() if line.startswith("| latency_p50_ms")]
        assert len(rows) == 2 and "(raw)" in rows[1]
        assert all("10/10" in row and row.rstrip(" |").endswith("gain") for row in rows)
        assert "6.62 [6.505, 6.79]" in rows[0] and "8.275" in rows[1]
        assert "throughput_per_s" not in table  # no run reported it

    def test_a_half_finished_pair_is_left_out(self, bench_pairs):
        runs = _lines(PARENT[:3], [3.4, 3.5, 3.6])[:-1]
        assert "2 pairs" in bench_pairs.report(runs, CONTRACT)


class TestRunLoop:
    def _checkout(self, root: Path, run_py: str) -> Path:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(run_py, encoding="utf-8")
        (root / "BENCHMARK.json").write_text(json.dumps(CONTRACT), encoding="utf-8")
        return root

    def test_sides_alternate_and_the_log_reproduces_the_table(self, bench_pairs, tmp_path,
                                                              monkeypatch, capsys):
        parent = self._checkout(tmp_path / "parent", "# bench")
        change = self._checkout(tmp_path / "change", "# bench")
        order = []

        def stub(checkout, workload, seed):
            order.append(checkout.name)
            value = 6.5 if checkout.name == "parent" else 3.5
            return {"correct": True, "attempted": 10, "failed": 0, "parity": 0,
                    "metrics": {"latency_p50_ms": value + 0.01 * len(order)},
                    "raw": {"latency_p50_ms": value}}

        monkeypatch.setattr(bench_pairs, "run_once", stub)
        log = tmp_path / "pairs.jsonl"
        code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--pairs", "4", "--log", str(log)])
        assert code == 0
        assert order == ["parent", "change", "change", "parent"] * 2
        table = capsys.readouterr().out
        assert "4 pairs" in table and "4/4" in table
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert [run["first"] for run in logged] == [True, False] * 4
        assert bench_pairs.main(["--change", str(change), "--report", str(log)]) == 0
        assert capsys.readouterr().out == table

    def test_a_different_bench_tree_is_refused(self, bench_pairs, tmp_path, monkeypatch):
        parent = self._checkout(tmp_path / "parent", "# bench")
        change = self._checkout(tmp_path / "change", "# bench, edited")
        monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("ran"))
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change)]) == 2
