"""Table V: ablation of BASM's three modules on the Ele.me-style dataset.

The paper removes StAEL, StSTL and StABT one at a time; each removal hurts,
with StSTL's removal hurting LogLoss the most.  The bench asserts the ordering
claim that matters — full BASM is at least as good as every ablated variant on
AUC — and reports the full grid.
"""

from __future__ import annotations

from repro.training import format_table, run_basm_ablation

from .conftest import save_result


def _run(dataset, model_config, train_config):
    return run_basm_ablation(
        dataset.train,
        dataset.test,
        model_config=model_config,
        train_config=train_config,
    )


def test_table5_basm_ablation(eleme_bench, model_config, train_config):
    results = _run(eleme_bench, model_config, train_config)
    save_result("table5_ablation", format_table(results, "Table V — BASM module ablation (Ele.me synthetic)"))
    by_name = {result.model_name: result.report for result in results}
    full = by_name["BASM"]
    # Full BASM is not worse than any ablated variant (small tolerance for run noise).
    for label in ["w/o StAEL", "w/o StSTL", "w/o StABT"]:
        assert full.auc >= by_name[label].auc - 0.01
    # Removing everything still leaves a working model.
    assert min(report.auc for report in by_name.values()) > 0.5
