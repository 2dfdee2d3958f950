"""Ablation benches beyond the paper: design choices called out in DESIGN.md.

1. StAEL gate scaling — the paper multiplies the sigmoid by 2 so fields can be
   strengthened as well as weakened; compare against a plain sigmoid gate.
2. StSTL behaviour filtering — the paper filters the behaviour sequence by the
   request's time-period and geohash before feeding the meta network; compare
   against conditioning on the unfiltered behaviour pooling.
3. StABT fusion paths — Fusion FC only vs Fusion BN only vs both.
"""

from __future__ import annotations

from repro.models import create_model
from repro.training import Trainer, evaluate_model

from .conftest import format_rows, save_result


def _train_variants(dataset, model_config, train_config, variants):
    rows = []
    reports = {}
    for label, kwargs in variants.items():
        model = create_model("basm", dataset.schema, model_config, **kwargs)
        Trainer(train_config).fit(model, dataset.train)
        report = evaluate_model(model, dataset.test, batch_size=train_config.batch_size)
        reports[label] = report
        rows.append({"Variant": label, **{k: round(v, 4) for k, v in report.as_dict().items()}})
    return rows, reports


def test_ablation_gate_scaling_and_st_filter(eleme_bench, model_config, train_config):
    variants = {
        "BASM (2*sigmoid gate, ST-filtered behavior)": {},
        "sigmoid gate (scale=1)": {"gate_scale": 1.0},
        "unfiltered behavior in StSTL": {"use_st_filtered_behavior": False},
        "Fusion FC only": {"use_fusion_bn": False},
        "Fusion BN only": {"use_fusion_fc": False},
    }
    rows, reports = _train_variants(eleme_bench, model_config, train_config, variants)
    save_result("ablation_design_choices", format_rows(rows, "Design-choice ablations (Ele.me synthetic)"))
    # All variants train to something meaningful; the full design is competitive.
    full = reports["BASM (2*sigmoid gate, ST-filtered behavior)"]
    assert all(report.auc > 0.5 for report in reports.values())
    assert full.auc >= max(report.auc for report in reports.values()) - 0.02
