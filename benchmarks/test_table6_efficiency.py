"""Table VI: training time and memory cost of every method.

The paper reports minutes-per-epoch and gigabytes on a production training
cluster; here the cost of a method is the size of the autograd tape one
training step records — the number of nodes reachable from the loss for one
fixed 1024-row batch, a deterministic stand-in for time — next to an
analytical memory accounting.  Seconds-per-epoch on the shared numpy
substrate is printed in the table but asserted nowhere (it moves with host
load; speed is ``bench/run.py``'s business).  The asserted shape:
static-parameter methods (Wide&Deep, DIN, AutoInt) are cheaper than
dynamic-parameter methods (STAR, M2M, APG, BASM).
"""

from __future__ import annotations

import numpy as np

from repro.data import DataLoader
from repro.models import DYNAMIC_MODELS, PAPER_MODELS, STATIC_MODELS, create_model
from repro.nn import BCELoss
from repro.training import TrainConfig, profile_model

from .conftest import format_rows, save_result

BATCH_SIZE = 1024


def _tape_nodes(model, batch) -> int:
    """Tensors reachable from one training step's loss through ``_prev``."""
    model.train()
    loss = BCELoss()(model(batch), batch["labels"])
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


def _profile_all(dataset, model_config):
    config = TrainConfig(epochs=1, batch_size=BATCH_SIZE, warmup_steps=10)
    batch = next(iter(DataLoader(dataset.train, batch_size=BATCH_SIZE, shuffle=False)))
    reports, nodes = {}, {}
    for name in PAPER_MODELS:
        model = create_model(name, dataset.schema, model_config)
        nodes[name] = _tape_nodes(model, batch)
        reports[name] = profile_model(model, dataset.train, config=config, max_batches=8)
    return reports, nodes


def test_table6_training_efficiency(eleme_bench, model_config):
    reports, nodes = _profile_all(eleme_bench, model_config)
    rows = [{**reports[name].as_row(), "Tape nodes": nodes[name]} for name in PAPER_MODELS]
    save_result("table6_efficiency", format_rows(rows, "Table VI — training cost and memory accounting"))

    static_nodes = np.mean([nodes[name] for name in STATIC_MODELS])
    dynamic_nodes = np.mean([nodes[name] for name in DYNAMIC_MODELS])
    static_params = np.mean([reports[name].parameter_count for name in STATIC_MODELS])
    dynamic_params = np.mean([reports[name].parameter_count for name in DYNAMIC_MODELS])

    # Dynamic-parameter methods carry more state and record more work per step on average.
    assert dynamic_params > static_params
    assert dynamic_nodes > static_nodes
    # Every profile produced sane numbers.
    for name, report in reports.items():
        assert nodes[name] > 0
        assert report.estimated_total_mb > 0
