"""One forward, two modes: a tape under grad, a graph-free kernel under ``no_grad``."""

from __future__ import annotations

import pytest

from repro import nn
from repro.models import create_model
from repro.nn import Tensor
from repro.nn import tensor as tensor_module

# Tensors reachable from one training step's loss on ``tiny_batch`` (the
# Table VI tape-node count at test scale), computed at commit ae6cb07 —
# ``din`` re-pinned 127 -> 158 when its activation unit's first layer was
# factored into column-block partials (PR 22).
TAPE_NODES = {
    "wide_deep": 138, "din": 158, "autoint": 242, "star": 221,
    "m2m": 179, "apg": 171, "basm": 284, "base_din": 215,
}


@pytest.mark.parametrize("model_name", ["basm", "din"])
def test_forward_under_no_grad_builds_no_graph(eleme_dataset, small_model_config,
                                               tiny_batch, made, model_name):
    model = create_model(model_name, eleme_dataset.schema, small_model_config)
    with nn.no_grad(), nn.inference_mode():
        output = model(tiny_batch)
    assert made and made[-1] is output
    for tensor in made:
        assert tensor.requires_grad is False
        assert tensor._prev == ()
        assert tensor._backward is tensor_module._no_backward


def test_constants_under_grad_are_plain_leaves(made):
    """No parent wants a gradient -> no node, even with recording on."""
    total = Tensor.concat([Tensor([1.0]) * 2.0, Tensor([3.0])]).sum()
    assert len(made) == 3 and made[-1] is total
    for tensor in made:
        assert not tensor.requires_grad and tensor._prev == ()
        assert tensor._backward is tensor_module._no_backward


@pytest.mark.parametrize("model_name", sorted(TAPE_NODES))
def test_tape_size_under_grad_is_unchanged(eleme_dataset, small_model_config,
                                           tiny_batch, model_name):
    model = create_model(model_name, eleme_dataset.schema, small_model_config)
    model.train()
    loss = nn.BCELoss()(model(tiny_batch), tiny_batch["labels"])
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    assert len(seen) == TAPE_NODES[model_name]
