"""Finite-difference gradient checks for the ops on the serving path.

The serving engine trusts the autograd engine for training and the ``no_grad``
path for inference; these checks verify the analytic backward of every entry
of the primitive table (one case each, enumerated from the table) and of the
blocks the online models lean on — the softmax target attention, DIN's
activation unit, the embedding gather — against central finite differences.

Tensors are float32, so the checks use a relatively large step and a relative
error criterion; every op below is smooth at the probed points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.tensor import PRIMITIVES


def _numerical_grad(fn, value: np.ndarray, eps: float = 1e-2) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``value``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn()
        flat[index] = original - eps
        lower = fn()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * eps)
    return grad


def _check(analytic: np.ndarray, numerical: np.ndarray, tolerance: float = 2e-2) -> None:
    scale = np.abs(analytic) + np.abs(numerical) + 1e-3
    relative = np.abs(analytic.astype(np.float64) - numerical) / scale
    assert relative.max() < tolerance, f"max relative error {relative.max():.4f}"


def _loss_of(tensor_fn) -> float:
    with nn.no_grad():
        return float(tensor_fn().data.sum())


class TestGradCheck:
    def test_matmul(self, rng):
        a = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        out = (a @ b).sum()
        out.backward()
        _check(a.grad, _numerical_grad(lambda: _loss_of(lambda: a @ b), a.data))
        _check(b.grad, _numerical_grad(lambda: _loss_of(lambda: a @ b), b.data))

    def test_sigmoid(self, rng):
        x = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)
        x.sigmoid().sum().backward()
        _check(x.grad, _numerical_grad(lambda: _loss_of(x.sigmoid), x.data))

    def test_softmax(self, rng):
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        weights = np.linspace(0.5, 1.5, 20).reshape(4, 5).astype(np.float32)

        def value() -> Tensor:
            return x.softmax(axis=-1) * Tensor(weights)

        value().sum().backward()
        _check(x.grad, _numerical_grad(lambda: _loss_of(value), x.data))

    def test_embedding_gather(self, rng):
        embedding = nn.Embedding(10, 4, rng=rng, std=0.5)
        indices = np.array([[1, 3, 3], [7, 0, 1]])
        weights = Tensor(rng.uniform(0.5, 1.5, (2, 3, 4)).astype(np.float32))

        def value() -> Tensor:
            return embedding(indices) * weights

        value().sum().backward()
        _check(
            embedding.weight.grad,
            _numerical_grad(lambda: _loss_of(value), embedding.weight.data),
        )

    @pytest.mark.parametrize("pools", [None, [2, 2], [1, 3]], ids=["flat", "uniform", "ragged"])
    def test_softmax_target_attention(self, rng, pools):
        """The full multi-head target attention block, mask included — w.r.t.
        both inputs and every projection, a sequence per row and through
        ``row_map`` (one stacked product for uniform pools, a loop for ragged)."""
        attention = nn.MultiHeadTargetAttention(8, num_heads=2, rng=rng)
        row_map = None if pools is None else np.repeat(np.arange(len(pools)), pools)
        unique = 4 if pools is None else len(pools)
        target = Tensor(rng.standard_normal((4, 8)).astype(np.float32) * 0.5,
                        requires_grad=True)
        sequence = Tensor(rng.standard_normal((unique, 5, 8)).astype(np.float32) * 0.5,
                          requires_grad=True)
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [0, 1, 1, 0, 1]],
                        dtype=np.float32)[:unique]
        weights = Tensor(np.linspace(0.5, 2.0, 32).reshape(4, 8).astype(np.float32))

        def value() -> Tensor:
            return attention(target, sequence, mask=mask, row_map=row_map) * weights

        value().sum().backward()
        def loss() -> float:   # summed in float64: some of these gradients are ~1e-4
            with nn.no_grad():
                return float(value().data.sum(dtype=np.float64))

        # The key bias shifts all of a query's scores alike, which softmax
        # ignores: its gradient is float noise around zero.
        assert np.abs(attention.key_proj.bias.grad).max() < 1e-5
        checked = [target, sequence] + [parameter for parameter in attention.parameters()
                                        if parameter is not attention.key_proj.bias]
        for tensor in checked:
            assert tensor.grad is not None and np.abs(tensor.grad).max() > 0
            _check(tensor.grad, _numerical_grad(loss, tensor.data))

    @pytest.mark.parametrize("pools", [None, [2, 2], [1, 3]], ids=["flat", "uniform", "ragged"])
    def test_din_local_activation_unit(self, rng, pools):
        """The factored first layer, tail, mask and pooling — w.r.t. both inputs
        and every scorer parameter, a sequence per row and through ``row_map``."""
        unit = nn.DINLocalActivationUnit(4, hidden_units=(5, 3), rng=rng)
        for parameter in unit.parameters():
            parameter.data += rng.normal(scale=0.3, size=parameter.shape).astype(np.float32)
        row_map = None if pools is None else np.repeat(np.arange(len(pools)), pools)
        unique = 4 if pools is None else len(pools)
        target = Tensor(rng.standard_normal((4, 4)).astype(np.float32) * 0.5, requires_grad=True)
        sequence = Tensor(rng.standard_normal((unique, 3, 4)).astype(np.float32) * 0.5,
                          requires_grad=True)
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1]], dtype=np.float32)[:unique]
        weights = Tensor(np.linspace(0.5, 2.0, 16).reshape(4, 4).astype(np.float32))

        def value() -> Tensor:
            return unit(target, sequence, mask=mask, row_map=row_map) * weights

        value().sum().backward()
        def loss() -> float:   # summed in float64: some of these gradients are ~1e-3
            with nn.no_grad():
                return float(value().data.sum(dtype=np.float64))

        for tensor in [target, sequence] + unit.parameters():
            assert tensor.grad is not None and np.abs(tensor.grad).max() > 0
            _check(tensor.grad, _numerical_grad(loss, tensor.data, eps=2e-2))

    def test_single_output_linear(self, rng):
        """The deterministic multiply+reduce path of 1-wide Linear layers."""
        layer = nn.Linear(7, 1, rng=rng)
        x = Tensor(rng.standard_normal((5, 7)).astype(np.float32), requires_grad=True)

        def value() -> Tensor:
            return layer(x).sigmoid()

        value().sum().backward()
        _check(x.grad, _numerical_grad(lambda: _loss_of(value), x.data))
        _check(layer.weight.grad, _numerical_grad(lambda: _loss_of(value), layer.weight.data))

    def test_contiguous_passthrough(self, rng):
        """contiguous() must be gradient-transparent for transposed views."""
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
        out = (x.transpose().contiguous() @ y).sum()
        out.backward()
        _check(x.grad, _numerical_grad(
            lambda: _loss_of(lambda: x.transpose().contiguous() @ y), x.data))


def _away_from_zero(rng, shape):
    """Values at least 0.2 from 0: the finite difference never straddles a kink."""
    value = rng.standard_normal(shape)
    return (np.sign(value) * (0.2 + np.abs(value))).astype(np.float32)


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, shape).astype(np.float32)


def _normal(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


#: One case per entry of ``PRIMITIVES``: the inputs to differentiate and the
#: call.  A new entry without a case here fails ``test_primitive``.
PRIMITIVE_CASES = {
    "add": (lambda r: [_normal(r, (3, 4)), _normal(r, (4,))], lambda a, b: a + b),
    "sub": (lambda r: [_normal(r, (3, 4)), _normal(r, (3, 1))], lambda a, b: a - b),
    "neg": (lambda r: [_normal(r, (3, 4))], lambda x: -x),
    "mul": (lambda r: [_normal(r, (3, 4)), _normal(r, (1, 4))], lambda a, b: a * b),
    "pow": (lambda r: [_positive(r, (3, 4))], lambda x: x ** 3),
    "matmul": (lambda r: [_normal(r, (2, 3, 4)), _normal(r, (4, 5))], lambda a, b: a @ b),
    "log": (lambda r: [_positive(r, (3, 4))], lambda x: x.log()),
    "sigmoid": (lambda r: [_normal(r, (3, 4))], lambda x: x.sigmoid()),
    "tanh": (lambda r: [_normal(r, (3, 4))], lambda x: x.tanh()),
    "relu": (lambda r: [_away_from_zero(r, (3, 4))], lambda x: x.relu()),
    "leaky_relu": (lambda r: [_away_from_zero(r, (3, 4))], lambda x: x.leaky_relu(0.1)),
    "clip": (lambda r: [_away_from_zero(r, (3, 4)) * 0.5], lambda x: x.clip(-0.5, 0.5)),
    "softmax": (lambda r: [_normal(r, (3, 4))], lambda x: x.softmax(axis=0)),
    "sum": (lambda r: [_normal(r, (3, 4))], lambda x: x.sum(axis=1)),
    "mean": (lambda r: [_normal(r, (3, 4))], lambda x: x.mean(axis=0, keepdims=True)),
    "reshape": (lambda r: [_normal(r, (3, 4))], lambda x: x.reshape(2, 6)),
    "transpose": (lambda r: [_normal(r, (2, 3, 4))], lambda x: x.transpose(1, 2, 0)),
    "swapaxes": (lambda r: [_normal(r, (2, 3, 4))], lambda x: x.swapaxes(0, 2)),
    "contiguous": (lambda r: [_normal(r, (3, 4))], lambda x: x.transpose().contiguous()),
    "getitem": (lambda r: [_normal(r, (3, 4))], lambda x: x[np.array([0, 2, 0]), 1:]),
    "take_rows": (lambda r: [_normal(r, (5, 3))], lambda x: x.take_rows(np.array([[1, 3], [3, 0]]))),
    "concat": (lambda r: [_normal(r, (2, 3)), _normal(r, (2, 2))],
               lambda a, b: Tensor.concat([a, b], axis=1)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive(name, rng):
    """Every input's VJP against central differences, under a weighted sum."""
    assert name in PRIMITIVE_CASES, f"primitive {name!r} has no gradcheck case"
    make_inputs, call = PRIMITIVE_CASES[name]
    inputs = [Tensor(array, requires_grad=True) for array in make_inputs(rng)]
    weights = Tensor(rng.uniform(0.5, 1.5, call(*inputs).shape).astype(np.float32))

    def value() -> Tensor:
        return call(*inputs) * weights

    value().sum().backward()
    for tensor in inputs:
        assert tensor.grad is not None and tensor.grad.shape == tensor.shape
        _check(tensor.grad, _numerical_grad(lambda: _loss_of(value), tensor.data))


def test_primitive_cases_name_only_primitives():
    assert set(PRIMITIVE_CASES) <= set(PRIMITIVES)
