"""Tests for Module bookkeeping, losses, optimizers and LR schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor
from repro.nn.optim import SGD, Adagrad, AdagradDecay, Adam, ConstantLR, LinearWarmup, WarmupThenDecay


class TinyNet(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.first = nn.Linear(4, 8, rng=rng)
        self.second = nn.Linear(8, 1, rng=rng)

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestModule:
    def test_named_parameters_are_nested(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "first.weight" in names and "second.bias" in names

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 + 1

    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.first.training
        net.train()
        assert net.second.training

    def test_state_dict_roundtrip(self):
        net = TinyNet()
        other = TinyNet()
        other.first.weight.data += 1.0
        other.load_state_dict(net.state_dict())
        assert np.allclose(other.first.weight.data, net.first.weight.data)

    def test_state_dict_strict_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("first.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    @pytest.mark.parametrize("width", [1, 5])
    def test_state_dict_buffer_shape_mismatch_raises(self, width):
        """A running statistic of the wrong shape is refused at load, not
        broadcast (width 1) or left to fail at the first forward (width 5)."""
        mlp = nn.MLP(4, [3, 1], use_batchnorm=True)
        state = mlp.state_dict()
        before = {name: value.copy() for name, value in state.items()}
        state["norms.0.running_var"] = np.full(width, 2.0, dtype=np.float32)
        with pytest.raises(ValueError, match="norms.0.running_var"):
            mlp.load_state_dict(state)
        for name, value in mlp.state_dict().items():
            assert np.array_equal(value, before[name]), f"{name} written by a refused load"

    def test_zero_grad_clears(self):
        net = TinyNet()
        out = net(Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        out.sum().backward()
        assert net.first.weight.grad is not None
        net.zero_grad()
        assert net.first.weight.grad is None

    def test_module_list_indexing(self):
        modules = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(modules) == 2
        assert isinstance(modules[1], nn.Linear)
        assert len(list(modules)) == 2


class TestLosses:
    def test_bce_matches_formula(self):
        predictions = Tensor(np.array([0.9, 0.1, 0.5], dtype=np.float32))
        labels = np.array([1.0, 0.0, 1.0])
        loss = nn.BCELoss()(predictions, labels).item()
        expected = -np.mean([np.log(0.9), np.log(0.9), np.log(0.5)])
        assert abs(loss - expected) < 1e-5

    def test_bce_gradient_direction(self):
        predictions = Tensor(np.array([0.3], dtype=np.float32), requires_grad=True)
        loss = nn.BCELoss()(predictions, np.array([1.0]))
        loss.backward()
        # Increasing the prediction decreases the loss, so the gradient is negative.
        assert predictions.grad[0] < 0


def _quadratic_problem():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(10,)).astype(np.float32)
    parameter = nn.Parameter(np.zeros(10, dtype=np.float32))
    return parameter, target


@pytest.mark.parametrize(
    "optimizer_factory",
    [
        lambda params: SGD(params, lr=0.2),
        lambda params: SGD(params, lr=0.1, momentum=0.9),
        lambda params: Adam(params, lr=0.1),
        lambda params: Adagrad(params, lr=0.5),
        lambda params: AdagradDecay(params, lr=0.5, decay=0.99),
    ],
)
def test_optimizers_minimise_quadratic(optimizer_factory):
    parameter, target = _quadratic_problem()
    optimizer = optimizer_factory([parameter])
    for _ in range(200):
        diff = parameter - Tensor(target)
        loss = (diff * diff).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    assert np.allclose(parameter.data, target, atol=0.05)


class TestOptimizerMechanics:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_negative_lr_raises(self):
        parameter, _ = _quadratic_problem()
        with pytest.raises(ValueError):
            Adam([parameter], lr=-1.0)

    def test_grad_clipping_reduces_norm(self):
        parameter, target = _quadratic_problem()
        optimizer = SGD([parameter], lr=0.1)
        diff = parameter - Tensor(target * 100)
        (diff * diff).sum().backward()
        norm_before = float(np.sqrt((parameter.grad ** 2).sum()))
        reported = optimizer.clip_grad_norm(1.0)
        norm_after = float(np.sqrt((parameter.grad ** 2).sum()))
        assert abs(reported - norm_before) < 1e-3
        assert norm_after <= 1.0 + 1e-5

    def test_adagrad_decay_validates_decay(self):
        parameter, _ = _quadratic_problem()
        with pytest.raises(ValueError):
            AdagradDecay([parameter], decay=1.5)

    def test_skips_parameters_without_grad(self):
        a = nn.Parameter(np.zeros(3, dtype=np.float32))
        b = nn.Parameter(np.zeros(3, dtype=np.float32))
        optimizer = SGD([a, b], lr=0.1)
        (a.sum()).backward()
        optimizer.step()
        assert np.allclose(b.data, 0.0)


class TestSchedulers:
    def _optimizer(self):
        parameter, _ = _quadratic_problem()
        return SGD([parameter], lr=0.05)

    def test_linear_warmup_reaches_peak(self):
        optimizer = self._optimizer()
        scheduler = LinearWarmup(optimizer, start_lr=0.001, end_lr=0.012, warmup_steps=10)
        values = [scheduler.step() for _ in range(15)]
        assert values[0] < values[5] < values[9]
        assert np.isclose(values[-1], 0.012)
        assert np.isclose(optimizer.lr, 0.012)

    def test_paper_schedule_shape(self):
        """The paper's schedule: 0.001 rising to 0.012 over the warm-up horizon."""
        optimizer = self._optimizer()
        scheduler = LinearWarmup(optimizer, start_lr=0.001, end_lr=0.012, warmup_steps=1000)
        first = scheduler.get_lr(1)
        last = scheduler.get_lr(1000)
        assert abs(first - 0.001) < 1e-4
        assert abs(last - 0.012) < 1e-9

    def test_constant(self):
        optimizer = self._optimizer()
        scheduler = ConstantLR(optimizer, lr=0.42)
        for _ in range(3):
            assert scheduler.step() == 0.42

    def test_warmup_then_decay_decreases_after_peak(self):
        optimizer = self._optimizer()
        scheduler = WarmupThenDecay(optimizer, warmup_steps=5, end_lr=0.1)
        values = [scheduler.step() for _ in range(50)]
        assert values[10] > values[-1]

    def test_invalid_warmup_steps(self):
        with pytest.raises(ValueError):
            LinearWarmup(self._optimizer(), warmup_steps=0)


class TestInitializers:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    @settings(max_examples=20)
    def test_xavier_uniform_bounds(self, fan_out, fan_in):
        rng = np.random.default_rng(0)
        values = nn.init.xavier_uniform((fan_out, fan_in), rng)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert values.shape == (fan_out, fan_in)
        assert np.all(np.abs(values) <= limit + 1e-6)

    def test_zeros_ones(self):
        assert np.all(nn.init.zeros((3, 3)) == 0)
        assert np.all(nn.init.ones((2,)) == 1)

    def test_he_normal_scale(self):
        rng = np.random.default_rng(0)
        values = nn.init.he_normal((2000, 100), rng)
        assert abs(values.std() - np.sqrt(2.0 / 100)) < 0.01
