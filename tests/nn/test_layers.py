"""Unit tests for nn layers: Linear, Embedding, MLP, BatchNorm, attention, dropout."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


@pytest.fixture
def layer_rng():
    return np.random.default_rng(3)


class TestLinear:
    def test_output_shape(self, layer_rng):
        layer = nn.Linear(6, 4, rng=layer_rng)
        out = layer(Tensor(layer_rng.normal(size=(10, 6))))
        assert out.shape == (10, 4)

    def test_batched_input(self, layer_rng):
        layer = nn.Linear(6, 4, rng=layer_rng)
        out = layer(Tensor(layer_rng.normal(size=(5, 7, 6))))
        assert out.shape == (5, 7, 4)

    def test_no_bias(self, layer_rng):
        layer = nn.Linear(3, 2, bias=False, rng=layer_rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_wrong_input_dim_raises(self, layer_rng):
        layer = nn.Linear(6, 4, rng=layer_rng)
        with pytest.raises(ValueError):
            layer(Tensor(layer_rng.normal(size=(10, 5))))

    @pytest.mark.parametrize("out_features", [1, 4], ids=["multiply-sum", "gemm"])
    def test_partial_checks_its_input_width(self, layer_rng, out_features):
        """A 1-output layer's multiply-and-sum would *broadcast* a wrong width."""
        layer = nn.Linear(8, out_features, rng=layer_rng)
        for width in (1, 3, 8):
            with pytest.raises(ValueError, match=rf"last dim 4 for column block \[0:4\].*\(3, {width}\)"):
                layer.infer_partial(np.ones((3, width), np.float32), 0, 4)
        with pytest.raises(ValueError, match=r"invalid column slice \[6:9\]"):
            layer.infer_partial(np.ones((3, 3), np.float32), 6, 9)

    def test_partials_of_a_column_partition_sum_to_forward(self, layer_rng):
        layer = nn.Linear(8, 4, rng=layer_rng)
        layer.bias.data[...] = layer_rng.normal(size=4)
        x = layer_rng.normal(size=(5, 8)).astype(np.float32)
        total = sum(layer.infer_partial(x[:, a:b], a, b) for a, b in ((0, 3), (3, 4), (4, 8)))
        np.testing.assert_allclose(total + layer.bias.data, layer(Tensor(x)).data, atol=1e-6)
        taped = layer.partial(Tensor(x[:, 3:4], requires_grad=True), 3, 4)
        assert isinstance(taped, Tensor) and taped.requires_grad
        assert np.array_equal(taped.data, layer.infer_partial(x[:, 3:4], 3, 4))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_gradients_flow_to_parameters(self, layer_rng):
        layer = nn.Linear(6, 4, rng=layer_rng)
        out = layer(Tensor(layer_rng.normal(size=(10, 6))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_matches_manual_affine(self, layer_rng):
        layer = nn.Linear(3, 2, rng=layer_rng)
        x = layer_rng.normal(size=(4, 3)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected, atol=1e-5)


class TestEmbedding:
    def test_lookup_shape(self, layer_rng):
        table = nn.Embedding(50, 8, rng=layer_rng)
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 8)

    def test_out_of_range_raises(self, layer_rng):
        table = nn.Embedding(10, 4, rng=layer_rng)
        with pytest.raises(IndexError):
            table(np.array([10]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_gradient_only_touches_used_rows(self, layer_rng):
        table = nn.Embedding(10, 4, rng=layer_rng)
        table(np.array([2, 2, 5])).sum().backward()
        grad = table.weight.grad
        assert np.allclose(grad[2], 2.0 * np.ones(4) * 0 + grad[2])  # row used twice
        assert np.allclose(grad[3], 0.0)
        assert np.allclose(grad[5], 1.0 * np.ones(4) * 0 + grad[5])
        assert np.abs(grad[2]).sum() > np.abs(grad[5]).sum()


class TestBatchNorm:
    def test_train_mode_normalises_batch(self, layer_rng):
        bn = nn.BatchNorm1d(5)
        x = Tensor(layer_rng.normal(loc=3.0, scale=2.0, size=(64, 5)))
        out = bn(x)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_eval_mode_uses_running_stats(self, layer_rng):
        bn = nn.BatchNorm1d(3, momentum=0.5)
        x = layer_rng.normal(loc=2.0, size=(128, 3))
        for _ in range(20):
            bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=0.2)

    def test_gradient_flows_through_statistics(self, layer_rng):
        bn = nn.BatchNorm1d(4)
        x = Tensor(layer_rng.normal(size=(32, 4)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        # Because the batch mean is subtracted, the gradient of the sum is ~0.
        assert np.abs(x.grad.sum()) < 1e-2

    def test_wrong_shape_raises(self):
        bn = nn.BatchNorm1d(4)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 3))))

    def test_layernorm_normalises_last_axis(self, layer_rng):
        ln = nn.LayerNorm(6)
        x = Tensor(layer_rng.normal(loc=5.0, size=(4, 6)))
        out = ln(x)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)


class TestMLP:
    def test_shapes_and_final_logit(self, layer_rng):
        mlp = nn.MLP(10, [16, 8, 1], final_activation=False, rng=layer_rng)
        out = mlp(Tensor(layer_rng.normal(size=(7, 10))))
        assert out.shape == (7, 1)

    def test_empty_hidden_units_raises(self):
        with pytest.raises(ValueError):
            nn.MLP(4, [])

    def test_batchnorm_layers_created(self, layer_rng):
        mlp = nn.MLP(10, [16, 8], use_batchnorm=True, rng=layer_rng)
        assert any(isinstance(module, nn.BatchNorm1d) for module in mlp.modules())

    def test_dropout_only_active_in_training(self, layer_rng):
        mlp = nn.MLP(10, [16], dropout=0.5, rng=layer_rng)
        x = Tensor(layer_rng.normal(size=(32, 10)))
        mlp.eval()
        first = mlp(x).data
        second = mlp(x).data
        assert np.allclose(first, second)

    def test_parameter_count(self, layer_rng):
        mlp = nn.MLP(10, [16, 1], use_batchnorm=False, rng=layer_rng)
        expected = 10 * 16 + 16 + 16 * 1 + 1
        assert mlp.num_parameters() == expected


class TestAttention:
    def test_target_attention_shape(self, layer_rng):
        attention = nn.MultiHeadTargetAttention(16, 4, rng=layer_rng)
        target = Tensor(layer_rng.normal(size=(6, 16)))
        sequence = Tensor(layer_rng.normal(size=(6, 9, 16)))
        out = attention(target, sequence)
        assert out.shape == (6, 16)

    def test_target_attention_respects_mask(self, layer_rng):
        attention = nn.MultiHeadTargetAttention(8, 2, rng=layer_rng)
        target = Tensor(layer_rng.normal(size=(2, 8)))
        sequence_data = layer_rng.normal(size=(2, 5, 8)).astype(np.float32)
        mask = np.array([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=np.float32)
        out_masked = attention(target, Tensor(sequence_data), mask=mask)
        # Changing masked-out positions must not change the output.
        perturbed = sequence_data.copy()
        perturbed[:, 2:, :] += 10.0
        out_perturbed = attention(target, Tensor(perturbed), mask=mask)
        assert np.allclose(out_masked.data, out_perturbed.data, atol=1e-4)

    def test_dim_not_divisible_by_heads_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadTargetAttention(10, 3)

    def test_self_attention_shape(self, layer_rng):
        attention = nn.MultiHeadSelfAttention(12, 2, rng=layer_rng)
        fields = Tensor(layer_rng.normal(size=(4, 5, 12)))
        out = attention(fields)
        assert out.shape == (4, 5, 12)

    def test_din_activation_unit_masks_padding(self, layer_rng):
        unit = nn.DINLocalActivationUnit(8, rng=layer_rng)
        target = Tensor(layer_rng.normal(size=(3, 8)))
        sequence = Tensor(layer_rng.normal(size=(3, 6, 8)))
        empty_mask = np.zeros((3, 6), dtype=np.float32)
        out = unit(target, sequence, mask=empty_mask)
        assert np.allclose(out.data, 0.0, atol=1e-6)


class TestActivationsAndDropout:
    def test_get_activation_known_names(self):
        for name in ["relu", "leaky_relu", "sigmoid", "tanh", "softmax", "identity"]:
            module = nn.get_activation(name)
            assert isinstance(module, nn.Module)

    def test_get_activation_unknown_raises(self):
        with pytest.raises(ValueError):
            nn.get_activation("swishh")

    def test_dropout_scales_kept_units(self, layer_rng):
        dropout = nn.Dropout(0.5, rng=layer_rng)
        x = Tensor(np.ones((2000,), dtype=np.float32))
        out = dropout(x)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)

    def test_sequential_chains_modules(self, layer_rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=layer_rng), nn.ReLU(), nn.Linear(8, 2, rng=layer_rng))
        out = model(Tensor(layer_rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)
        assert len(model) == 3
