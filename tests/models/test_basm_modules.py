"""Detailed tests of BASM's three modules and its ablation switches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import FieldName
from repro.models import create_model
from repro.models.basm import (
    FusionLayer,
    SpatiotemporalAdaptiveBiasTower,
    SpatiotemporalAwareEmbeddingLayer,
    SpatiotemporalSemanticTransformLayer,
)
from repro.nn import BCELoss, Tensor


@pytest.fixture
def module_rng():
    return np.random.default_rng(11)


class TestStAEL:
    def _fields(self, rng, batch=16):
        dims = {FieldName.USER: 12, FieldName.CANDIDATE_ITEM: 10, FieldName.CONTEXT: 8}
        return dims, {
            name: Tensor(rng.normal(size=(batch, dim)).astype(np.float32), requires_grad=True)
            for name, dim in dims.items()
        }

    def test_alphas_start_at_one(self, module_rng):
        """Zero-value initialisation (Fig. 4) means the layer is initially a no-op."""
        dims, fields = self._fields(module_rng)
        layer = SpatiotemporalAwareEmbeddingLayer(dims)
        scaled, alphas = layer(fields)
        for name in dims:
            assert np.allclose(alphas[name].data, 1.0, atol=1e-6)
            assert np.allclose(scaled[name].data, fields[name].data, atol=1e-6)

    def test_alphas_bounded_between_zero_and_two(self, module_rng):
        dims, fields = self._fields(module_rng)
        layer = SpatiotemporalAwareEmbeddingLayer(dims)
        # Push the gate weights away from zero so alphas move off 1.
        for gate in layer.gates:
            gate.weight.data += module_rng.normal(0, 0.5, size=gate.weight.data.shape)
        _, alphas = layer(fields)
        for alpha in alphas.values():
            assert np.all(alpha.data > 0.0)
            assert np.all(alpha.data < 2.0)

    def test_context_field_required(self):
        with pytest.raises(ValueError):
            SpatiotemporalAwareEmbeddingLayer({FieldName.USER: 4})

    def test_gradients_flow_through_gate(self, module_rng):
        dims, fields = self._fields(module_rng)
        layer = SpatiotemporalAwareEmbeddingLayer(dims)
        scaled, _ = layer(fields)
        Tensor.concat(list(scaled.values()), axis=-1).sum().backward()
        for gate in layer.gates:
            assert gate.weight.grad is not None


class TestStSTL:
    def test_near_identity_at_initialisation(self, module_rng):
        layer = SpatiotemporalSemanticTransformLayer(
            raw_semantic_dim=20, context_dim=8, behavior_dim=6, semantic_dim=12, rng=module_rng
        )
        raw = Tensor(module_rng.normal(size=(10, 20)).astype(np.float32))
        context = Tensor(np.zeros((10, 8), dtype=np.float32))
        behavior = Tensor(np.zeros((10, 6), dtype=np.float32))
        out = layer(raw, context, behavior)
        compressed = layer.input_proj(raw)
        # With zero condition the generated matrix is the identity plus the
        # (zero-conditioned) bias, so the output tracks the compressed input.
        assert np.allclose(out.data, compressed.data + layer.bias_generator.bias.data, atol=1e-4)

    def test_output_depends_on_context(self, module_rng):
        layer = SpatiotemporalSemanticTransformLayer(
            raw_semantic_dim=20, context_dim=8, behavior_dim=6, semantic_dim=12, rng=module_rng
        )
        # Make the meta network sensitive to its condition.
        layer.weight_generator.weight.data += module_rng.normal(0, 0.3, size=layer.weight_generator.weight.data.shape).astype(np.float32)
        raw = Tensor(module_rng.normal(size=(4, 20)).astype(np.float32))
        behavior = Tensor(np.zeros((4, 6), dtype=np.float32))
        context_a = Tensor(np.zeros((4, 8), dtype=np.float32))
        context_b = Tensor(np.ones((4, 8), dtype=np.float32))
        out_a = layer(raw, context_a, behavior)
        out_b = layer(raw, context_b, behavior)
        assert not np.allclose(out_a.data, out_b.data, atol=1e-3)

    def test_output_dim_property(self, module_rng):
        layer = SpatiotemporalSemanticTransformLayer(30, 8, 6, semantic_dim=16, rng=module_rng)
        assert layer.output_dim == 16
        raw = Tensor(module_rng.normal(size=(5, 30)).astype(np.float32))
        out = layer(raw, Tensor(np.zeros((5, 8), dtype=np.float32)), Tensor(np.zeros((5, 6), dtype=np.float32)))
        assert out.shape == (5, 16)


class TestStABT:
    def test_fusion_layer_shapes(self, module_rng):
        layer = FusionLayer(16, 8, context_dim=6, rng=module_rng)
        x = Tensor(module_rng.normal(size=(32, 16)).astype(np.float32))
        context = Tensor(module_rng.normal(size=(32, 6)).astype(np.float32))
        assert layer(x, context).shape == (32, 8)

    def test_fusion_flags_disable_modulation(self, module_rng):
        """With both fusion paths off the layer reduces to a plain FC + BN block."""
        layer = FusionLayer(16, 8, context_dim=6, use_fusion_fc=False, use_fusion_bn=False,
                            rng=module_rng)
        x = Tensor(module_rng.normal(size=(32, 16)).astype(np.float32))
        context_a = Tensor(module_rng.normal(size=(32, 6)).astype(np.float32))
        context_b = Tensor(module_rng.normal(size=(32, 6)).astype(np.float32))
        assert np.allclose(layer(x, context_a).data, layer(x, context_b).data)

    def test_fusion_modulation_depends_on_context(self, module_rng):
        layer = FusionLayer(16, 8, context_dim=6, rng=module_rng)
        x = Tensor(module_rng.normal(size=(32, 16)).astype(np.float32))
        context_a = Tensor(np.zeros((32, 6), dtype=np.float32))
        context_b = Tensor(np.ones((32, 6), dtype=np.float32))
        assert not np.allclose(layer(x, context_a).data, layer(x, context_b).data, atol=1e-4)

    def test_tower_output_and_hidden(self, module_rng):
        tower = SpatiotemporalAdaptiveBiasTower(24, 6, hidden_units=(16, 8), rng=module_rng)
        x = Tensor(module_rng.normal(size=(20, 24)).astype(np.float32))
        context = Tensor(module_rng.normal(size=(20, 6)).astype(np.float32))
        probabilities = tower(x, context)
        hidden = tower.hidden_representation(x, context)
        assert probabilities.shape == (20,)
        assert np.all((probabilities.data > 0) & (probabilities.data < 1))
        assert hidden.shape == (20, 8)


class TestBASMModel:
    def test_ablation_flags_change_architecture(self, eleme_dataset, small_model_config):
        full = create_model("basm", eleme_dataset.schema, small_model_config)
        without_tower = create_model("basm", eleme_dataset.schema, small_model_config, use_stabt=False)
        assert full.tower is not None and full.static_tower is None
        assert without_tower.tower is None and without_tower.static_tower is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"use_stael": False},
            {"use_ststl": False},
            {"use_stabt": False},
            {"use_fusion_bn": False},
            {"use_fusion_fc": False},
            {"use_st_filtered_behavior": False},
        ],
    )
    def test_every_ablation_variant_runs(self, kwargs, eleme_dataset, small_model_config, tiny_batch):
        model = create_model("basm", eleme_dataset.schema, small_model_config, **kwargs)
        predictions = model(tiny_batch)
        assert predictions.shape == (len(tiny_batch["labels"]),)
        loss = BCELoss()(predictions, tiny_batch["labels"])
        loss.backward()

    def test_spatiotemporal_weights_exposed_per_field(self, eleme_dataset, small_model_config, tiny_batch):
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        alphas = model.spatiotemporal_weights(tiny_batch)
        assert set(alphas) == set(model.embedder.field_dims())
        for values in alphas.values():
            assert values.shape == (len(tiny_batch["labels"]),)
            assert np.all((values > 0) & (values < 2))

    def test_forward_leaves_no_per_batch_state_on_the_model(self, eleme_dataset,
                                                            small_model_config, tiny_batch):
        """Alphas are returned, never parked on the instance: a model shared
        by serving threads cannot hand the heatmap reader another batch's."""
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        attributes = set(vars(model))
        model(tiny_batch)
        model.predict(tiny_batch)
        model.spatiotemporal_weights(tiny_batch)
        assert set(vars(model)) == attributes
        assert not hasattr(model, "last_alphas")

    def test_final_representation_shape(self, eleme_dataset, small_model_config, tiny_batch):
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        hidden = model.final_representation(tiny_batch)
        assert hidden.shape == (len(tiny_batch["labels"]), small_model_config.tower_units[-1])

    def test_predictions_vary_with_context(self, eleme_dataset, small_model_config, tiny_batch):
        """Changing only the spatiotemporal context must change BASM's scores."""
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        # Perturb the gates/meta nets so context actually matters at init.
        rng = np.random.default_rng(0)
        for gate in model.stael.gates:
            gate.weight.data += rng.normal(0, 0.3, size=gate.weight.data.shape).astype(np.float32)
        baseline = model.predict(tiny_batch)
        altered = {key: value for key, value in tiny_batch.items()}
        altered["fields"] = dict(tiny_batch["fields"])
        schema = eleme_dataset.schema
        context = tiny_batch["fields"]["context"].copy()
        # Swap every impression's time-period feature to a different period.
        offset = schema.offset("ctx_time_period")
        local = context[:, 0] - offset
        context[:, 0] = offset + (local % 5) + 1
        altered["fields"]["context"] = context
        assert not np.allclose(model.predict(altered), baseline, atol=1e-5)

    def test_basm_has_more_parameters_than_wide_deep(self, eleme_dataset, small_model_config):
        basm = create_model("basm", eleme_dataset.schema, small_model_config)
        wide_deep = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        assert basm.num_parameters() > 0
        assert wide_deep.num_parameters() > 0
