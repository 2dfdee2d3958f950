"""Behavioural tests shared by every registered CTR model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import PAPER_MODELS, available_models, create_model
from repro.nn import BCELoss
from repro.training import TrainConfig, build_optimizer


ALL_MODELS = sorted(available_models())


class TestRegistry:
    def test_paper_models_are_registered(self):
        for name in PAPER_MODELS:
            assert name in ALL_MODELS
        assert PAPER_MODELS[-1] == "basm"
        assert len(PAPER_MODELS) == 7

    def test_unknown_model_raises(self, eleme_dataset):
        with pytest.raises(ValueError):
            create_model("definitely_not_a_model", eleme_dataset.schema)

    def test_base_din_variant_available(self, eleme_dataset, small_model_config):
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        assert model.name == "base_din"


@pytest.mark.parametrize("model_name", ALL_MODELS)
class TestEveryModel:
    def test_forward_shape_and_range(self, model_name, eleme_dataset, small_model_config, tiny_batch):
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        predictions = model(tiny_batch)
        assert predictions.shape == (len(tiny_batch["labels"]),)
        assert np.all(predictions.data > 0.0)
        assert np.all(predictions.data < 1.0)

    def test_predict_matches_eval_forward_and_has_no_graph(
        self, model_name, eleme_dataset, small_model_config, tiny_batch
    ):
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        scores = model.predict(tiny_batch)
        assert scores.shape == (len(tiny_batch["labels"]),)
        assert model.training  # predict() must restore training mode

    def test_gradients_reach_embeddings(self, model_name, eleme_dataset, small_model_config, tiny_batch):
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        loss = BCELoss()(model(tiny_batch), tiny_batch["labels"])
        loss.backward()
        grad = model.embedder.embedding.weight.grad
        assert grad is not None
        assert np.abs(grad).sum() > 0

    def test_one_optimisation_step_reduces_loss(
        self, model_name, eleme_dataset, small_model_config, tiny_batch
    ):
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        loss_fn = BCELoss()
        optimizer, _ = build_optimizer(model, TrainConfig(use_warmup=False))
        first = loss_fn(model(tiny_batch), tiny_batch["labels"])
        model.zero_grad()
        first.backward()
        optimizer.step()
        # A few more steps on the same batch must reduce the loss.
        for _ in range(5):
            loss = loss_fn(model(tiny_batch), tiny_batch["labels"])
            model.zero_grad()
            loss.backward()
            optimizer.step()
        final = loss_fn(model(tiny_batch), tiny_batch["labels"])
        assert final.item() < first.item()

    def test_works_on_public_schema(self, model_name, public_dataset, small_model_config):
        model = create_model(model_name, public_dataset.schema, small_model_config)
        batch = public_dataset.train.batch(np.arange(32))
        predictions = model(batch)
        assert predictions.shape == (32,)

    def test_describe_reports_parameters(self, model_name, eleme_dataset, small_model_config):
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        info = model.describe()
        assert info["name"] == model_name
        assert info["parameters"] == model.num_parameters()
        assert info["parameters"] > 0
