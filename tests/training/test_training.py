"""Tests for the trainer, evaluator, profiler and experiment drivers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, create_model
from repro.training import (
    TrainConfig,
    Trainer,
    evaluate_model,
    format_table,
    predict_dataset,
    profile_model,
    run_basm_ablation,
    run_comparison,
)


class TestTrainConfig:
    def test_defaults_follow_paper_recipe(self):
        config = TrainConfig()
        assert config.optimizer == "adagrad_decay"
        assert config.use_warmup
        assert config.batch_size >= 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-1)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")


class TestTrainer:
    def test_training_reduces_loss(self, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        config = TrainConfig(epochs=2, batch_size=256, warmup_steps=10, seed=0)
        result = Trainer(config).fit(model, eleme_dataset.train)
        assert len(result.epoch_losses) == 2
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert result.steps == len(result.step_losses)
        assert result.train_seconds > 0

    def test_callback_and_eval_reports(self, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        seen = []
        config = TrainConfig(epochs=1, batch_size=512, warmup_steps=5, eval_every_epoch=True)
        result = Trainer(config).fit(
            model, eleme_dataset.train, eval_data=eleme_dataset.test,
            callback=lambda step, loss: seen.append((step, loss)),
        )
        assert len(seen) == result.steps
        assert len(result.eval_reports) == 1

    @pytest.mark.parametrize("optimizer", ["adagrad_decay", "adagrad", "adam", "sgd"])
    def test_all_optimizers_supported(self, optimizer, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        config = TrainConfig(epochs=1, batch_size=1024, optimizer=optimizer,
                             learning_rate=0.01, use_warmup=False)
        result = Trainer(config).fit(model, eleme_dataset.train)
        assert np.isfinite(result.final_loss)

    def test_trained_model_beats_random_ranking(self, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        config = TrainConfig(epochs=3, batch_size=256, warmup_steps=20, seed=1)
        Trainer(config).fit(model, eleme_dataset.train)
        report = evaluate_model(model, eleme_dataset.test)
        assert report.auc > 0.55

    def test_failed_fit_still_mints_a_serving_uid(self, eleme_dataset, small_model_config):
        """Steps write weights in place: a fit that dies after one must not
        leave them scoring under the uid frozen item tables were keyed by."""
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        config = TrainConfig(epochs=1, batch_size=256, warmup_steps=5)

        def interrupt_at_step_two(step, loss):
            if step == 2:
                raise KeyboardInterrupt

        before = model.serving_uid
        weights = model.state_dict()
        with pytest.raises(KeyboardInterrupt):
            Trainer(config).fit(model, eleme_dataset.train, callback=interrupt_at_step_two)
        assert any(not np.array_equal(value, weights[key])
                   for key, value in model.state_dict().items())
        assert model.serving_uid != before


# sha256 over 20 step losses + every final parameter and buffer, computed at
# commit 94fdd38 (``Tensor._accumulate`` copied every gradient, ``take_rows``
# scattered row-wise into the 2-D table).  Same with and without a BLAS pin.
# ``din`` re-pinned once at PR 22 (749cef80... -> 75b16149...): its activation
# unit's first layer is summed from column-block partials, which re-associates.
PARENT_TRAIN_DIGESTS = {
    "wide_deep": "cdf8161997df599e81e1ba670599baae829dda11aec22ecb7fb585744f52dbb4",
    "din": "75b16149bd625fffa961a82cca87e972850ce8731fe7f76c6f0c2d97a1871641",
    "base_din": "b3f0d2cb4b4b7f40b0d975a68bcadcc6704977298799a6f2cae44b8cad53e467",
    "autoint": "74a775218b569bcecf9c6cbc7b603ca8519e13d5b1df035bd24d0c8fce1a966b",
    "star": "bfaffe1d1af3bf3dfa5e79170e040c721754e1bec16bab7c295e65bc84c89024",
    "m2m": "d6f0e98c0f30407ba71670fb7d611fa1e8c4d4d33c7f448d146ea86cf3bd16df",
    "apg": "55fee90f1d9751ba878ee5d08317bf9422340ffbf34747471b975583086c39bb",
    "basm": "5b826eaaea12c18d50e423e02c02c6701f35ec2a254d1e0177ee28798ef04678",
}


class TestTrainingBitEquality:
    """The tape may change how gradients are stored and scattered, never a
    bit of what training computes.  Adopting a strided gradient view in
    ``_accumulate`` moves seven of these eight digests (tried: all but din)."""

    def test_registry_is_covered(self):
        assert set(PARENT_TRAIN_DIGESTS) == set(MODEL_REGISTRY)

    @pytest.mark.parametrize("model_name", sorted(PARENT_TRAIN_DIGESTS))
    def test_same_losses_and_weights_as_the_parent_commit(self, eleme_dataset,
                                                          small_model_config, model_name):
        steps, batch_size = 20, 256
        rows = np.arange(steps * batch_size) % len(eleme_dataset.train)
        config = TrainConfig(epochs=1, batch_size=batch_size, optimizer="adagrad_decay",
                             gradient_clip_norm=5.0, shuffle=False, warmup_steps=10, seed=1)
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        result = Trainer(config).fit(model, eleme_dataset.train.subset(rows))
        assert result.steps == steps
        digest = hashlib.sha256(np.asarray(result.step_losses, dtype=np.float64).tobytes())
        for key, value in sorted(model.state_dict().items()):
            value = np.ascontiguousarray(value)
            digest.update(key.encode() + str(value.dtype).encode() + str(value.shape).encode())
            digest.update(value.tobytes())
        assert digest.hexdigest() == PARENT_TRAIN_DIGESTS[model_name]


class TestEvaluator:
    def test_predict_dataset_covers_every_impression(self, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        scores = predict_dataset(model, eleme_dataset.test, batch_size=300)
        assert scores.shape == (len(eleme_dataset.test),)
        assert np.all((scores > 0) & (scores < 1))

    def test_evaluate_model_report_is_finite(self, eleme_dataset, small_model_config):
        model = create_model("din", eleme_dataset.schema, small_model_config)
        report = evaluate_model(model, eleme_dataset.test)
        for value in report.as_dict().values():
            assert np.isfinite(value)


class TestProfilerAndExperiments:
    def test_profile_model_reports_positive_numbers(self, eleme_dataset, small_model_config):
        model = create_model("wide_deep", eleme_dataset.schema, small_model_config)
        report = profile_model(
            model, eleme_dataset.train,
            config=TrainConfig(epochs=1, batch_size=512, warmup_steps=5),
            max_batches=2,
        )
        assert report.seconds_per_epoch > 0
        assert report.parameter_count == model.num_parameters()
        assert report.estimated_total_mb > report.parameter_mb
        row = report.as_row()
        assert row["Methods"] == "wide_deep"

    def test_run_comparison_returns_row_per_model(self, eleme_dataset, small_model_config):
        results = run_comparison(
            eleme_dataset.train,
            eleme_dataset.test,
            model_names=["wide_deep", "basm"],
            model_config=small_model_config,
            train_config=TrainConfig(epochs=1, batch_size=512, warmup_steps=5),
        )
        assert [result.model_name for result in results] == ["wide_deep", "basm"]
        for result in results:
            assert np.isfinite(result.report.auc)

    def test_run_basm_ablation_labels(self, eleme_dataset, small_model_config):
        results = run_basm_ablation(
            eleme_dataset.train,
            eleme_dataset.test,
            model_config=small_model_config,
            train_config=TrainConfig(epochs=1, batch_size=1024, warmup_steps=5),
        )
        labels = [result.model_name for result in results]
        assert labels == ["w/o StAEL", "w/o StSTL", "w/o StABT", "BASM"]

    def test_format_table_renders_all_rows(self, eleme_dataset, small_model_config):
        results = run_comparison(
            eleme_dataset.train,
            eleme_dataset.test,
            model_names=["wide_deep"],
            model_config=small_model_config,
            train_config=TrainConfig(epochs=1, batch_size=1024, warmup_steps=5),
        )
        table = format_table(results, title="Table IV")
        assert "Table IV" in table
        assert "wide_deep" in table
        assert "AUC" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no results)"
