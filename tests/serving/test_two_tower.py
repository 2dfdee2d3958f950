"""Two-tower split serving: parity, table ownership, atomic swap.

The fast path's contract (see ``repro/models/two_tower.py``):

* fused scores match the full forward within 1e-6 — for the three baselines
  and for BASM in every Table V ablation construction;
* a request's fused bytes do not depend on the micro-batch it is packed into;
* frozen tables belong to one model version: the ranker builds them once per
  ``serving_uid``, rebuilds them after a swap, and scoring a model with
  another version's tables raises;
* models without a split (``star``, ...) are scored by the full forward;
* a model swap is one attribute assignment: every micro-batch is scored by
  exactly one (model, tables) pair.
"""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.data import LogGenerator
from repro.models import ModelConfig, create_model
from repro.serving import (
    OnlineRequestEncoder,
    Ranker,
    ScoreRequest,
    ServingState,
    generate_burst,
    hot_swap,
)

BASELINES = ("wide_deep", "din", "base_din")
SUPPORTED = BASELINES + ("basm",)

#: BASM and its Table V ablations (constructor arguments of each).
BASM_CONSTRUCTIONS = {
    "basm": {},
    "basm-wo-stael": {"use_stael": False},
    "basm-wo-ststl": {"use_ststl": False},
    "basm-wo-stabt": {"use_stabt": False},
    "basm-wo-ststl-stabt": {"use_ststl": False, "use_stabt": False},
    "basm-wo-fusion-fc": {"use_fusion_fc": False},
    "basm-wo-fusion-bn": {"use_fusion_bn": False},
    "basm-unfiltered-behavior": {"use_st_filtered_behavior": False},
    "basm-sigmoid-gate": {"gate_scale": 1.0},
}


#: The three baselines with every parameter moved off its initial value.
PERTURBED_BASELINES = {f"{name}-perturbed": name for name in BASELINES}


def _create(construction, schema, config):
    """A registry model as built, or a ``PERTURBED_BASELINES`` / ``BASM_CONSTRUCTIONS``
    entry in the state training leaves it in: a fresh BASM has zero StAEL gates
    (alpha == 1 whatever the gate arithmetic does), every fresh bias is 0 and
    every fresh batch norm has mean 0 / variance 1, which hides bugs in exactly
    the terms the request-factored paths re-derive."""
    rng = np.random.default_rng(0)
    if construction in PERTURBED_BASELINES:
        model = create_model(PERTURBED_BASELINES[construction], schema, config)
        for parameter in model.parameters():
            parameter.data += rng.normal(scale=0.05, size=parameter.shape).astype(np.float32)
    elif construction in BASM_CONSTRUCTIONS:
        model = create_model("basm", schema, config, **BASM_CONSTRUCTIONS[construction])
        for gate in model.stael.gates:
            gate.weight.data[...] = rng.normal(scale=0.3, size=gate.weight.shape)
            gate.bias.data[...] = rng.normal(scale=0.3, size=gate.bias.shape)
    else:
        return create_model(construction, schema, config)
    for norm in (m for m in model.modules() if isinstance(m, nn.BatchNorm1d)):
        width = norm.num_features
        norm.running_mean = rng.normal(size=width).astype(np.float32)
        norm.running_var = rng.uniform(0.5, 2.0, width).astype(np.float32)
        norm.gamma.data[...] = rng.uniform(0.5, 1.5, width)
        norm.beta.data[...] = rng.normal(scale=0.3, size=width)
    return model


@pytest.fixture()
def serving_setup(eleme_dataset):
    """Fresh state + encoder per test (cache-count assertions need isolation)."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_dataset.log)
    encoder = OnlineRequestEncoder(eleme_dataset.world, eleme_dataset.schema)
    return state, encoder


def _burst(eleme_dataset, n=30, recall_size=12, seed=3):
    return generate_burst(eleme_dataset.world, n, recall_size=recall_size, seed=seed)


def _full_forward(model, encoder, requests, state):
    """The parity oracle: the full forward called directly, per request."""
    with nn.no_grad():
        batch, offsets = encoder.encode_many(
            [r.context for r in requests], [r.candidates for r in requests], state
        )
        scores = model.predict(batch)
    return [scores[offsets[i]:offsets[i + 1]] for i in range(len(requests))]


def _split(encoder, requests, state):
    return encoder.encode_split(
        [r.context for r in requests], [r.candidates for r in requests], state
    )[0]


class TestFusedParity:
    @pytest.mark.parametrize(
        "construction", BASELINES + tuple(PERTURBED_BASELINES) + tuple(BASM_CONSTRUCTIONS))
    def test_fused_matches_full_forward(self, eleme_dataset, small_model_config,
                                        serving_setup, construction):
        """Float32 fused scores equal the exact forward within 1e-6."""
        state, encoder = serving_setup
        model = _create(construction, eleme_dataset.schema, small_model_config)
        requests = _burst(eleme_dataset) + _ragged_burst(eleme_dataset)

        fused = Ranker(model, encoder, max_batch_rows=128)
        fused_scores = fused.score_many(requests, state)
        assert fused.fused_batches > 0
        for left, right in zip(fused_scores, _full_forward(model, encoder, requests, state)):
            np.testing.assert_allclose(left, right, atol=1e-6)

    def test_unsupported_model_falls_back(self, eleme_dataset, small_model_config,
                                          serving_setup):
        """STAR defines no split; the ranker uses the full forward."""
        state, encoder = serving_setup
        model = create_model("star", eleme_dataset.schema, small_model_config)
        assert not model.supports_two_tower
        scorer = Ranker(model, encoder)
        scores = scorer.score_many(_burst(eleme_dataset, 8), state)
        assert scorer.fused_batches == 0
        assert scorer.batches_run > 0
        assert scorer.item_tables is None
        assert all(len(s) for s in scores)

    @pytest.mark.parametrize("model_name", SUPPORTED)
    def test_foreign_tables_fail_loudly(self, eleme_dataset, small_model_config,
                                        serving_setup, model_name):
        """Model A refuses to score with tables frozen from model B."""
        state, encoder = serving_setup
        model_a = create_model(model_name, eleme_dataset.schema, small_model_config)
        model_b = create_model(model_name, eleme_dataset.schema, small_model_config)
        static = encoder.item_static_table(state)
        split = _split(encoder, _burst(eleme_dataset, 4), state)
        model_a.score_two_tower(split, model_a.precompute_item_tables(static))
        with pytest.raises(ValueError, match="item tables were built by model version"):
            model_a.score_two_tower(split, model_b.precompute_item_tables(static))

    def test_load_state_dict_invalidates_built_tables(self, eleme_dataset,
                                                      small_model_config, serving_setup):
        """New weights mint a new uid, so tables built before them are refused."""
        state, encoder = serving_setup
        model = create_model("din", eleme_dataset.schema, small_model_config)
        tables = model.precompute_item_tables(encoder.item_static_table(state))
        split = _split(encoder, _burst(eleme_dataset, 4), state)
        model.score_two_tower(split, tables)
        model.load_state_dict(model.state_dict())
        with pytest.raises(ValueError, match="item tables were built by model version"):
            model.score_two_tower(split, tables)


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = str(array.dtype).encode() + str(array.shape).encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def _ragged_burst(eleme_dataset):
    """Eight requests with pool sizes 1, 12, 5, 12, 12, 9, 12, 12."""
    requests = _burst(eleme_dataset, 8, seed=11)
    for index, keep in ((0, 1), (2, 5), (5, 9)):
        requests[index] = ScoreRequest(
            requests[index].context, requests[index].candidates[:keep]
        )
    return requests


# sha256 of the fused outputs on ``_ragged_burst``, computed at commit ae6cb07
# (every layer scored by its hand-mirrored ``infer`` kernel).  ``packed`` is
# the whole burst in one call, ``alone`` its one-candidate request by itself.
PARENT_DIGESTS = {
    "din": {
        "packed": "9e6e7c7d7418d689d671bad454d0b7e1e4fbbe638727d2c9426a9202d487c5f5",
        "alone": "71eb74930facb8b7b40287e6ca0cfdc0e848921a8f60ffc75f6c7d51537d05e2",
        "query_static": "b8c9c44cb7dfe870641402b816eb21ec7ba44e2a056a6647ac927520dcadfd9d",
        "trunk_item_static": "ecd070145202bbe53f037357c648b57bf06073a48d9c26cda9722ecf231d4eec",
    },
    "wide_deep": {
        "packed": "f7c603900ed531d5c535078037e33ae48ebe9143d94b8fa29cb0e0685d1f9f27",
        "alone": "e6ed1878ac367c5ceaeb8e096a0d7479f87b8df6589b5df4335124d681a744f2",
        "query_static": "b8c9c44cb7dfe870641402b816eb21ec7ba44e2a056a6647ac927520dcadfd9d",
        "trunk_item_static": "5c62744f6ec3bf479fe554cfee376620ed99dff5593737fc2b5998aab7c6c7a8",
        "wide_item_static": "aa37752034c30aa418fb3a489f0d8376870f2a664388775dd0d14dc9bfb2c7ab",
    },
    "base_din": {
        "packed": "f31e7344c7804f8f8e8106978d9eae8bbe873d1182c3cf724c826ed5d4bf452b",
        "alone": "444cb6ecd9e0f63481066f3117b4b086f230c7ef4707b11846eef33d3c2fc421",
        "query_static": "b8c9c44cb7dfe870641402b816eb21ec7ba44e2a056a6647ac927520dcadfd9d",
        "trunk_item_static": "6ace2505c536567697381f2277f2afeacbf2182e099f30ba71776e3d925fc3d8",
    },
}


class TestForwardIsTheKernel:
    """The fused path runs every layer through ``forward`` under ``no_grad`` +
    ``inference_mode``; these hold it to the bytes the deleted mirrors gave."""

    @pytest.mark.parametrize("model_name", BASELINES)
    def test_same_bytes_as_the_parent_commit(self, eleme_dataset, small_model_config,
                                             serving_setup, model_name):
        state, encoder = serving_setup
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        tables = model.precompute_item_tables(encoder.item_static_table(state))
        requests = _ragged_burst(eleme_dataset)
        packed = model.score_two_tower(_split(encoder, requests, state), tables)
        alone = model.score_two_tower(_split(encoder, requests[:1], state), tables)
        got = {"packed": _digest(packed), "alone": _digest(alone)}
        got.update({name: _digest(table) for name, table in tables.tables.items()})
        assert got == PARENT_DIGESTS[model_name]
        assert np.array_equal(alone, packed[:1])

    @pytest.mark.parametrize("model_name", SUPPORTED + ("basm-wo-stabt",))
    def test_train_flag_left_on_keeps_eval_semantics(self, eleme_dataset, serving_setup,
                                                     model_name):
        """A serving model still in ``.train()`` reads running statistics and
        draws no dropout mask; nothing on the path writes to the model."""
        state, encoder = serving_setup
        config = ModelConfig(embedding_dim=4, attention_dim=8, tower_units=(16, 8),
                             use_batchnorm=True, dropout=0.3, seed=1)
        model = _create(model_name, eleme_dataset.schema, config)
        norms = [m for m in model.modules() if isinstance(m, nn.BatchNorm1d)]
        drops = [m for m in model.modules() if isinstance(m, nn.Dropout) and m.rate > 0]
        # StABT's fusion layers carry batch norm but no dropout; BASM without
        # StABT has the baselines' static tower and both.
        assert norms and (drops or model_name == "basm")
        rng = np.random.default_rng(0)
        for norm in norms:  # non-trivial statistics, frozen like a child's shm view
            norm.running_mean = rng.normal(size=norm.num_features).astype(np.float32)
            norm.running_var = rng.uniform(0.5, 2.0, norm.num_features).astype(np.float32)
            norm.running_mean.flags.writeable = False
            norm.running_var.flags.writeable = False
        buffers = [(n.running_mean, n.running_var) for n in norms]
        draws = [repr(d.rng.bit_generator.state) for d in drops]
        static = encoder.item_static_table(state)
        split = _split(encoder, _ragged_burst(eleme_dataset), state)

        model.train()
        train_tables = model.precompute_item_tables(static)
        train_scores = model.score_two_tower(split, train_tables)
        assert model.training
        assert all(n.running_mean is m and n.running_var is v
                   for n, (m, v) in zip(norms, buffers))
        assert [repr(d.rng.bit_generator.state) for d in drops] == draws

        model.eval()
        eval_tables = model.precompute_item_tables(static)
        assert train_tables.tables.keys() == eval_tables.tables.keys()
        for name, table in eval_tables.tables.items():
            assert np.array_equal(train_tables.tables[name], table)
        assert np.array_equal(train_scores, model.score_two_tower(split, eval_tables))

    def test_bare_calls_from_a_fresh_thread(self, eleme_dataset, small_model_config,
                                            serving_setup):
        """``bench/trace.py`` calls both entry points bare from its own thread:
        they switch grad off themselves and restore it, and hand back arrays."""
        state, encoder = serving_setup
        static = encoder.item_static_table(state)
        split = _split(encoder, _burst(eleme_dataset, 4), state)
        for model_name in ("din", "basm"):
            model = create_model(model_name, eleme_dataset.schema, small_model_config)
            seen = {}

            def work():
                seen["before"] = nn.is_grad_enabled() and not nn.is_inference()
                tables = model.precompute_item_tables(static)
                scores = model.score_two_tower(split, tables)
                seen["after"] = nn.is_grad_enabled() and not nn.is_inference()
                seen["tables"], seen["scores"] = tables, scores

            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert seen["before"] and seen["after"]
            assert type(seen["scores"]) is np.ndarray and seen["scores"].dtype == np.float32
            for table in seen["tables"].tables.values():
                assert type(table) is np.ndarray and table.dtype == np.float32


def _assert_packing_invariant(model, eleme_dataset, state, encoder):
    """Each request alone == inside a ragged batch == inside a uniform batch."""
    tables = model.precompute_item_tables(encoder.item_static_table(state))

    def score(requests):
        scores = model.score_two_tower(_split(encoder, requests, state), tables)
        stops = np.cumsum([len(r) for r in requests])
        return [scores[stop - len(r):stop] for r, stop in zip(requests, stops)]

    uniform = _burst(eleme_dataset, 8, seed=11)   # pools of 12: stacked GEMMs
    ragged = _ragged_burst(eleme_dataset)         # pools 1, 12, 5, ...: looped
    in_uniform, in_ragged = score(uniform), score(ragged)
    for index, request in enumerate(ragged):
        alone = score([request])[0]
        assert np.array_equal(alone, in_ragged[index]), index
        if len(request) == len(uniform[index]):
            assert np.array_equal(alone, in_uniform[index]), index
    assert np.array_equal(score(ragged[:1])[0], in_ragged[0][:1])


def _assert_empty_pool_takes_no_slot(model, eleme_dataset, state, encoder):
    """``encode_split`` keeps a candidate-less request's user/context rows
    but gives it no behaviour slot; its neighbours' bytes do not move."""
    tables = model.precompute_item_tables(encoder.item_static_table(state))
    requests = _burst(eleme_dataset, 3, seed=11)
    empty = ScoreRequest(requests[1].context, np.zeros(0, dtype=np.int64))
    with_gap = model.score_two_tower(
        _split(encoder, [requests[0], empty, requests[2]], state), tables)
    without = model.score_two_tower(
        _split(encoder, [requests[0], requests[2]], state), tables)
    assert np.array_equal(with_gap, without)


class TestBasmPackingInvariance:
    """A BASM request's fused bytes are a function of the request alone: the
    per-request GEMMs are shaped by its own pool, every other matmul goes
    through ``Linear``'s batch-size-invariant product, and broadcast (uniform
    pools) vs gather (ragged pools) are both elementwise."""

    @pytest.mark.parametrize("construction", tuple(BASM_CONSTRUCTIONS))
    def test_alone_uniform_and_ragged_batches_agree(self, eleme_dataset, small_model_config,
                                                    serving_setup, construction):
        model = _create(construction, eleme_dataset.schema, small_model_config)
        _assert_packing_invariant(model, eleme_dataset, *serving_setup)

    def test_an_empty_pool_takes_no_slot(self, eleme_dataset, small_model_config,
                                         serving_setup):
        model = _create("basm", eleme_dataset.schema, small_model_config)
        _assert_empty_pool_takes_no_slot(model, eleme_dataset, *serving_setup)


class TestDinPackingInvariance:
    """The same for DIN: its activation unit reaches a request's rows through
    ``RequestRows`` too (per-sequence term and mask broadcast or gathered, the
    pooling one GEMM per request) and every first-layer partial goes through
    ``Linear``'s batch-size-invariant product."""

    @pytest.mark.parametrize("construction", ("din", "din-perturbed"))
    def test_alone_uniform_and_ragged_batches_agree(self, eleme_dataset, small_model_config,
                                                    serving_setup, construction):
        model = _create(construction, eleme_dataset.schema, small_model_config)
        _assert_packing_invariant(model, eleme_dataset, *serving_setup)

    def test_an_empty_pool_takes_no_slot(self, eleme_dataset, small_model_config,
                                         serving_setup):
        model = _create("din-perturbed", eleme_dataset.schema, small_model_config)
        _assert_empty_pool_takes_no_slot(model, eleme_dataset, *serving_setup)


class TestFusedEdgeCases:
    def test_empty_candidates(self, eleme_dataset, small_model_config, serving_setup):
        state, encoder = serving_setup
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        requests = _burst(eleme_dataset, 4)
        requests[1] = ScoreRequest(requests[1].context, np.zeros(0, dtype=np.int64))
        scores = Ranker(model, encoder).score_many(requests, state)
        assert len(scores[1]) == 0
        assert all(len(scores[i]) == len(requests[i]) for i in (0, 2, 3))

    def test_top_k_exceeds_pool(self, eleme_dataset, small_model_config, serving_setup):
        state, encoder = serving_setup
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        requests = _burst(eleme_dataset, 3, recall_size=5)
        ranked = Ranker(model, encoder).rank_many(requests, state, top_k=50)
        for request, result in zip(requests, ranked):
            assert len(result.items) == len(request.candidates)
            assert np.all(np.diff(result.scores) <= 0)

    def test_batch_composition_invariance(self, eleme_dataset, small_model_config,
                                          serving_setup):
        """A request scores byte-identically alone and inside a micro-batch.

        The cluster's response-cache/byte-parity guarantees rest on this:
        fused partial products replicate the Linear layer's gemv-avoidance
        guards, so scores cannot drift with micro-batch packing.
        """
        state, encoder = serving_setup
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        requests = _burst(eleme_dataset, 6)
        requests[0] = ScoreRequest(requests[0].context, requests[0].candidates[:1])
        packed = Ranker(model, encoder, max_batch_rows=4096).score_many(requests, state)
        for index, request in enumerate(requests):
            alone = Ranker(model, encoder).score_many([request], state)[0]
            assert np.array_equal(alone, packed[index])


class TestItemTableSlot:
    def test_tables_built_once_per_version(self, eleme_dataset, small_model_config,
                                           serving_setup):
        state, encoder = serving_setup
        model = create_model("din", eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder, max_batch_rows=32)
        assert ranker.item_tables is None
        requests = _burst(eleme_dataset, 6)
        ranker.score_many(requests, state)
        uid, tables = ranker.item_tables
        assert uid == model.serving_uid == tables.model_uid
        ranker.score_many(requests, state)
        assert ranker.fused_batches > 2
        assert ranker.item_tables[1] is tables  # reused, not rebuilt

    def test_hot_swap_rebuilds_tables(self, eleme_dataset, small_model_config,
                                      serving_setup):
        """After promotion the new model is scored with its own tables: its
        fused scores match its own full forward (no stale tables)."""
        state, encoder = serving_setup
        schema = eleme_dataset.schema
        old = create_model("base_din", schema, small_model_config)
        ranker = Ranker(old, encoder)
        requests = _burst(eleme_dataset, 8)
        ranker.score_many(requests, state)
        old_tables = ranker.item_tables[1]

        new = create_model("base_din", schema, small_model_config)
        for parameter in new.parameters():
            parameter.data += 0.05  # genuinely different weights
        previous = hot_swap(ranker, schema, state.features, new)
        assert previous is old

        fused = ranker.score_many(requests, state)
        uid, tables = ranker.item_tables
        assert uid == new.serving_uid and tables is not old_tables
        for left, right in zip(fused, _full_forward(new, encoder, requests, state)):
            np.testing.assert_allclose(left, right, atol=1e-6)

    def test_load_state_dict_on_live_model_rebuilds_tables(self, eleme_dataset,
                                                           small_model_config,
                                                           serving_setup):
        state, encoder = serving_setup
        model = create_model("din", eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder)
        requests = _burst(eleme_dataset, 4)
        ranker.score_many(requests, state)
        stale = ranker.item_tables[1]
        model.load_state_dict(model.state_dict())
        ranker.score_many(requests, state)
        uid, tables = ranker.item_tables
        assert uid == model.serving_uid and tables is not stale

    def test_distinct_models_use_distinct_tables(self, eleme_dataset,
                                                 small_model_config, serving_setup):
        state, encoder = serving_setup
        first = create_model("din", eleme_dataset.schema, small_model_config)
        second = create_model("din", eleme_dataset.schema, small_model_config)
        assert first.serving_uid != second.serving_uid
        requests = _burst(eleme_dataset, 4)
        rankers = [Ranker(first, encoder), Ranker(second, encoder)]
        for ranker in rankers:
            ranker.score_many(requests, state)
        assert rankers[0].item_tables[0] == first.serving_uid
        assert rankers[1].item_tables[0] == second.serving_uid
        assert rankers[0].item_tables[1] is not rankers[1].item_tables[1]

    def test_load_state_dict_mints_new_serving_uid(self, eleme_dataset,
                                                   small_model_config):
        model = create_model("din", eleme_dataset.schema, small_model_config)
        uid = model.serving_uid
        model.load_state_dict(model.state_dict())
        assert model.serving_uid != uid

    def test_concurrent_swaps_never_mix_model_and_tables(self, eleme_dataset,
                                                         small_model_config,
                                                         serving_setup):
        """Scoring threads race a thread that keeps reassigning ``model``:
        every micro-batch comes out byte-equal to one version's scores, and
        the uid check in ``score_two_tower`` never fires."""
        state, encoder = serving_setup
        schema = eleme_dataset.schema
        models = [create_model("din", schema, small_model_config) for _ in range(2)]
        for parameter in models[1].parameters():
            parameter.data += 0.05
        requests = _burst(eleme_dataset, 3)  # one micro-batch
        expected = [
            np.concatenate(Ranker(model, encoder).score_many(requests, state))
            for model in models
        ]
        assert not np.array_equal(expected[0], expected[1])

        ranker = Ranker(models[0], encoder)
        stop = threading.Event()
        errors, seen = [], set()

        def score():
            try:
                for _ in range(40):
                    got = np.concatenate(ranker.score_many(requests, state))
                    matches = [np.array_equal(got, want) for want in expected]
                    assert any(matches), "scores belong to neither model version"
                    seen.add(matches.index(True))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def swap():
            flip = 0
            while not stop.is_set():
                flip ^= 1
                ranker.model = models[flip]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            swapper = threading.Thread(target=swap)
            scorers = [threading.Thread(target=score) for _ in range(4)]
            swapper.start()
            for thread in scorers:
                thread.start()
            for thread in scorers:
                thread.join(timeout=120)
            stop.set()
            swapper.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in scorers + [swapper])
        assert not errors, errors
        assert seen == {0, 1}


class TestFrozenWeights:
    """The contiguous transposed ``Linear`` weights are frozen with the item
    tables: built once per ``serving_uid`` in the ranker's slot, read only
    inside ``score_two_tower``, invalidated by ``weights_changed()`` alone."""

    @staticmethod
    def _perturb(model, seed=0):
        rng = np.random.default_rng(seed)
        for parameter in model.parameters():
            parameter.data += rng.normal(scale=0.05, size=parameter.shape).astype(np.float32)

    @pytest.mark.parametrize("model_name", SUPPORTED)
    def test_store_is_the_transpose_of_every_wide_linear(self, eleme_dataset,
                                                         small_model_config,
                                                         serving_setup, model_name):
        state, encoder = serving_setup
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder)
        ranker.score_many(_burst(eleme_dataset, 3), state)
        store = ranker.item_tables[1].weights_t
        wide = [m for m in model.modules() if isinstance(m, nn.Linear) and m.out_features > 1]
        assert store and len(store) == len(wide)
        for layer in wide:
            frozen = store[layer.weight]
            assert frozen.flags["C_CONTIGUOUS"] and frozen is not layer.weight.data
            assert np.array_equal(frozen, layer.weight.data.T)
        assert ranker.item_tables[1].nbytes >= sum(w.nbytes for w in store.values())

    @pytest.mark.parametrize("model_name", SUPPORTED)
    def test_in_place_write_then_weights_changed_follows_the_weights(
            self, eleme_dataset, small_model_config, serving_setup, model_name):
        """score -> write weights in place + ``weights_changed()`` -> score:
        byte-equal to a fresh model loaded with the same state."""
        state, encoder = serving_setup
        model = create_model(model_name, eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder)
        requests = _ragged_burst(eleme_dataset)
        before = ranker.score_many(requests, state)
        stale = ranker.item_tables[1]

        self._perturb(model)
        model.weights_changed()
        after = ranker.score_many(requests, state)
        assert ranker.item_tables[1].weights_t is not stale.weights_t

        fresh = create_model(model_name, eleme_dataset.schema, small_model_config)
        fresh.load_state_dict(model.state_dict())
        expected = Ranker(fresh, encoder).score_many(requests, state)
        for old, got, want in zip(before, after, expected):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)

    @pytest.mark.parametrize("model_name", ("basm", "din"))
    def test_frozen_scores_equal_per_call_transposes(self, eleme_dataset,
                                                     small_model_config, serving_setup,
                                                     model_name):
        """Same bytes with the store as without it (the parent's arithmetic)."""
        state, encoder = serving_setup
        model = _create(
            model_name if model_name == "basm" else f"{model_name}-perturbed",
            eleme_dataset.schema, small_model_config,
        )
        tables = model.precompute_item_tables(encoder.item_static_table(state))
        for requests in (_ragged_burst(eleme_dataset), _burst(eleme_dataset, 1)):
            split = _split(encoder, requests, state)
            frozen = model.score_two_tower(split, tables)
            store, tables.weights_t = tables.weights_t, {}
            try:
                assert np.array_equal(frozen, model.score_two_tower(split, tables))
            finally:
                tables.weights_t = store

    def test_a_deepcopy_replica_builds_its_own(self, eleme_dataset, small_model_config,
                                               serving_setup):
        import copy

        state, encoder = serving_setup
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        replica = copy.deepcopy(model)
        assert replica.serving_uid == model.serving_uid
        requests = _burst(eleme_dataset, 4)
        rankers = [Ranker(model, encoder), Ranker(replica, encoder)]
        scores = [np.concatenate(r.score_many(requests, state)) for r in rankers]
        assert np.array_equal(*scores)
        own, theirs = (r.item_tables[1].weights_t for r in rankers)
        assert set(map(id, theirs)) <= set(map(id, replica.parameters()))
        assert not set(map(id, own)) & set(map(id, theirs))
        # Another instance's store is never wrong, only unused: the replica
        # scored with the original's tables transposes per call, same bytes.
        split = _split(encoder, requests, state)
        assert np.array_equal(replica.score_two_tower(split, rankers[0].item_tables[1]),
                              scores[0])

    def test_flat_predict_never_reads_the_store(self, eleme_dataset, small_model_config,
                                                serving_setup):
        """What gradcheck does — perturb a weight in place under ``no_grad``,
        no uid minted — is reflected by ``predict`` at once: the store is
        reachable from ``score_two_tower`` only."""
        from repro.nn.layers import linear

        state, encoder = serving_setup
        model = create_model("basm", eleme_dataset.schema, small_model_config)
        ranker = Ranker(model, encoder)
        requests = _burst(eleme_dataset, 4)
        ranker.score_many(requests, state)  # the store now exists
        assert getattr(linear._FROZEN, "store", None) is None  # ... and is out of scope
        before = np.concatenate(_full_forward(model, encoder, requests, state))
        with nn.no_grad():
            self._perturb(model, seed=1)
            after = np.concatenate(_full_forward(model, encoder, requests, state))
        fresh = create_model("basm", eleme_dataset.schema, small_model_config)
        fresh.load_state_dict(model.state_dict())
        assert not np.array_equal(after, before)
        assert np.array_equal(
            after, np.concatenate(_full_forward(fresh, encoder, requests, state))
        )

    def test_store_is_scoped_to_the_scoring_thread_and_call(self, eleme_dataset,
                                                            small_model_config,
                                                            serving_setup):
        from repro.nn.layers import linear

        state, encoder = serving_setup
        model = create_model("din", eleme_dataset.schema, small_model_config)
        tables = model.precompute_item_tables(encoder.item_static_table(state))
        seen = []
        original = model._fused_logit

        def spying(split_batch, tables):
            seen.append(getattr(linear._FROZEN, "store", None))
            other = []
            thread = threading.Thread(
                target=lambda: other.append(getattr(linear._FROZEN, "store", None))
            )
            thread.start()
            thread.join(timeout=10)
            seen.append(other)
            raise RuntimeError("boom")

        model._fused_logit = spying
        try:
            with pytest.raises(RuntimeError, match="boom"):
                model.score_two_tower(_split(encoder, _burst(eleme_dataset, 2), state), tables)
        finally:
            model._fused_logit = original
        assert seen[0] is tables.weights_t and seen[1] == [None]
        assert getattr(linear._FROZEN, "store", None) is None  # restored on the way out


class TestThreadSafePredict:
    def test_predict_never_flips_shared_training_mode(self, eleme_dataset,
                                                      small_model_config,
                                                      serving_setup, tiny_batch):
        """predict() must not mutate ``self.training`` (shared across threads).

        The old implementation flipped ``self.eval()`` / ``self.train()``
        around every call, so a concurrent trainer — or a second serving
        worker — could observe eval mode mid-step or have its mode clobbered.
        Inference semantics are now a thread-local (``nn.inference_mode``).
        """
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        model.train()
        observed_eval = threading.Event()
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                if not model.training:
                    observed_eval.set()

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            reference = model.predict(tiny_batch)
            for _ in range(10):
                np.testing.assert_array_equal(model.predict(tiny_batch), reference)
        finally:
            stop.set()
            watcher.join()
        assert not observed_eval.is_set()
        assert model.training

    def test_concurrent_predicts_agree(self, eleme_dataset, small_model_config,
                                       tiny_batch):
        model = create_model("base_din", eleme_dataset.schema, small_model_config)
        model.train()  # worst case: training mode left on by a trainer thread
        reference = model.predict(tiny_batch)
        results = [None] * 8
        errors = []

        def work(slot):
            try:
                for _ in range(5):
                    results[slot] = model.predict(tiny_batch)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for result in results:
            np.testing.assert_array_equal(result, reference)
