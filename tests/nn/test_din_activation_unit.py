"""DIN's local activation unit against its definition.

The unit never builds ``[s, t, s - t, s * t]``: the scorer's first layer is
evaluated as column-block partials (per sequence, per row, per pair).  The
reference here is the definition itself in plain numpy — the concatenation,
the full first-layer weight, the same tail, mask and weighted sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.layers import attention

DIM, SEQ_LEN = 8, 6


def _unit(seed: int = 0) -> nn.DINLocalActivationUnit:
    """A unit in the state training leaves it in: no parameter at its initial value."""
    unit = nn.DINLocalActivationUnit(DIM, hidden_units=(12, 5), rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for parameter in unit.parameters():
        parameter.data += rng.normal(scale=0.3, size=parameter.shape).astype(np.float32)
    return unit


def _inputs(pools, seed: int = 0):
    """One sequence per pool, ``sum(pools)`` target rows; with several
    sequences the last one is all padding."""
    rng = np.random.default_rng(seed)
    sequence = rng.normal(scale=0.5, size=(len(pools), SEQ_LEN, DIM)).astype(np.float32)
    target = rng.normal(scale=0.5, size=(sum(pools), DIM)).astype(np.float32)
    mask = (rng.random((len(pools), SEQ_LEN)) > 0.3).astype(np.float32)
    if len(pools) > 1:
        mask[-1] = 0.0
    return target, sequence, mask, np.repeat(np.arange(len(pools)), pools)


def _definition(unit, target, sequence, mask):
    """``concat([s, t, s - t, s * t]) @ W.T + b``, the tail, the mask, the weighted sum."""
    s = sequence.astype(np.float64)
    t = np.broadcast_to(target.astype(np.float64)[:, None, :], s.shape)
    hidden = np.concatenate([s, t, s - t, s * t], axis=-1)
    *inner, last = unit.scorer.linears
    for linear in inner:
        hidden = hidden @ linear.weight.data.T.astype(np.float64) + linear.bias.data
        hidden = 1.0 / (1.0 + np.exp(-hidden))
    scores = (hidden @ last.weight.data.T.astype(np.float64) + last.bias.data)[..., 0]
    return ((scores * mask)[:, :, None] * s).sum(axis=1)


POOLS = {
    "uniform": [4, 4, 4],
    "ragged": [1, 5, 3, 2],
    "one-candidate request": [1],
    "pools of one": [1, 1, 1],
}


class TestAgainstTheDefinition:
    @pytest.mark.parametrize("pools", POOLS.values(), ids=POOLS.keys())
    def test_row_map_and_flat_match_the_concat_definition(self, pools):
        unit = _unit()
        target, sequence, mask, row_map = _inputs(pools)
        expected = _definition(unit, target, sequence[row_map], mask[row_map])
        with nn.no_grad():
            mapped = unit(Tensor(target), Tensor(sequence), mask=mask, row_map=row_map).data
            flat = unit(Tensor(target), Tensor(sequence[row_map]), mask=mask[row_map]).data
        assert mapped.shape == flat.shape == (sum(pools), DIM)
        np.testing.assert_allclose(mapped, expected, atol=1e-6)
        np.testing.assert_allclose(flat, expected, atol=1e-6)
        assert np.abs(expected[:pools[0]]).max() > 0.1   # not vacuous
        if len(pools) > 1:
            # The all-padding sequence pools to exactly zero, whatever its scores.
            assert not mapped[-pools[-1]:].any() and not flat[-pools[-1]:].any()

    def test_no_mask_scores_every_behaviour(self):
        unit = _unit(3)
        target, sequence, _, row_map = _inputs([3, 2], seed=3)
        ones = np.ones(sequence.shape[:2], dtype=np.float32)
        with nn.no_grad():
            out = unit(Tensor(target), Tensor(sequence), row_map=row_map).data
        np.testing.assert_allclose(
            out, _definition(unit, target, sequence[row_map], ones[row_map]), atol=1e-6)

    def test_a_request_scores_the_same_bytes_in_any_packing(self):
        """Alone, in a uniform batch and in a ragged one: broadcast vs gather
        are both elementwise and the pooling GEMM is shaped by the request."""
        unit = _unit(5)
        target, sequence, mask, row_map = _inputs([4, 4, 4], seed=5)

        def score(slots, keep):
            rows = np.concatenate([np.flatnonzero(row_map == slot)[:keep[slot]] for slot in slots])
            remap = np.repeat(np.arange(len(slots)), [keep[slot] for slot in slots])
            with nn.no_grad():
                out = unit(Tensor(target[rows]), Tensor(sequence[slots]),
                           mask=mask[slots], row_map=remap).data
            stops = np.cumsum([keep[slot] for slot in slots])
            return {slot: out[stop - keep[slot]:stop] for slot, stop in zip(slots, stops)}

        uniform = score([0, 1, 2], {0: 4, 1: 4, 2: 4})
        ragged = score([0, 1, 2], {0: 4, 1: 1, 2: 3})
        for slot in (0, 1, 2):
            assert np.array_equal(score([slot], {slot: 4})[slot], uniform[slot])
        assert np.array_equal(ragged[0], uniform[0])
        assert np.array_equal(score([1], {1: 1})[1], ragged[1])
        assert np.array_equal(score([2], {2: 3})[2], ragged[2])


@pytest.mark.parametrize("pools", [[4, 4, 4, 4, 4], [1, 5, 3, 2, 4]], ids=["uniform", "ragged"])
def test_blocks_of_whole_sequences_change_no_byte(monkeypatch, pools):
    """Under ``no_grad`` large batches are scored a few sequences at a time
    (small temporaries); under grad the tape keeps every temporary anyway,
    so it is one block — the same bytes either way."""
    unit = _unit()
    target, sequence, mask, row_map = _inputs(pools)
    sizes = []
    block = unit._block
    monkeypatch.setattr(
        unit, "_block", lambda t, s, m, rows: sizes.append(len(s)) or block(t, s, m, rows))

    def run():
        sizes.clear()
        out = unit(Tensor(target), Tensor(sequence), mask=mask, row_map=row_map).data
        return out, list(sizes)

    with nn.no_grad():
        whole, one = run()
        monkeypatch.setattr(attention, "_BLOCK_PAIRS", 2 * SEQ_LEN * sum(pools) // len(pools))
        blocked, several = run()
    taped, under_grad = run()
    assert one == under_grad == [len(pools)] and several == [2, 2, 1]
    assert np.array_equal(blocked, whole) and np.array_equal(taped, whole)


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
@pytest.mark.parametrize("pools", [[4, 4, 4], [1, 5, 3]], ids=["uniform", "ragged"])
def test_nothing_of_the_concat_width_is_built(made, pools, grad):
    unit = _unit()
    target, sequence, mask, row_map = _inputs(pools)
    if grad:
        unit(Tensor(target), Tensor(sequence), mask=mask, row_map=row_map)
    else:
        with nn.no_grad():
            unit(Tensor(target), Tensor(sequence), mask=mask, row_map=row_map)
    assert made
    for tensor in made:
        assert tensor.shape[-1] != 4 * DIM, tensor.shape
    # Uniform pools: the sequences reach their rows as a broadcast — no op
    # hands out a (rows, seq_len, dim) gather of them; ragged pools gather.
    gathered = [t for t in made if t.shape == (len(target), SEQ_LEN, DIM)
                and np.array_equal(t.data, sequence[row_map])]
    assert len(gathered) == (0 if pools == [4, 4, 4] else 1)


class TestValidation:
    def test_dims_must_match_the_unit(self):
        unit = nn.DINLocalActivationUnit(DIM)
        target, sequence, mask, _ = _inputs([1, 1])
        with pytest.raises(ValueError, match=rf"sequence dim 2 and target dim {DIM} .* dim {DIM}"):
            unit(Tensor(target), Tensor(sequence[:, :, :2]), mask=mask)
        with pytest.raises(ValueError, match=rf"sequence dim {DIM} and target dim 4 .* dim {DIM}"):
            unit(Tensor(target[:, :4]), Tensor(sequence), mask=mask)
        wide = nn.DINLocalActivationUnit(2 * DIM)
        with pytest.raises(ValueError, match=rf"dim {2 * DIM}"):
            wide(Tensor(target), Tensor(sequence), mask=mask)

    def test_row_map_must_cover_the_target_rows(self):
        unit = nn.DINLocalActivationUnit(DIM)
        target, sequence, mask, row_map = _inputs([2, 3])
        with pytest.raises(ValueError, match="5 target rows, but sequences/row_map cover 4"):
            unit(Tensor(target), Tensor(sequence), mask=mask, row_map=row_map[:4])
        with pytest.raises(ValueError, match="5 target rows, but sequences/row_map cover 2"):
            unit(Tensor(target), Tensor(sequence), mask=mask)   # flat: one sequence per row

    def test_row_map_must_be_sorted(self):
        unit = nn.DINLocalActivationUnit(DIM)
        target, sequence, mask, _ = _inputs([2, 2])
        with pytest.raises(ValueError, match="contiguous, in request order"):
            unit(Tensor(target), Tensor(sequence), mask=mask, row_map=np.array([0, 1, 0, 1]))

    def test_mask_must_match_the_sequences(self):
        unit = nn.DINLocalActivationUnit(DIM)
        target, sequence, mask, row_map = _inputs([2, 3])
        with pytest.raises(ValueError, match=r"mask shape \(5, 6\), sequences \(2, 6\)"):
            unit(Tensor(target), Tensor(sequence), mask=mask[row_map], row_map=row_map)

    def test_parameters_are_the_mlp_it_always_had(self):
        """Checkpoints keep loading: the factorisation adds, renames and reshapes nothing."""
        unit = nn.DINLocalActivationUnit(DIM, hidden_units=(12, 5))
        assert {key: value.shape for key, value in unit.state_dict().items()} == {
            "scorer.linears.0.weight": (12, 4 * DIM), "scorer.linears.0.bias": (12,),
            "scorer.linears.1.weight": (5, 12), "scorer.linears.1.bias": (5,),
            "scorer.linears.2.weight": (1, 5), "scorer.linears.2.bias": (1,),
        }
