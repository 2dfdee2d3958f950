"""Unit tests for the autodiff engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.nn.tensor import _unbroadcast


def numerical_gradient(fn, value, eps=1e-3):
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        plus = value.copy()
        plus[index] += eps
        minus = value.copy()
        minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2 * eps)
        it.iternext()
    return grad


class TestBasicOps:
    def test_add_backward(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_mul_backward(self, rng):
        a_value = rng.normal(size=(3, 4))
        b_value = rng.normal(size=(3, 4))
        a = Tensor(a_value, requires_grad=True)
        b = Tensor(b_value, requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b_value.astype(np.float32), atol=1e-5)
        assert np.allclose(b.grad, a_value.astype(np.float32), atol=1e-5)

    def test_sub_and_neg(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, -1.0)

    def test_div_backward_matches_numerical(self, rng):
        a_value = rng.uniform(0.5, 2.0, size=(3, 3))
        b_value = rng.uniform(0.5, 2.0, size=(3, 3))
        a = Tensor(a_value, requires_grad=True)
        b = Tensor(b_value, requires_grad=True)
        (a / b).sum().backward()
        expected_a = numerical_gradient(lambda v: (v / b_value).sum(), a_value)
        expected_b = numerical_gradient(lambda v: (a_value / v).sum(), b_value)
        assert np.allclose(a.grad, expected_a, atol=1e-3)
        assert np.allclose(b.grad, expected_b, atol=1e-3)

    def test_matmul_backward_matches_numerical(self, rng):
        a_value = rng.normal(size=(4, 3))
        b_value = rng.normal(size=(3, 2))
        a = Tensor(a_value, requires_grad=True)
        b = Tensor(b_value, requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numerical_gradient(lambda v: (v @ b_value).sum(), a_value)
        expected_b = numerical_gradient(lambda v: (a_value @ v).sum(), b_value)
        assert np.allclose(a.grad, expected_a, atol=1e-3)
        assert np.allclose(b.grad, expected_b, atol=1e-3)

    def test_batched_matmul_shapes_and_grads(self, rng):
        a = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        out = a @ b
        assert out.shape == (5, 2, 4)
        out.sum().backward()
        assert a.grad.shape == (5, 2, 3)
        assert b.grad.shape == (5, 3, 4)

    def test_pow_backward(self, rng):
        value = rng.uniform(0.5, 2.0, size=(4,))
        x = Tensor(value, requires_grad=True)
        (x ** 3).sum().backward()
        assert np.allclose(x.grad, 3 * value ** 2, atol=1e-4)

    def test_rsub_rdiv(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        y = 1.0 - x
        assert np.allclose(y.data, [-1.0, -3.0])
        z = 8.0 / x
        assert np.allclose(z.data, [4.0, 2.0])

    def test_scalar_broadcast_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (4,)
        assert np.allclose(bias.grad, 3.0)


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["sigmoid", "tanh", "relu", "exp"])
    def test_unary_backward_matches_numerical(self, op, rng):
        value = rng.normal(size=(5,)).astype(np.float64)
        x = Tensor(value, requires_grad=True)
        getattr(x, op)().sum().backward()
        expected = numerical_gradient(
            lambda v: getattr(Tensor(v), op)().sum().item(), value
        )
        assert np.allclose(x.grad, expected, atol=1e-2)

    def test_leaky_relu_negative_slope(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        y = x.leaky_relu(0.1)
        assert np.allclose(y.data, [-0.2, 3.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.1, 1.0])

    def test_log_backward(self, rng):
        value = rng.uniform(0.5, 2.0, size=(4,))
        x = Tensor(value, requires_grad=True)
        x.log().sum().backward()
        assert np.allclose(x.grad, 1.0 / value, atol=1e-4)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        probabilities = x.softmax(axis=-1)
        assert np.allclose(probabilities.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_softmax_backward_matches_numerical(self, rng):
        value = rng.normal(size=(2, 3))
        weights = rng.normal(size=(2, 3))
        x = Tensor(value, requires_grad=True)
        (x.softmax(axis=-1) * Tensor(weights)).sum().backward()

        def fn(v):
            shifted = v - v.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            return float((e / e.sum(axis=-1, keepdims=True) * weights).sum())

        expected = numerical_gradient(fn, value)
        assert np.allclose(x.grad, expected, atol=1e-3)

    def test_clip_gradient_is_zero_outside_range(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_mean_axis_backward(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        assert np.allclose(x.grad, 1.0 / 6.0, atol=1e-6)

    def test_sum_keepdims(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        out = x.sum(axis=0, keepdims=True)
        assert out.shape == (1, 5)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_max_gradient_splits_ties(self):
        x = Tensor([[1.0, 2.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.isclose(x.grad.sum(), 1.0)
        assert x.grad[0, 0] == 0.0

    def test_var_matches_numpy(self, rng):
        value = rng.normal(size=(8, 3))
        x = Tensor(value)
        assert np.allclose(x.var(axis=0).data, value.astype(np.float32).var(axis=0), atol=1e-5)

    def test_reshape_transpose_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = x.reshape(6, 4).transpose()
        assert y.shape == (4, 6)
        y.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_getitem_backward_accumulates(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        x[0].sum().backward()
        assert np.allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    def test_take_rows_accumulates_duplicate_indices(self):
        x = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        indices = np.array([0, 0, 2])
        x.take_rows(indices).sum().backward()
        assert np.allclose(x.grad[0], 2.0)
        assert np.allclose(x.grad[2], 1.0)
        assert np.allclose(x.grad[1], 0.0)

    def test_concat_backward_splits(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 8)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_stack_and_where(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        stacked = Tensor.stack([a, b], axis=0)
        assert stacked.shape == (2, 3)
        condition = np.array([True, False, True])
        chosen = Tensor.where(condition, a, b)
        chosen.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])

    def test_expand_squeeze(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = x.expand_dims(1)
        assert y.shape == (3, 1, 4)
        z = y.squeeze(1)
        assert z.shape == (3, 4)


class TestGraphMechanics:
    def test_no_grad_disables_graph(self, rng):
        with no_grad():
            x = Tensor(rng.normal(size=(3,)), requires_grad=True)
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_second_backward_on_freed_graph_raises(self):
        """backward() frees the whole graph, root included: running it again
        raises instead of silently leaving every leaf's grad untouched."""
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = w * 3.0
        loss = (h * h).sum()
        loss.backward()
        assert np.allclose(w.grad, [18.0, 36.0])
        w.grad = None
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        assert w.grad is None
        # A new root built on a freed interior node is refused the same way.
        with pytest.raises(RuntimeError, match="already freed"):
            (h * 2.0).sum().backward()
        # A fresh forward rebuilds the graph; leaves are never "freed".
        ((w * 3.0) * (w * 3.0)).sum().backward()
        assert np.allclose(w.grad, [18.0, 36.0])
        w.backward(np.ones(2, dtype=np.float32))
        w.backward(np.ones(2, dtype=np.float32))

    def test_detach_cuts_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        assert not y.requires_grad

    def test_gradient_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0 + x * 3.0
        y.sum().backward()
        assert np.allclose(x.grad, 5.0)

    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a * b).backward()
        # d/dx (12 x^2) = 24 x = 48
        assert np.allclose(x.grad, [48.0])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20)
    def test_unbroadcast_restores_shape(self, rows, cols):
        grad = np.ones((rows, cols), dtype=np.float32)
        assert _unbroadcast(grad, (1, cols)).shape == (1, cols)
        assert _unbroadcast(grad, (cols,)).shape == (cols,)

    def test_sigmoid_in_place_steps_keep_the_expression_bytes(self):
        """``sigmoid`` clips, negates, exponentiates, adds and divides on one
        buffer; the bytes are those of the expression it replaced."""
        rng = np.random.default_rng(0)
        wide = np.concatenate([rng.normal(scale=20.0, size=4000), [-1e9, -60.0, 0.0, 60.0, 1e9]])
        strided = rng.normal(size=(7, 6)).astype(np.float32).T[::2]
        for data in (wide.astype(np.float32), strided, np.float32(0.3), np.zeros((0, 3))):
            source = Tensor(data)
            before = source.data.copy()
            expected = 1.0 / (1.0 + np.exp(-np.clip(source.data, -60.0, 60.0)))
            out = source.sigmoid().data
            assert out.dtype == np.float32 and out.shape == source.shape
            assert np.array_equal(out, expected)
            assert np.array_equal(source.data, before) and not np.shares_memory(out, source.data)

    @given(
        st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=8)
    )
    @settings(max_examples=30)
    def test_sigmoid_output_range_property(self, values):
        out = Tensor(np.array(values)).sigmoid().data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=10)
    )
    @settings(max_examples=30)
    def test_composite_gradient_property(self, values):
        """Gradient of sum(sigmoid(x)) equals sigmoid(x)(1 - sigmoid(x)) elementwise."""
        x = Tensor(np.array(values), requires_grad=True)
        out = x.sigmoid()
        out.sum().backward()
        expected = out.data * (1.0 - out.data)
        assert np.allclose(x.grad, expected, atol=1e-5)


class TestGradientOwnership:
    """Who may write to a gradient buffer (``Tensor._accumulate``): an
    interior node borrows what it is handed and never mutates it, a leaf owns
    a private writable copy, interior gradients are gone after the pass."""

    def test_leaves_fed_the_same_array_own_separate_writable_copies(self, rng):
        from repro.nn import Parameter
        from repro.nn.optim import SGD

        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(3, 4)))
        (a + b).sum().backward()  # __add__ hands out.grad to both, straight through
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        norm = SGD([a, b], lr=0.1).clip_grad_norm(1.0)
        scale = np.float32(1.0 / norm)
        assert np.array_equal(a.grad, np.full((3, 4), scale))  # scaled once, not twice
        assert np.array_equal(b.grad, np.full((3, 4), scale))

    def test_leaf_fed_by_sums_broadcast_view_is_writable(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()  # hands the leaf a read-only broadcast_to view
        assert x.grad.flags.writeable
        x.grad *= 2.0
        assert np.array_equal(x.grad, np.full((3, 4), 2.0, dtype=np.float32))

    def test_diamond_never_mutates_the_array_it_was_first_handed(self, rng):
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = w * 3.0                      # interior, consumed twice below
        out = h + h * 2.0
        upstream = rng.normal(size=(2, 3)).astype(np.float32)
        kept = upstream.copy()
        out.backward(upstream)           # h adopts ``upstream`` itself, then adds 2x
        assert np.array_equal(upstream, kept)
        assert np.allclose(w.grad, 9.0 * kept, atol=1e-5)

    def test_strided_gradients_are_copied_not_adopted(self, rng):
        """A transposed view handed to an interior node would feed the ops
        behind it another memory layout; the tape stores C-contiguous only."""
        seen = []
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        h = x * 1.0
        original = h._backward

        def spy():
            seen.append(h.grad.flags["C_CONTIGUOUS"])
            original()

        h._backward = spy
        h.transpose().contiguous().sum(axis=0).sum().backward()
        assert seen == [True]

    def test_interior_gradients_are_released_root_and_leaves_kept(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))
        hidden = x @ w
        activated = hidden.relu()
        loss = (activated * activated).mean()
        loss.backward()
        assert hidden.grad is None and activated.grad is None
        assert loss.grad is not None and loss.grad.shape == ()
        assert w.grad is not None and w.grad.shape == (4, 3)

    @pytest.mark.parametrize("indices", [
        np.array([0, 0, 2, 0, 6, 2]),
        np.random.default_rng(3).integers(0, 7, size=(40, 9)),
        np.random.default_rng(4).integers(-7, 7, size=(5, 3, 4)),
        np.zeros((0,), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
    ], ids=["duplicates", "matrix", "negative-3d", "empty", "empty-2d"])
    def test_take_rows_scatter_equals_the_dense_row_scatter(self, indices, rng):
        table = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        out = table.take_rows(indices)
        upstream = rng.normal(size=out.shape).astype(np.float32)
        out.backward(upstream)
        dense = np.zeros_like(table.data)
        np.add.at(dense, indices.reshape(-1), upstream.reshape(-1, 5))
        assert np.array_equal(table.grad, dense)

    @pytest.mark.parametrize("index", [
        slice(1, 5, 2),
        3,
        (slice(None), 2),
        (Ellipsis, None, slice(0, 2)),
        np.array([4, 0, 4, 4, 1]),
        (np.array([[0, 5], [5, 0]]), np.array([1, 1])),
        (slice(None), np.array([3, 0, 3])),
        np.arange(24).reshape(6, 4) % 5 == 0,
        np.array([True, False, True, True, False, False]),
    ], ids=["slice", "int", "column", "ellipsis-newaxis", "fancy", "fancy-pair",
            "slice-fancy", "bool-mask", "bool-rows"])
    def test_getitem_scatter_equals_dense_add_at(self, index, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        out = x[index]
        upstream = rng.normal(size=out.shape).astype(np.float32)
        out.backward(upstream)
        dense = np.zeros_like(x.data)
        np.add.at(dense, index, upstream)
        assert np.array_equal(x.grad, dense)
