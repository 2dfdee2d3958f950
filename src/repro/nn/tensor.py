"""Reverse-mode automatic differentiation on top of numpy.

This module is the computational substrate for the whole reproduction: the
paper's models were written against TensorFlow 1.4, which is not available in
this environment, so we provide a small but complete autograd engine.  The
design follows the familiar define-by-run style: every operation on
:class:`Tensor` records a backward closure, and :meth:`Tensor.backward` walks
the resulting DAG in reverse topological order accumulating gradients.  An
operation records only when a gradient is wanted: under :class:`no_grad` the
same ops return plain leaves, which is what makes a layer's ``forward`` its
inference kernel as well.

Only the operations needed by the CTR models in :mod:`repro.models` are
implemented, but they are implemented for arbitrary broadcastable shapes so
the layer code can stay close to the paper's equations.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]
_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))  # these select a view

# Per-thread, so a cluster worker serving inside ``no_grad`` cannot switch
# graph recording off (or back on) under a concurrent training thread.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad()``: inside the block no backward graph is built,
    which makes pure inference (evaluation, serving) cheaper.  The flag is
    thread-local, exactly like torch's: entering the block on one thread
    never affects a forward pass running on another.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record a backward graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting can expand operands along new leading axes or along
    axes of size one; the corresponding gradient must be summed back over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _no_backward() -> None:
    """The ``_backward`` of every tensor with no graph behind it."""


def _freed_backward() -> None:
    """The ``_backward`` of a node whose graph a ``backward()`` already freed."""
    raise RuntimeError(
        "backward() reached a graph that an earlier backward() already freed; "
        "run the forward pass again to rebuild it"
    )


class Tensor:
    """A numpy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[], None] = _no_backward
        self._prev: Tuple[Tensor, ...] = _prev if self.requires_grad or _prev else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a (copied) numpy array."""
        return np.array(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[["Tensor"], None],
    ) -> "Tensor":
        """The result of every op: a tape node only when a gradient is wanted.

        With grad off on this thread (``no_grad``) or no parent requiring it,
        the result is a plain leaf — no parents, no closure bound — so a
        ``forward`` under ``no_grad`` is a graph-free inference kernel.
        """
        if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _prev=parents)
        out._backward = lambda: backward(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``: the one statement of who owns it.

        An interior node (one with ``_prev``) borrows: it adopts the first
        gradient handed to it and adds later ones out of place, so an array
        handed to several nodes (``out.grad`` straight through) is never
        written to.  A leaf owns: it copies (``sum`` hands out read-only
        broadcast views) and adds in place, and ``clip_grad_norm`` may scale
        it.  Strided views are copied, not adopted: another layout would
        re-associate the reductions and GEMMs behind it (not bit-equal).
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float32), self.data.shape)
        if self.grad is None:
            self.grad = grad if self._prev and grad.flags["C_CONTIGUOUS"] else grad.copy()
        elif self._prev:
            self.grad = self.grad + grad
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)
            other._accumulate(-out.grad)

        return self._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1))

        return self._make(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                self._accumulate(grad @ b.T)
                other._accumulate(a.T @ grad)
            else:
                # Batched matmul: swap the last two axes for the transposes and
                # let _unbroadcast fold any broadcast batch dimensions back.
                self._accumulate(np.matmul(grad, np.swapaxes(b, -1, -2)))
                other._accumulate(np.matmul(np.swapaxes(a, -1, -2), grad))

        return self._make(np.matmul(self.data, other.data), (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value)

        return self._make(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * 0.5 / np.maximum(value, 1e-12))

        return self._make(value, (self,), backward)

    def sigmoid(self) -> "Tensor":
        value = np.clip(self.data, -60.0, 60.0, out=np.empty_like(self.data))
        np.exp(np.negative(value, out=value), out=value)
        np.divide(1.0, np.add(value, 1.0, out=value), out=value)  # all on one buffer

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * value * (1.0 - value))

        return self._make(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - value ** 2))

        return self._make(value, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(np.float32)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * scale)

        return self._make(self.data * scale, (self,), backward)

    def clip(self, min_value: float, max_value: float) -> "Tensor":
        mask = ((self.data >= min_value) & (self.data <= max_value)).astype(np.float32)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make(np.clip(self.data, min_value, max_value), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make(value, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.mean(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            count = self.data.size // max(value.size, 1)
            self._accumulate(np.broadcast_to(grad, self.data.shape) / count)

        return self._make(value, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        squared = centered * centered
        return squared.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            expanded = value
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(value, axis=axis)
            mask = (self.data == expanded).astype(np.float32)
            # Split gradient among ties to keep the sum of gradients constant.
            normaliser = mask.sum(axis=axis, keepdims=True)
            self._accumulate(grad * mask / np.maximum(normaliser, 1.0))

        return self._make(value, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.transpose(np.argsort(axes)))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(np.swapaxes(out.grad, axis1, axis2))

        return self._make(np.swapaxes(self.data, axis1, axis2), (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(np.squeeze(out.grad, axis=axis))

        return self._make(np.expand_dims(self.data, axis=axis), (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        return self._make(np.squeeze(self.data, axis=axis), (self,), backward)

    def contiguous(self) -> "Tensor":
        """Return a C-contiguous tensor (self if already contiguous).

        BLAS picks different (batch-size-dependent) kernels for transposed
        operands, which breaks bit-parity between micro-batched and
        per-request inference; feeding matmuls contiguous operands keeps
        per-row results independent of the batch composition.
        """
        if self.data.flags["C_CONTIGUOUS"]:
            return self

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad)

        return self._make(np.ascontiguousarray(self.data), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros(self.data.shape, dtype=np.float32)
            entries = index if isinstance(index, tuple) else (index,)
            if all(isinstance(entry, _BASIC_INDEX) for entry in entries):
                grad[index] += out.grad  # a view: no position repeats
            else:
                positions = np.arange(grad.size).reshape(grad.shape)[index]
                np.add.at(grad.reshape(-1), positions.reshape(-1), out.grad.reshape(-1))
            self._accumulate(grad)

        return self._make(self.data[index], (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D tensor; used by the embedding layer.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + (self.shape[1],)``.  The backward scatters into the
        raveled table at ``row * width + column``: 1-D ``np.add.at`` takes
        numpy's indexed fast loop (2.5x) and keeps each element's add order.
        """
        indices = np.asarray(indices, dtype=np.int64)
        value = self.data[indices]

        def backward(out: Tensor) -> None:
            grad = np.zeros(self.data.shape, dtype=np.float32)
            positions = indices.reshape(-1, 1) * grad.shape[1] + np.arange(grad.shape[1])
            np.add.at(grad.reshape(-1), positions.reshape(-1), out.grad.reshape(-1))
            self._accumulate(grad)

        return self._make(value, (self,), backward)

    # ------------------------------------------------------------------ #
    # combination ops (static constructors)
    # ------------------------------------------------------------------ #
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(index)])

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            grads = np.split(out.grad, len(tensors), axis=axis)
            for tensor, grad in zip(tensors, grads):
                tensor._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a, b = Tensor._ensure(a), Tensor._ensure(b)
        condition = np.asarray(condition, dtype=bool)
        data = np.where(condition, a.data, b.data)

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * condition)
            b._accumulate(out.grad * (~condition))

        return Tensor._make(data, (a, b), backward)

    # ------------------------------------------------------------------ #
    # softmax (numerically stable, along the last axis by default)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        value = exp / exp.sum(axis=axis, keepdims=True)

        def backward(out: Tensor) -> None:
            grad = out.grad
            dot = (grad * value).sum(axis=axis, keepdims=True)
            self._accumulate(value * (grad - dot))

        return self._make(value, (self,), backward)

    # ------------------------------------------------------------------ #
    # backpropagation
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones, which is the usual case of calling
        ``loss.backward()`` on a scalar loss.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if self._backward is _freed_backward:
            _freed_backward()
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Kept after the pass: the root's gradient and every leaf's.  Freed as
        # it goes: an interior node's parents and closure (root included, so a
        # second pass over any of it raises instead of silently leaving the
        # leaves' grads untouched) and its gradient, which nothing reads once
        # its own backward has handed it on.
        for node in reversed(topo):
            node._backward()
            if node._prev:
                node._prev = ()
                node._backward = _freed_backward
                if node is not self:
                    node.grad = None
