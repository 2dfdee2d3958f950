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

Every op is one entry of :data:`PRIMITIVES`, in the shape of autograd's
``defvjp``: its numpy body beside one vector-Jacobian product per tensor
input.  ``Tensor``'s methods and operators and :mod:`repro.nn.functional`'s
ops are those entries, so an op called with bare ndarrays runs its body and
returns an ndarray, and a layer called with an ndarray returns one.

Only the operations needed by the CTR models in :mod:`repro.models` are
implemented, but they are implemented for arbitrary broadcastable shapes so
the layer code can stay close to the paper's equations.
"""

from __future__ import annotations

import operator
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "PRIMITIVES", "no_grad", "is_grad_enabled"]

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    value = np.maximum(x, -60.0, out=np.empty_like(x))  # np.clip's bytes, not its wrapper
    np.minimum(value, 60.0, out=value)
    np.exp(np.negative(value, out=value), out=value)
    return np.divide(1.0, np.add(value, 1.0, out=value), out=value)  # all on one buffer


def _relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0)


def _leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    return x * np.where(x > 0, np.float32(1.0), np.float32(negative_slope))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def _no_backward() -> None:
    """The ``_backward`` of every tensor with no graph behind it."""


def _freed_backward() -> None:
    """The ``_backward`` of a node whose graph a ``backward()`` already freed."""
    raise RuntimeError(
        "backward() reached a graph that an earlier backward() already freed; "
        "run the forward pass again to rebuild it"
    )


# ---------------------------------------------------------------------- #
# the primitive table
# ---------------------------------------------------------------------- #
#: Every op, by name: the applier :func:`_defop` builds from its body and VJPs.
PRIMITIVES: Dict[str, Callable] = {}


def _defop(name: str, body: Callable, *vjps: Callable, variadic: bool = False) -> None:
    """Register ``body`` with one VJP per tensor input as ``PRIMITIVES[name]``.

    The entry takes the op's tensor inputs first (for a ``variadic`` op, one
    sequence of them), then its other arguments.  With no ``Tensor`` among
    the inputs it returns ``body``'s ndarray.  Otherwise every input becomes
    a tape parent (a constant as a leaf ``Tensor``, cast to float32), the
    body runs on their data, and the backward hands parent ``i`` the result
    of ``vjps[i](grad, value, *inputs, *args, **kwargs)`` — only for parents
    that require grad.  A variadic op's one VJP gets ``(grad, value,
    inputs, *args, index=i, **kwargs)``.
    """
    arity = len(vjps)

    def apply(*args, **kwargs):
        inputs = args[0] if variadic else args[:arity]
        for x in inputs:
            if isinstance(x, Tensor):
                break
        else:
            return body(*args, **kwargs)
        parents = tuple([x if isinstance(x, Tensor) else Tensor(x) for x in inputs])
        arrays = [parent.data for parent in parents]
        if variadic:
            rest = args[1:]
            value = body(arrays, *rest, **kwargs)
        else:
            rest = args[arity:]
            value = body(*arrays, *rest, **kwargs)

        def backward(out: Tensor) -> None:
            for index, parent in enumerate(parents):
                if not parent.requires_grad:
                    continue
                if variadic:
                    grad = vjps[0](out.grad, value, arrays, *rest, index=index, **kwargs)
                else:
                    grad = vjps[index](out.grad, value, *arrays, *rest, **kwargs)
                parent._accumulate(grad)

        return Tensor._make(value, parents, backward)

    apply.__name__ = apply.__qualname__ = name
    PRIMITIVES[name] = apply


def _reduced_grad(grad, x, axis, keepdims):
    """``grad`` of a ``sum``/``mean`` over ``axis`` spread back over ``x``."""
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return np.broadcast_to(grad, x.shape)


def _matmul_grad(grad, a, b, wrt_a: bool):
    if a.ndim == 2 and b.ndim == 2:
        return grad @ b.T if wrt_a else a.T @ grad
    # Batched matmul: swap the last two axes for the transposes and let
    # _unbroadcast fold any broadcast batch dimensions back.
    if wrt_a:
        return np.matmul(grad, np.swapaxes(b, -1, -2))
    return np.matmul(np.swapaxes(a, -1, -2), grad)


def _getitem_grad(grad, value, x, index):
    out = np.zeros(x.shape, dtype=np.float32)
    entries = index if isinstance(index, tuple) else (index,)
    if all(isinstance(entry, _BASIC_INDEX) for entry in entries):
        out[index] += grad  # a view: no position repeats
    else:
        positions = np.arange(out.size).reshape(out.shape)[index]
        np.add.at(out.reshape(-1), positions.reshape(-1), grad.reshape(-1))
    return out


def _take_rows_grad(grad, value, x, indices):
    # Scatter into the raveled table at ``row * width + column``: 1-D
    # ``np.add.at`` takes numpy's indexed fast loop (2.5x) and keeps each
    # element's add order.
    out = np.zeros(x.shape, dtype=np.float32)
    rows = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
    positions = rows * out.shape[1] + np.arange(out.shape[1])
    np.add.at(out.reshape(-1), positions.reshape(-1), grad.reshape(-1))
    return out


def _concat_grad(grad, value, arrays, axis=-1, *, index):
    offsets = np.cumsum([0] + [array.shape[axis] for array in arrays])
    block = [slice(None)] * grad.ndim
    block[axis] = slice(offsets[index], offsets[index + 1])
    return grad[tuple(block)]


def _transpose_grad(grad, value, x, *axes):
    axes = tuple(axes[0]) if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes
    return grad.transpose(np.argsort(axes) if axes else None)


_defop("add", operator.add, lambda g, y, a, b: g, lambda g, y, a, b: g)
_defop("sub", operator.sub, lambda g, y, a, b: g, lambda g, y, a, b: -g)
_defop("neg", operator.neg, lambda g, y, x: -g)
_defop("mul", operator.mul, lambda g, y, a, b: g * b, lambda g, y, a, b: g * a)
_defop("pow", np.power, lambda g, y, x, exponent: g * exponent * np.power(x, exponent - 1))
_defop("matmul", np.matmul,
       lambda g, y, a, b: _matmul_grad(g, a, b, True),
       lambda g, y, a, b: _matmul_grad(g, a, b, False))
_defop("log", np.log, lambda g, y, x: g / x)
_defop("sigmoid", _sigmoid, lambda g, y, x: g * y * (1.0 - y))
_defop("tanh", np.tanh, lambda g, y, x: g * (1.0 - y ** 2))
_defop("relu", _relu, lambda g, y, x: g * (x > 0))
_defop("leaky_relu", _leaky_relu, lambda g, y, x, negative_slope=0.01: g * np.where(
    x > 0, np.float32(1.0), np.float32(negative_slope)))
_defop("clip", np.clip, lambda g, y, x, low, high: g * ((x >= low) & (x <= high)).astype(np.float32))
_defop("softmax", _softmax,  # numerically stable, along the last axis by default
       lambda g, y, x, axis=-1: y * (g - (g * y).sum(axis=axis, keepdims=True)))
_defop("sum", lambda x, axis=None, keepdims=False: x.sum(axis=axis, keepdims=keepdims),
       lambda g, y, x, axis=None, keepdims=False: _reduced_grad(g, x, axis, keepdims))
_defop("mean", lambda x, axis=None, keepdims=False: x.mean(axis=axis, keepdims=keepdims),
       lambda g, y, x, axis=None, keepdims=False:
       _reduced_grad(g, x, axis, keepdims) / (x.size // max(y.size, 1)))
_defop("reshape", lambda x, *shape: x.reshape(*shape), lambda g, y, x, *shape: g.reshape(x.shape))
_defop("transpose", lambda x, *axes: x.transpose(*axes), _transpose_grad)
_defop("swapaxes", np.swapaxes, lambda g, y, x, axis1, axis2: np.swapaxes(g, axis1, axis2))
_defop("contiguous", np.ascontiguousarray, lambda g, y, x: g)
_defop("getitem", operator.getitem, _getitem_grad)
# Rows of a 2-D table (the embedding gather): ``indices`` of any shape give
# ``indices.shape + (width,)``.
_defop("take_rows", lambda x, indices: x[np.asarray(indices, dtype=np.int64)], _take_rows_grad)
_defop("concat", lambda arrays, axis=-1: np.concatenate(arrays, axis=axis), _concat_grad,
       variadic=True)


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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def matching(self, x: ArrayLike) -> Union["Tensor", np.ndarray]:
        """This tensor as ``x``'s operand: itself for a ``Tensor``, its data for an ndarray."""
        return self if isinstance(x, Tensor) else self.data

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
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
    # the ops: entries of PRIMITIVES
    # ------------------------------------------------------------------ #
    __add__ = __radd__ = PRIMITIVES["add"]
    __sub__ = PRIMITIVES["sub"]
    __neg__ = PRIMITIVES["neg"]
    __mul__ = __rmul__ = PRIMITIVES["mul"]
    __matmul__ = PRIMITIVES["matmul"]
    __getitem__ = PRIMITIVES["getitem"]
    log = PRIMITIVES["log"]
    sigmoid = PRIMITIVES["sigmoid"]
    tanh = PRIMITIVES["tanh"]
    relu = PRIMITIVES["relu"]
    leaky_relu = PRIMITIVES["leaky_relu"]
    clip = PRIMITIVES["clip"]
    softmax = PRIMITIVES["softmax"]
    sum = PRIMITIVES["sum"]
    mean = PRIMITIVES["mean"]
    reshape = PRIMITIVES["reshape"]
    transpose = PRIMITIVES["transpose"]
    swapaxes = PRIMITIVES["swapaxes"]
    take_rows = PRIMITIVES["take_rows"]
    concat = staticmethod(PRIMITIVES["concat"])

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return PRIMITIVES["sub"](other, self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return PRIMITIVES["pow"](self, exponent)

    def contiguous(self) -> "Tensor":
        """Return a C-contiguous tensor (self if already contiguous).

        BLAS picks different (batch-size-dependent) kernels for transposed
        operands, which breaks bit-parity between micro-batched and
        per-request inference; feeding matmuls contiguous operands keeps
        per-row results independent of the batch composition.
        """
        return self if self.data.flags["C_CONTIGUOUS"] else PRIMITIVES["contiguous"](self)

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
