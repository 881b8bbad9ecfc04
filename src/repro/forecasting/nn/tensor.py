"""A small reverse-mode automatic-differentiation engine on numpy arrays.

All deep forecasting models (GRU, NBeats, DLinear, Transformer, Informer)
share this engine, so gradient code lives in exactly one place.  The design
is the classic tape-free dynamic graph: every :class:`Tensor` remembers its
parents and a closure that accumulates gradients into them; ``backward``
topologically sorts the graph and replays the closures.

Only the operations the forecasting models need are implemented, each with
full broadcasting support.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from contextlib import contextmanager

import numpy as np


class _GraphState(threading.local):
    def __init__(self) -> None:
        self.build = True


_graph_state = _GraphState()


@contextmanager
def no_grad():
    """Skip graph construction within the block (forward values unchanged).

    Used by the inference paths: child tensors are still created with the
    exact same data, but carry no parents or backward closures, so pure
    forward passes stop paying for bookkeeping they never replay.
    """
    previous = _graph_state.build
    _graph_state.build = False
    try:
        yield
    finally:
        _graph_state.build = previous


def building_graph() -> bool:
    """False inside :func:`no_grad` on the current thread."""
    return _graph_state.build


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` down to ``shape`` (inverse of numpy broadcasting)."""
    # sum away prepended axes
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # sum over axes that were broadcast from size 1
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient


class Tensor:
    """A numpy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    backward: Callable[[np.ndarray], None]) -> "Tensor":
        child = Tensor(data)
        child.requires_grad = (_graph_state.build
                               and any(p.requires_grad for p in parents))
        if child.requires_grad:
            child._parents = tuple(parents)
            child._backward = backward
        return child

    # -- shape properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make_child(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make_child(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / other.data ** 2, other.shape))

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = np.matmul(self.data, other.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                grad_other = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accumulate(_unbroadcast(grad_other, other.shape))

        return self._make_child(out_data, (self, other), backward)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape
        out_data = self.data.reshape(*shape)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return self._make_child(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return self._make_child(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(g, a, b))

        return self._make_child(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full)

        return self._make_child(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (self.data.size if axis is None
                 else np.prod([self.shape[a] for a in np.atleast_1d(axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- nonlinearities ---------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make_child(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make_child(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make_child(self.data * mask, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out_data = exps / exps.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                dot = (g * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (g - dot))

        return self._make_child(out_data, (self,), backward)

    # -- autograd ------------------------------------------------------------------------

    def _accumulate(self, gradient: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(gradient, dtype=np.float64)
        else:
            self.grad = self.grad + gradient

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self) = 1)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient needs a scalar")
            gradient = np.ones_like(self.data)
        ordering: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            ordering.append(node)

        visit(self)
        self._accumulate(np.asarray(gradient, dtype=np.float64))
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    child = Tensor(out_data)
    child.requires_grad = (_graph_state.build
                           and any(t.requires_grad for t in tensors))
    if child.requires_grad:
        child._parents = tuple(tensors)
        child._backward = backward
    return child


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    child = Tensor(out_data)
    child.requires_grad = (_graph_state.build
                           and any(t.requires_grad for t in tensors))
    if child.requires_grad:
        child._parents = tuple(tensors)
        child._backward = backward
    return child


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error between prediction and target."""
    target = Tensor._wrap(target)
    difference = prediction - target
    return (difference * difference).mean()
