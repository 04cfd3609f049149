"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for a small transformer: broadcasting elementwise ops,
(batched) matmul, a fused flat linear, reductions, shape ops, layernorm,
softmax variants and GELU, each with a hand-derived backward. Tensors are float32 for training
and inference; the same graph runs in float64 for oracle and gradient tests.

Gradient tracking is per-thread: ``no_grad()`` disables graph construction
on the current thread only, so read-only inference may run concurrently
with training on another thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteActivation

_state = threading.local()


def grad_enabled() -> bool:
    """Whether operations on this thread record the graph for backward."""
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    previous = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


class Tensor:
    """An array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor.

        The graph is spent as it goes: once a node has passed its gradient
        to its parents it drops that gradient, its closure (with the arrays
        it saved) and its parents, so interior activations are freed during
        the pass and nothing below this tensor stays alive after it. Leaves,
        the tensors without a backward closure, keep ``grad``. A graph can
        therefore be differentiated once.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # reverse topological order; the list lets go of it
            if node._backward is None:
                continue
            if node.grad is not None:
                for parent, grad in zip(node._parents, node._backward(node.grad)):
                    if grad is None or not parent.requires_grad:
                        continue
                    # out of place: add hands the same array to both parents
                    parent.grad = grad if parent.grad is None else parent.grad + grad
            node.grad = None
            node._backward = None
            node._parents = ()

    # operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __neg__(self):
        return mul(self, _const(-1.0, self))

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self))

    def __rsub__(self, other):
        return add(_as_tensor(other, self), -self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self)
        return mul(self, power(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def _const(value, like: Tensor) -> Tensor:
    return Tensor(np.asarray(value, dtype=like.dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# primitive ops -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def power(a: Tensor, exponent: float) -> Tensor:
    data = a.data**exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _make(data, (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    data = np.clip(a.data, low, high)

    def backward(g):
        # zero subgradient at and beyond the bounds
        return (g * ((a.data > low) & (a.data < high)),)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None  # an operand that needs no gradient gets none computed
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, as one node: the bias is added into the
    product's own buffer, and backward runs three flat products."""
    if x.data.ndim != 2:
        raise ValueError("linear input must be 2-D")
    data = np.matmul(x.data, w.data)
    data += b.data

    def backward(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _make(data, (x, w, b), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    # the inverse permutation is found in backward: no_grad calls never need it
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(np.argsort(axes)),))


def _is_basic_index(index) -> bool:
    """Ints, slices, None and Ellipsis (alone or in a tuple): numpy's basic
    indexing, which selects each element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None or part is Ellipsis or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def getitem(a: Tensor, index) -> Tensor:
    basic = _is_basic_index(index)

    def backward(g):
        full = np.zeros_like(a.data)
        if basic:  # no duplicates, so a plain add into the view is exact
            full[index] += g
        else:  # advanced indices may repeat an element: accumulate each use
            np.add.at(full, index, g)
        return (full,)

    return _make(a.data[index], (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _make(data, tuple(tensors), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_kept = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_kept, a.shape).copy(),)

    return _make(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), _const(1.0 / count, a))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows are probability vectors."""
    out = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - log_z

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), backward)


LAYERNORM_EPS = 1e-5


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale+shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = centered
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes).reshape(gain.shape)
        dbias = g.sum(axis=reduce_axes).reshape(bias.shape)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _make(out, (x, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    # imported here, not at module level: scipy takes about half of the
    # package's import time, and commands that run no model never need it
    from scipy.special import erf

    x = a.data
    # np.sqrt(2.0) is a float64 scalar, so a float32 x gives a float64 CDF and
    # output; perfbench's stored int8 reference was made with that dtype
    cdf = x / np.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), backward)


def assert_finite(t: Tensor, what: str) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NonFiniteActivation(f"{what} contains NaN or infinity")
    return t
