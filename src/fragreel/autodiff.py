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
    # grad_enabled() inlined: every op of a forward pass comes through here
    if getattr(_state, "grad_enabled", True) and any(p.requires_grad for p in parents):
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
    # add.reduce and an in-place divide are what .mean runs, byte for byte,
    # without its Python-level wrapper
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    centered = x.data - mu
    var = np.add.reduce(centered**2, axis=-1, keepdims=True)
    var /= n
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


# Cephes' erf (Moshier, Cephes Math Library, ndtr.c; the forms of Cody,
# Math. Comp. 23, 1969): x T(x²)/U(x²) for |x| <= 1 and 1 - exp(-x²) P(|x|)/Q(|x|)
# above. Coefficients run from the highest power down; U and Q are monic.
# Past |x| = 6, 1 - erf(|x|) is under half an ulp of 1, so |x| is clamped
# there, which also keeps x² finite.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# Each region's two polynomials run in one Horner pass over two rows, which
# halves the numpy calls: row k of a table holds the k-th coefficients from
# the top, T padded with a leading zero (0 v + c0 is c0 exactly).
_ERF_TU = np.array([(0.0,) + _ERF_T, _ERF_U]).T[:, :, None]
_ERF_PQ = np.array([_ERF_P, _ERF_Q]).T[:, :, None]
# A vector runs in _ERF_SPLITS equal chunks, but in none shorter than
# _ERF_MIN elements (unless the vector is) or longer than _ERF_MAX. A chunk
# makes about 50 numpy calls and each takes the GIL back, which costs most
# when two threads run GELUs at once, so a call makes few chunks; a chunk
# of at most _ERF_MAX (512 KB per float64 array) stays in cache; and between
# the two limits erf's scratch is a fixed share of the vector.
_ERF_SPLITS, _ERF_MIN, _ERF_MAX = 8, 8192, 65536


def _horner2(v: np.ndarray, coefs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row k of ``y`` (shape (2, v.size)) gets the polynomial with the
    coefficients ``coefs[:, k]`` at each of ``v``."""
    np.multiply(coefs[0], v, out=y)
    y += coefs[1]
    for c in coefs[2:]:
        y *= v
        y += c
    return y


def _erf_chunk(t: np.ndarray, sign: np.ndarray, z: np.ndarray, y: np.ndarray) -> None:
    """Replaces the float64 vector ``t`` by its erf with the signs of
    ``sign``; ``z`` (t's size) and ``y`` (shape (2, t.size)) are scratch."""
    a = np.abs(t, out=t)
    np.minimum(a, 6.0, out=a)
    past = (a > 1.0).nonzero()[0]
    v = a[past]
    np.multiply(a, a, out=z)
    _horner2(z, _ERF_TU, y)
    a *= y[0]
    a /= y[1]
    if past.size:
        e = np.negative(v)
        e *= v
        np.exp(e, out=e)
        pq = _horner2(v, _ERF_PQ, y[:, : past.size])
        e *= pq[0]
        e /= pq[1]
        a[past] = 1.0 - e
    np.copysign(a, sign, out=a)


def _erf_chunks(flat: np.ndarray, divisor: float, cdf: np.ndarray | None, spare: np.ndarray | None):
    """Walks the vector ``flat`` in chunks, yielding (lo, hi, c) with
    c = erf(flat[lo:hi] / divisor) in float64 for a positive ``divisor``.
    c is the chunk's slice of ``cdf`` when given, else scratch reused from
    chunk to chunk; the chunk's slice of ``spare`` (or scratch) is clobbered."""
    step = min(_ERF_MAX, max(_ERF_MIN, -(-flat.size // _ERF_SPLITS)))
    n = min(flat.size, step)
    y = np.empty((2, n))
    held = np.empty(n) if cdf is None else None
    scratch = np.empty(n) if spare is None else None
    for lo in range(0, flat.size, step):
        hi = min(lo + step, flat.size)
        xs = flat[lo:hi]
        c = held[: hi - lo] if cdf is None else cdf[lo:hi]
        np.divide(xs, divisor, out=c)
        _erf_chunk(c, xs, scratch[: hi - lo] if spare is None else spare[lo:hi], y[:, : hi - lo])
        yield lo, hi, c


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of each element in float64, within 4.5e-16 of the
    C library's ``erf``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    for _ in _erf_chunks(x.reshape(-1), 1.0, out.reshape(-1), None):
        pass
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    x = a.data
    keep = grad_enabled() and a.requires_grad  # the backward reads the CDF
    # The output is float64 for a float32 x, as x / np.sqrt(2.0) makes it
    # (np.sqrt(2.0) is a float64 scalar); perfbench's stored int8 reference
    # was made with that dtype. Each chunk runs the whole formula while it
    # is in cache, with its slice of the output as erf's scratch.
    out = np.empty(x.shape)
    cdf = np.empty(x.shape) if keep else None
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    chunks = _erf_chunks(flat, np.sqrt(2.0), None if cdf is None else cdf.reshape(-1), flat_out)
    for lo, hi, c in chunks:
        c += 1.0
        c *= 0.5
        np.multiply(flat[lo:hi], c, out=flat_out[lo:hi])

    def backward(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), backward)


def assert_finite(t: Tensor, what: str) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NonFiniteActivation(f"{what} contains NaN or infinity")
    return t
