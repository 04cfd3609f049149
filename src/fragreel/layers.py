"""Shared transformer building blocks on the autodiff engine.

All blocks thread an optional quantization context (``qctx``). When present
it observes or fake-quantizes the activations entering every matmul: the
input of each linear layer and both operands of the two attention matmuls.
Site names are derived from parameter prefixes so calibration and simulated
inference visit identical sites.

The context protocol is one method and one optional property:

- ``process(site, data) -> data``: called once per site per forward pass.
- ``needs_all_rows``: the last layer of each encoder normally computes only
  the rows its output reads (the class tokens, the EOS rows). A context
  that sets this true sees every row instead. Calibration sets it, because
  its per-site maxima are taken over every row; fake-quantization does not
  need it, because it is elementwise with a fixed scale per site.
"""

from __future__ import annotations

import math

from . import autodiff
from .autodiff import (
    Tensor,
    gelu,
    layernorm,
    matmul,
    reshape,
    softmax,
    transpose,
)
from .errors import ConfigError, ShapeMismatch


def qpass(qctx, site: str, t: Tensor) -> Tensor:
    """Run one activation through the quantization context, if any."""
    if qctx is None:
        return t
    data = qctx.process(site, t.data)
    if data is t.data:
        return t
    if t.requires_grad:
        raise ConfigError(
            f"site {site}: fake-quantized activations cannot carry gradients"
        )
    return Tensor(data)


def prunes_rows(qctx) -> bool:
    """Whether the encoders may skip rows that their output does not read."""
    return not getattr(qctx, "needs_all_rows", False)


def linear(x: Tensor, params, prefix: str, qctx=None) -> Tensor:
    """x @ w + b with parameters ``{prefix}.w`` and ``{prefix}.b``.

    Leading axes are merged so the product is one flat gemm, then split
    again; a 2-D input goes straight through.
    """
    w = params[f"{prefix}.w"]
    b = params[f"{prefix}.b"]
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"{prefix}: input width {x.shape[-1]} != {w.shape[0]}")
    x = qpass(qctx, f"{prefix}:in", x)
    if x.data.ndim == 2:
        return autodiff.linear(x, w, b)
    flat = autodiff.linear(reshape(x, (-1, w.shape[0])), w, b)
    return reshape(flat, (*x.shape[:-1], w.shape[1]))


def layer_norm(x: Tensor, params, prefix: str) -> Tensor:
    return layernorm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _split_heads(t: Tensor, n_heads: int) -> Tensor:
    """(..., S, d) -> (..., n_heads, S, d//n_heads)."""
    *lead, s, d = t.shape
    t = reshape(t, (*lead, s, n_heads, d // n_heads))
    m = t.data.ndim
    perm = tuple(range(m - 3)) + (m - 2, m - 3, m - 1)
    return transpose(t, perm)


def _merge_heads(t: Tensor) -> Tensor:
    """(..., n_heads, S, dh) -> (..., S, n_heads*dh)."""
    m = t.data.ndim
    perm = tuple(range(m - 3)) + (m - 2, m - 3, m - 1)
    t = transpose(t, perm)
    *lead, s, h, dh = t.shape
    return reshape(t, (*lead, s, h * dh))


def _swap_last(t: Tensor) -> Tensor:
    m = t.data.ndim
    return transpose(t, tuple(range(m - 2)) + (m - 1, m - 2))


def mhsa(query: Tensor, key_value: Tensor, params, prefix: str, n_heads: int, qctx=None) -> Tensor:
    """Multi-head attention; ``query is key_value`` gives self-attention.

    Accepts any number of leading batch dimensions as long as they broadcast
    under matmul. Scores scale by 1/sqrt(head width); softmax is over keys.
    """
    d = query.shape[-1]
    if d % n_heads != 0:
        raise ShapeMismatch(f"{prefix}: width {d} not divisible by {n_heads} heads")
    q = _split_heads(linear(query, params, f"{prefix}.q", qctx), n_heads)
    k = _split_heads(linear(key_value, params, f"{prefix}.k", qctx), n_heads)
    v = _split_heads(linear(key_value, params, f"{prefix}.v", qctx), n_heads)
    scale = 1.0 / math.sqrt(d // n_heads)
    scores = matmul(
        qpass(qctx, f"{prefix}.qk:a", q),
        qpass(qctx, f"{prefix}.qk:b", _swap_last(k)),
    ) * scale
    attn = softmax(scores)
    ctx = matmul(
        qpass(qctx, f"{prefix}.av:a", attn),
        qpass(qctx, f"{prefix}.av:b", v),
    )
    return linear(_merge_heads(ctx), params, f"{prefix}.out", qctx)


def ffn(x: Tensor, params, prefix: str, qctx=None) -> Tensor:
    """Two linears around an exact GELU."""
    hidden = gelu(linear(x, params, f"{prefix}.in", qctx))
    return linear(hidden, params, f"{prefix}.out", qctx)


def block(x: Tensor, params, prefix: str, n_heads: int, qctx=None, rows=None) -> Tensor:
    """One pre-norm transformer block: x + mhsa(ln_attn(x)), then x + ffn(ln_ffn(x)).

    With ``rows`` (an index into x) only those rows are computed: they query
    the keys and values of every row, so they are exact.
    """
    normed = layer_norm(x, params, f"{prefix}.ln_attn")
    query = normed
    if rows is not None:
        x, query = x[rows], normed[rows]
    x = x + mhsa(query, normed, params, f"{prefix}.attn", n_heads, qctx)
    return x + ffn(layer_norm(x, params, f"{prefix}.ln_ffn"), params, f"{prefix}.ffn", qctx)
