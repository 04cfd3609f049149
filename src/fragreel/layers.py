"""Shared transformer building blocks on the autodiff engine.

All blocks thread an optional quantization context (``qctx``). When present
it observes or fake-quantizes the activations entering every matmul: the
input of each linear layer and both operands of the two attention matmuls.
Site names are derived from parameter prefixes so calibration and simulated
inference visit identical sites.

The context protocol is one method and one optional property:

- ``process(site, data) -> data``: called once per site per tile of rows
  (``over_tiles``), so once per forward pass where a block runs as one
  tile. A context must give the same result for a tile as for those rows of
  the whole; ``ActRecorder`` keeps a running max and ``ActQuant`` is
  elementwise with a fixed scale, so both do.
- ``needs_all_rows``: the last layer of each encoder normally computes only
  the rows its output reads (the class tokens, the EOS rows). A context
  that sets this true sees every row instead. Calibration sets it, because
  its per-site maxima are taken over every row; fake-quantization does not
  need it, because it is elementwise with a fixed scale per site.

A context also changes how those pruned rows attend. Without one, they
attend without projecting any key or value (``mhsa``); with one, keys and
values are computed for every row, because the ``qk:b`` and ``av:b`` sites
read them. So an int8 forward is the same with or without pruning, while a
float32 one differs from the materialized form by rounding only.
"""

from __future__ import annotations

import math

import numpy as np

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


WHOLE = slice(None)  # the one tile that spans the leading axis


def tile_of(x, s: slice):
    """Rows ``s`` of the leading axis of ``x``; ``x`` itself for ``WHOLE``."""
    return x if s is WHOLE else x[s]


def over_tiles(fn, tiles) -> Tensor:
    """``fn(s)`` for each tile ``s`` of a leading axis, as one tensor.

    A single tile returns what ``fn`` made, with no copy. Several tiles are
    written into one buffer as each finishes, so only one tile's
    temporaries are alive at a time. The buffer carries no graph, so
    several tiles are for ``no_grad`` only.
    """
    if len(tiles) == 1:
        return fn(tiles[0])
    out = None
    for s in tiles:
        part = fn(s).data
        if out is None:
            out = np.empty((tiles[-1].stop, *part.shape[1:]), dtype=part.dtype)
        out[s] = part
    return Tensor(out)


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


def mhsa(query: Tensor, key_value, params, prefix: str, n_heads: int, qctx=None,
         tiles=(WHOLE,)) -> Tensor:
    """Multi-head attention; ``query is key_value`` gives self-attention.

    Accepts any number of leading batch dimensions as long as they broadcast
    under matmul. Scores scale by 1/sqrt(head width); softmax is over keys.

    ``key_value`` may also be a function that makes the keys of one tile of
    the leading axis, called once per slice in ``tiles``. Each tile's keys,
    scores and weighted sums then live only while it runs, while the query
    and output projections run once over every row, so the result does not
    depend on the tiles.

    Without a context, queries that are a separate tensor with the same
    leading shape as the keys (a pruned subset of the key rows) take
    ``_attend_absorbed``, which never projects the keys and values. Under a
    context the keys and values are materialized, because the ``qk:b`` and
    ``av:b`` sites read them.
    """
    d = query.shape[-1]
    if d % n_heads != 0:
        raise ShapeMismatch(f"{prefix}: width {d} not divisible by {n_heads} heads")
    if callable(key_value):
        keys, kv_lead = key_value, query.shape[:-2]
    else:
        keys, kv_lead = (lambda s: key_value), key_value.shape[:-2]
    if qctx is None and query is not key_value and query.shape[:-2] == kv_lead:
        return _attend_absorbed(query, keys, tiles, params, prefix, n_heads)
    q = _split_heads(linear(query, params, f"{prefix}.q", qctx), n_heads)
    scale = 1.0 / math.sqrt(d // n_heads)

    def attend(s):
        x = keys(s)
        k = _split_heads(linear(x, params, f"{prefix}.k", qctx), n_heads)
        v = _split_heads(linear(x, params, f"{prefix}.v", qctx), n_heads)
        scores = matmul(
            qpass(qctx, f"{prefix}.qk:a", tile_of(q, s)),
            qpass(qctx, f"{prefix}.qk:b", _swap_last(k)),
        ) * scale
        attn = softmax(scores)
        return matmul(
            qpass(qctx, f"{prefix}.av:a", attn),
            qpass(qctx, f"{prefix}.av:b", v),
        )

    return linear(_merge_heads(over_tiles(attend, tiles)), params, f"{prefix}.out", qctx)


def _rows_by_batch(t: Tensor, batch: int, s_q: int) -> Tensor:
    """(H, batch*s_q, n) -> (batch, H*s_q, n): heads move behind the batch."""
    h, _, n = t.shape
    return reshape(transpose(reshape(t, (h, batch, s_q, n)), (1, 0, 2, 3)), (batch, h * s_q, n))


def _attend_absorbed(query: Tensor, keys, tiles, params, prefix: str, n_heads: int) -> Tensor:
    """Attention of a few query rows over x without computing x W_k or x W_v.

    Per head, q·(x W_k + b_k) = (q W_kᵀ)·x + q·b_k, and since each row of
    attention probabilities sums to one, attn·(x W_v + b_v) = (attn·x) W_v
    + b_v. The work is O(H·S·d) per query row instead of O(S·d²) per key
    row. q·b_k is constant over the keys, so the softmax cancels it; it stays
    in the scores so that ``{prefix}.k.b`` keeps its (zero) gradient.

    Heads go in front and the batch rows are folded together, so each weight
    product is one batched gemm whose gradient needs no broadcast sum. Only
    the scores and attn·x need the keys ``keys(s)`` of each tile ``s``; the
    weight products run once over every query row.
    """
    *lead, s_q, d = query.shape
    w_k, w_v = params[f"{prefix}.k.w"], params[f"{prefix}.v.w"]
    d_kv = w_k.shape[0]
    h, dh = n_heads, d // n_heads
    batch = math.prod(lead)
    rows = batch * s_q
    q = linear(reshape(query, (rows, d)), params, f"{prefix}.q")
    q = transpose(reshape(q, (rows, h, dh)), (1, 0, 2))  # (H, rows, dh)

    u = matmul(q, transpose(reshape(w_k, (d_kv, h, dh)), (1, 2, 0)))  # q W_kᵀ, (H, rows, d_kv)
    q_b = matmul(q, reshape(params[f"{prefix}.k.b"], (h, dh, 1)))  # q·b_k, (H, rows, 1)
    u, q_b = _rows_by_batch(u, batch, s_q), _rows_by_batch(q_b, batch, s_q)

    def attend(s):
        x = keys(s)
        for name, w in (("k", w_k), ("v", w_v)):
            if x.shape[-1] != w.shape[0]:
                raise ShapeMismatch(f"{prefix}.{name}: input width {x.shape[-1]} != {w.shape[0]}")
        x = reshape(x, (-1, *x.shape[-2:]))  # (batch rows of the tile, S, d_kv)
        scores = matmul(tile_of(u, s), _swap_last(x)) + tile_of(q_b, s)
        attn = softmax(scores * (1.0 / math.sqrt(dh)))  # (batch, H*s_q, S)
        return matmul(attn, x)  # attn·x, (batch, H*s_q, d_kv)

    y = over_tiles(attend, tiles)
    y = reshape(transpose(reshape(y, (batch, h, s_q, d_kv)), (1, 0, 2, 3)), (h, rows, d_kv))
    ctx = matmul(y, transpose(reshape(w_v, (d_kv, h, dh)), (1, 0, 2)))  # (H, rows, dh)
    ctx = ctx + reshape(params[f"{prefix}.v.b"], (h, 1, dh))
    out = linear(reshape(transpose(ctx, (1, 0, 2)), (rows, d)), params, f"{prefix}.out")
    return reshape(out, (*lead, s_q, d))


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
