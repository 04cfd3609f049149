"""Video encoder: patch embedding, cross-frame communication, temporal pooling.

A clip tensor (T, side, side, 3) becomes one embedding of width d_model:

1. Each frame is cut into non-overlapping patches, projected, prefixed with
   a learned class token, and offset by a learned positional table.
2. A stack of cross-frame communication layers runs. Each layer projects the
   per-frame class token to a message token, lets the T message tokens
   attend to each other (cross-frame attention), then runs intra-frame
   attention over each frame's tokens plus its message token, and finally a
   feed-forward block. All three sub-blocks are residual with pre-norm, and
   the attended message token is discarded after the intra-frame step.
3. The final class tokens, offset by a temporal position table, pass through
   a small temporal transformer and are averaged over time.

Only the class tokens of the last layer are read, so that layer computes
just those rows (unless the quantization context needs every row; see
``layers``). They still attend over every token, so the pruned result is
exact. Without a context they do so without projecting any token's key or
value (``layers.mhsa``), which removes the largest cost of that layer.

Only cross-frame attention mixes frames. So under ``no_grad`` the per-frame
work runs over tiles of ``TILE_FRAMES`` frames, each tile's temporaries
freed before the next: the patch embedding, each full layer's token concat,
intra-frame attention and feed-forward block, and the pruned layer's keys,
scores and attn·x. The tiles are written into one buffer. The messages and
every product on the T class rows run once over the clip, so the output
does not depend on the tiles, to the bit. A clip of at most one tile, and
any forward under gradients, runs as one tile: training builds the graph it
always has.

Setting every attention and feed-forward output projection to zero turns
each layer into the identity on frame tokens, which tests rely on.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, assert_finite, concat, grad_enabled, matmul, mean, reshape
from .errors import ShapeMismatch
from .layers import (
    WHOLE,
    block,
    ffn,
    layer_norm,
    linear,
    mhsa,
    over_tiles,
    prunes_rows,
    qpass,
    tile_of,
)
from .params import EncoderConfig, ModelParams

TILE_FRAMES = 4  # frames per tile of per-frame work under no_grad


def extract_patches(frames: np.ndarray, patch: int) -> np.ndarray:
    """(T, S, S, C) -> (T, N, C*patch*patch), row-major patch grid order."""
    t, h, w, c = frames.shape
    if h % patch != 0 or w % patch != 0:
        raise ShapeMismatch(f"frame side ({h}, {w}) not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = frames.reshape(t, gh, patch, gw, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(t, gh * gw, c * patch * patch)


def embed_frames(patches: Tensor | np.ndarray, params: ModelParams, cfg: EncoderConfig, qctx=None) -> Tensor:
    """(T, N, patch_dim) -> (T, N+1, d): project, prepend class token, add positions."""
    if not isinstance(patches, Tensor):
        patches = Tensor(patches)
    t, n, pd = patches.shape
    if n != cfg.n_patches or pd != cfg.patch_dim:
        raise ShapeMismatch(
            f"patches {patches.shape} do not match config (N={cfg.n_patches}, dim={cfg.patch_dim})"
        )
    patches = qpass(qctx, "video.patch_proj:in", patches)
    flat = matmul(reshape(patches, (t * n, pd)), params["video.patch_proj"])  # one gemm
    proj = reshape(flat, (t, n, cfg.d_model))
    cls = reshape(params["video.class_token"], (1, 1, cfg.d_model))
    cls_rows = cls + Tensor(np.zeros((t, 1, cfg.d_model), dtype=proj.dtype))
    z = concat([cls_rows, proj], axis=1)
    return z + params["video.pos"]


def frame_tiles(t: int) -> list[slice]:
    """The tiles of frames that the per-frame work of ``t`` frames runs over.

    Under ``no_grad`` each tile's temporaries are freed before the next tile
    runs. Under gradients the graph keeps what backward reads of every
    frame anyway, so one tile spans the clip and training builds the graph
    it always has.
    """
    if grad_enabled() or t <= TILE_FRAMES:
        return [WHOLE]
    return [slice(i, min(i + TILE_FRAMES, t)) for i in range(0, t, TILE_FRAMES)]


def cct_layer(z: Tensor, params: ModelParams, cfg: EncoderConfig, index: int, qctx=None,
              cls_only: bool = False) -> Tensor:
    """One cross-frame communication layer over (T, N+1, d).

    With ``cls_only`` the layer returns only the class-token rows, (T, 1, d):
    their queries still attend over every token, so those rows are exact.
    """
    pf = f"video.cct.{index}"
    t = z.shape[0]

    msgs = linear(z[:, 0], params, f"{pf}.msg", qctx)  # (T, d)
    normed_msgs = layer_norm(msgs, params, f"{pf}.ln_msg")
    msgs = msgs + mhsa(normed_msgs, normed_msgs, params, f"{pf}.cfa", cfg.n_heads, qctx)
    msgs = reshape(msgs, (t, 1, cfg.d_model))
    tiles = frame_tiles(t)

    def tokens(s):  # the tile's frame tokens and message tokens, (tile, N+2, d)
        return concat([tile_of(z, s), tile_of(msgs, s)], axis=1)

    def with_ffn(x):
        return x + ffn(layer_norm(x, params, f"{pf}.ln_ffn"), params, f"{pf}.ffn", qctx)

    if not cls_only:
        def frames(s):
            x = tokens(s)
            normed = layer_norm(x, params, f"{pf}.ln_attn")
            attended = x + mhsa(normed, normed, params, f"{pf}.ifa", cfg.n_heads, qctx)
            return with_ffn(attended[:, : cfg.n_patches + 1])  # attended message token dropped

        return over_tiles(frames, tiles)

    if len(tiles) == 1:  # the graph training differentiates: queries read from the whole norm
        x = tokens(WHOLE)
        normed = layer_norm(x, params, f"{pf}.ln_attn")
        residual, query, keys = x[:, :1], normed[:, :1], normed
    else:
        # the class rows are normed on their own, so a tile's keys live only while it runs
        residual = z[:, :1]
        query = layer_norm(residual, params, f"{pf}.ln_attn")

        def keys(s):
            return layer_norm(tokens(s), params, f"{pf}.ln_attn")

    return with_ffn(residual + mhsa(query, keys, params, f"{pf}.ifa", cfg.n_heads, qctx, tiles))


def mit_pool(h: Tensor, params: ModelParams, cfg: EncoderConfig, qctx=None) -> Tensor:
    """Temporal transformer over per-frame embeddings (T, d) -> (d,)."""
    if h.shape != (cfg.t_frames, cfg.d_model):
        raise ShapeMismatch(f"temporal input {h.shape} != ({cfg.t_frames}, {cfg.d_model})")
    x = h + params["video.mit.temp"]
    for i in range(cfg.n_mit_layers):
        x = block(x, params, f"video.mit.{i}", cfg.n_heads, qctx)
    return mean(x, axis=0)


def encode_video(clip, params: ModelParams, qctx=None) -> Tensor:
    """Encode a preprocessed clip (T, side, side, 3) to one embedding (d,)."""
    cfg = params.config.encoder
    data = np.asarray(clip)
    expected = (cfg.t_frames, cfg.side, cfg.side, 3)
    if data.shape != expected:
        raise ShapeMismatch(f"clip shape {data.shape} != {expected}")
    dtype = params["video.patch_proj"].dtype

    def embed(s):  # a tile's patch copy is freed once its rows of z are written
        patches = extract_patches(tile_of(data, s).astype(dtype, copy=False), cfg.patch)
        return embed_frames(patches, params, cfg, qctx)

    z = over_tiles(embed, frame_tiles(cfg.t_frames))
    pruned = cfg.n_cct_layers - 1 if prunes_rows(qctx) else -1  # -1: no layer is pruned
    for i in range(cfg.n_cct_layers):
        z = cct_layer(z, params, cfg, i, qctx, cls_only=i == pruned)
    v = mit_pool(z[:, 0], params, cfg, qctx)
    assert_finite(v, "video embedding")
    return v
