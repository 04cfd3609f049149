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

Setting every attention and feed-forward output projection to zero turns
each layer into the identity on frame tokens, which tests rely on.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, assert_finite, concat, matmul, mean, reshape
from .errors import ShapeMismatch
from .layers import block, ffn, layer_norm, linear, mhsa, prunes_rows, qpass
from .params import EncoderConfig, ModelParams


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

    tokens = concat([z, reshape(msgs, (t, 1, cfg.d_model))], axis=1)  # (T, N+2, d)
    normed = layer_norm(tokens, params, f"{pf}.ln_attn")
    if cls_only:
        frame_tokens = tokens[:, :1] + mhsa(
            normed[:, :1], normed, params, f"{pf}.ifa", cfg.n_heads, qctx
        )
    else:
        attended = tokens + mhsa(normed, normed, params, f"{pf}.ifa", cfg.n_heads, qctx)
        frame_tokens = attended[:, : cfg.n_patches + 1]  # attended message token dropped

    return frame_tokens + ffn(
        layer_norm(frame_tokens, params, f"{pf}.ln_ffn"), params, f"{pf}.ffn", qctx
    )


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
    patches = extract_patches(data.astype(dtype, copy=False), cfg.patch)

    z = embed_frames(patches, params, cfg, qctx)
    del patches  # z holds what the layers need; the patch copy is not kept through them
    pruned = cfg.n_cct_layers - 1 if prunes_rows(qctx) else -1  # -1: no layer is pruned
    for i in range(cfg.n_cct_layers):
        z = cct_layer(z, params, cfg, i, qctx, cls_only=i == pruned)
    v = mit_pool(z[:, 0], params, cfg, qctx)
    assert_finite(v, "video embedding")
    return v
