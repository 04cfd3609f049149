"""Independent float64 reference implementations of the model math.

Everything here is written straight-line against plain numpy arrays: explicit
loops over frames, heads and grid cells, math.erf for the GELU, no shared code
with the package. Tests compare the production forward pass to these
functions; agreement is required to 1e-10 in float64.

All functions take ``p``, a plain dict mapping parameter names to float64
arrays, plus explicit dimension arguments.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
COS_EPS = 1e-30
CONTEXT = 77
EOS_ID = 257


def o_linear(x: np.ndarray, p: dict, prefix: str) -> np.ndarray:
    return x @ p[f"{prefix}.w"] + p[f"{prefix}.b"]


def o_layernorm(x: np.ndarray, p: dict, prefix: str) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + LN_EPS) * p[f"{prefix}.g"] + p[f"{prefix}.b"]


def o_gelu(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for i, value in enumerate(flat):
        out[i] = 0.5 * value * (1.0 + math.erf(value / math.sqrt(2.0)))
    return out.reshape(x.shape)


def o_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def o_attention(query: np.ndarray, key_value: np.ndarray, p: dict, prefix: str,
                n_heads: int) -> np.ndarray:
    """Multi-head attention on one (S_q, d) query block and (S_k, d) keys."""
    d = query.shape[-1]
    dh = d // n_heads
    q = o_linear(query, p, f"{prefix}.q")
    k = o_linear(key_value, p, f"{prefix}.k")
    v = o_linear(key_value, p, f"{prefix}.v")
    merged = np.zeros((query.shape[0], d))
    for h in range(n_heads):
        qh = q[:, h * dh : (h + 1) * dh]
        kh = k[:, h * dh : (h + 1) * dh]
        vh = v[:, h * dh : (h + 1) * dh]
        scores = (qh @ kh.T) / math.sqrt(dh)
        merged[:, h * dh : (h + 1) * dh] = o_softmax_rows(scores) @ vh
    return o_linear(merged, p, f"{prefix}.out")


def o_ffn(x: np.ndarray, p: dict, prefix: str) -> np.ndarray:
    return o_linear(o_gelu(o_linear(x, p, f"{prefix}.in")), p, f"{prefix}.out")


def o_extract_patches(frames: np.ndarray, patch: int) -> np.ndarray:
    """(T, S, S, C) -> (T, N, C*patch*patch) by explicit grid slicing."""
    t, side, _, c = frames.shape
    grid = side // patch
    out = np.zeros((t, grid * grid, c * patch * patch))
    for ti in range(t):
        for row in range(grid):
            for col in range(grid):
                block = frames[ti, row * patch : (row + 1) * patch,
                               col * patch : (col + 1) * patch, :]
                out[ti, row * grid + col] = block.reshape(-1)
    return out


def o_embed_frames(patches: np.ndarray, p: dict) -> np.ndarray:
    t = patches.shape[0]
    proj = patches @ p["video.patch_proj"]
    d = proj.shape[-1]
    z = np.zeros((t, proj.shape[1] + 1, d))
    for ti in range(t):
        z[ti, 0] = p["video.class_token"]
        z[ti, 1:] = proj[ti]
    return z + p["video.pos"]


def o_cct_layer(z: np.ndarray, p: dict, index: int, n_heads: int) -> np.ndarray:
    pf = f"video.cct.{index}"
    t, n_plus_1, d = z.shape

    msgs = o_linear(z[:, 0], p, f"{pf}.msg")
    normed = o_layernorm(msgs, p, f"{pf}.ln_msg")
    msgs = msgs + o_attention(normed, normed, p, f"{pf}.cfa", n_heads)

    out = np.zeros_like(z)
    for ti in range(t):
        tokens = np.vstack([z[ti], msgs[ti][None, :]])
        normed_t = o_layernorm(tokens, p, f"{pf}.ln_attn")
        attended = tokens + o_attention(normed_t, normed_t, p, f"{pf}.ifa", n_heads)
        out[ti] = attended[:n_plus_1]

    return out + o_ffn(o_layernorm(out, p, f"{pf}.ln_ffn"), p, f"{pf}.ffn")


def o_mit_pool(h: np.ndarray, p: dict, n_layers: int, n_heads: int) -> np.ndarray:
    x = h + p["video.mit.temp"]
    for i in range(n_layers):
        pf = f"video.mit.{i}"
        normed = o_layernorm(x, p, f"{pf}.ln_attn")
        x = x + o_attention(normed, normed, p, f"{pf}.attn", n_heads)
        x = x + o_ffn(o_layernorm(x, p, f"{pf}.ln_ffn"), p, f"{pf}.ffn")
    return x.mean(axis=0)


def o_encode_video(clip: np.ndarray, p: dict, patch: int, n_cct: int,
                   n_mit: int, n_heads: int) -> np.ndarray:
    patches = o_extract_patches(np.asarray(clip, dtype=np.float64), patch)
    z = o_embed_frames(patches, p)
    for i in range(n_cct):
        z = o_cct_layer(z, p, i, n_heads)
    return o_mit_pool(z[:, 0], p, n_mit, n_heads)


def o_encode_text(tokens, p: dict, n_layers: int, n_heads: int) -> np.ndarray:
    ids = list(tokens)
    x = p["text.tok_embed"][ids] + p["text.pos"]
    for i in range(n_layers):
        pf = f"text.layers.{i}"
        normed = o_layernorm(x, p, f"{pf}.ln_attn")
        x = x + o_attention(normed, normed, p, f"{pf}.attn", n_heads)
        x = x + o_ffn(o_layernorm(x, p, f"{pf}.ln_ffn"), p, f"{pf}.ffn")
    eos_pos = ids.index(EOS_ID)
    return x[eos_pos] @ p["text.proj"]


def o_video_prompt(c: np.ndarray, v: np.ndarray, p: dict, n_blocks: int,
                   n_heads: int, alpha: float) -> np.ndarray:
    """Prompting blocks on one class row c.

    Each block's attention has the single key/value token v: every head's
    softmax runs over one score and is exactly 1, so the attention output
    is the projected value out(V(v)) and ``n_heads`` cannot matter.
    """
    x = c[None, :]
    kv = v[None, :]
    for i in range(n_blocks):
        pf = f"prompt.blocks.{i}"
        x = x + o_linear(o_linear(kv, p, f"{pf}.attn.v"), p, f"{pf}.attn.out")
        x = x + o_ffn(x, p, f"{pf}.ffn")
    return c + alpha * x[0]


def o_cosine(a: np.ndarray, b: np.ndarray) -> float:
    dot = float(np.sum(a * b))
    na2 = float(np.sum(a * a)) + COS_EPS
    nb2 = float(np.sum(b * b)) + COS_EPS
    return dot * (na2 * nb2) ** -0.5


def o_similarity_logits(v: np.ndarray, base_embeddings: np.ndarray, p: dict,
                        n_blocks: int, n_heads: int, alpha: float) -> np.ndarray:
    scale = float(p["head.logit_scale"])
    logits = np.zeros(base_embeddings.shape[0])
    for i, c in enumerate(base_embeddings):
        c_bar = o_video_prompt(c, v, p, n_blocks, n_heads, alpha)
        logits[i] = scale * o_cosine(v, c_bar)
    return logits
