"""The video encoder runs its per-frame work in tiles of frames.

Only cross-frame attention mixes frames. So under ``no_grad`` the patch
embedding, each full layer's intra-frame attention and FFN, and the keys of
the pruned last layer run ``videomodel.TILE_FRAMES`` frames at a time, while
the messages and every product on the T class rows run once over the clip.
The result must not depend on the tiles: the float64 encoder matches the
oracle below one tile and with a partial last tile, and calibration scales
and int8 outputs equal those of one tile that spans the clip. A full
layer's peak memory falls to about one tile's share.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from conftest import plain_f64, tracemalloc_peak
from fragreel import videomodel
from fragreel.autodiff import Tensor, no_grad
from fragreel.catalogue import GameId
from fragreel.detection import classify_second
from fragreel.layers import WHOLE
from fragreel.params import EncoderConfig, HeadConfig, ModelConfig, ModelParams, TextConfig
from fragreel.quantize import ActQuant, calibrate_activations, dequantize, quantize_tensor
from fragreel.textmodel import prompt_set_for
from fragreel.videomodel import cct_layer, encode_video, frame_tiles

TOL = 1e-10
SIDE, PATCH = 4, 2
N_TOKENS = (SIDE // PATCH) ** 2 + 1  # patches plus the class token


def config(t_frames: int, n_cct: int, side: int = SIDE, patch: int = PATCH, d: int = 8,
           d_ffn: int = 16) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(t_frames=t_frames, side=side, patch=patch, d_model=d, n_heads=2,
                              n_cct_layers=n_cct, n_mit_layers=1, d_ffn=d_ffn),
        text=TextConfig(d_text=d, n_heads=2, n_layers=1, d_ffn=d_ffn, prompt_heads=2),
        head=HeadConfig(),
    )


class PassThrough:
    """A context that changes no value and counts the rows of each call."""

    def __init__(self):
        self.calls: dict[str, list[int]] = {}

    def process(self, site: str, data: np.ndarray) -> np.ndarray:
        self.calls.setdefault(site, []).append(int(np.prod(data.shape[:-1])))
        return data


class AllRows(PassThrough):
    needs_all_rows = True


CONTEXTS = {"none": lambda: None, "pruned": PassThrough, "all_rows": AllRows}


def test_tiles_cover_the_frames_under_no_grad_only():
    assert videomodel.TILE_FRAMES == 4
    with no_grad():
        assert frame_tiles(4) == [WHOLE]
        assert frame_tiles(5) == [slice(0, 4), slice(4, 5)]
        assert frame_tiles(12) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    assert frame_tiles(12) == [WHOLE]  # one tile spans the clip under gradients


@pytest.mark.parametrize("context", sorted(CONTEXTS))
@pytest.mark.parametrize("n_cct", [0, 1, 3])
@pytest.mark.parametrize("t_frames", [2, 5, 6])
def test_float64_encoder_matches_the_oracle(t_frames, n_cct, context):
    params = ModelParams.init(config(t_frames, n_cct), seed=4, dtype=np.float64)
    clip = np.random.default_rng(t_frames).normal(size=(t_frames, SIDE, SIDE, 3))
    with no_grad():
        got = encode_video(clip, params, CONTEXTS[context]()).data
    want = oracle.o_encode_video(clip, plain_f64(params), patch=PATCH, n_cct=n_cct, n_mit=1,
                                 n_heads=2)
    np.testing.assert_allclose(got, want, atol=TOL)


@pytest.mark.parametrize("cls_only", [False, True], ids=["full", "pruned"])
def test_float64_layer_matches_the_oracle_across_tiles(cls_only):
    params = ModelParams.init(config(6, 2), seed=5, dtype=np.float64)
    z = np.random.default_rng(3).normal(size=(6, N_TOKENS, 8))
    with no_grad():
        got = cct_layer(Tensor(z), params, params.config.encoder, 1, cls_only=cls_only).data
    want = oracle.o_cct_layer(z, plain_f64(params), 1, 2)
    np.testing.assert_allclose(got, want[:, :1] if cls_only else want, atol=TOL)


def test_a_context_sees_per_frame_sites_once_per_tile():
    t = 6
    params = ModelParams.init(config(t, 2), seed=4, dtype=np.float64)
    ctx = PassThrough()
    with no_grad():
        encode_video(np.random.default_rng(1).normal(size=(t, SIDE, SIDE, 3)), params, ctx)
    per_frame = N_TOKENS + 1  # with the message token
    assert ctx.calls["video.patch_proj:in"] == [4 * (N_TOKENS - 1), 2 * (N_TOKENS - 1)]
    assert ctx.calls["video.cct.0.cfa.q:in"] == [t]  # messages: once over the clip
    assert ctx.calls["video.cct.0.ifa.q:in"] == [4 * per_frame, 2 * per_frame]
    assert ctx.calls["video.cct.0.ffn.in:in"] == [4 * N_TOKENS, 2 * N_TOKENS]
    # the pruned layer: queries, output and FFN once on the class rows, keys per tile
    assert ctx.calls["video.cct.1.ifa.q:in"] == [t]
    assert ctx.calls["video.cct.1.ifa.k:in"] == [4 * per_frame, 2 * per_frame]
    assert ctx.calls["video.cct.1.ifa.out:in"] == [t]
    assert ctx.calls["video.cct.1.ffn.in:in"] == [t]


def int8_model(params: ModelParams, scales: dict[str, float]) -> tuple[ModelParams, ActQuant]:
    """The params as ``load_quantized_model`` would give them back."""
    tensors = {name: Tensor(dequantize(*quantize_tensor(t.data)))
               for name, t in params.tensors.items()}
    return ModelParams(params.config, tensors), ActQuant(scales)


def test_calibration_and_int8_outputs_equal_one_whole_clip_tile(monkeypatch):
    t = 6  # a tile of 4 frames and one of 2
    params = ModelParams.init(config(t, 3, side=16, patch=4, d=32, d_ffn=64), seed=2)
    rng = np.random.default_rng(5)
    clips = [rng.uniform(-2, 2, size=(t, 16, 16, 3)).astype(np.float32) for _ in range(3)]
    prompt_set = prompt_set_for(GameId.CSGO)

    def run():
        with no_grad():
            scales = calibrate_activations(params, clips[:2], [prompt_set])
            model, ctx = int8_model(params, scales)
            embeddings = [encode_video(clip, model, ctx).data for clip in clips]
            probs = [classify_second(clip, prompt_set, model, qctx=ctx).probabilities
                     for clip in clips]
        return scales, embeddings, probs

    tiled = run()
    monkeypatch.setattr(videomodel, "TILE_FRAMES", t)
    whole = run()
    assert tiled[0] == whole[0]
    for got, want in zip(tiled[1], whole[1]):
        assert got.tobytes() == want.tobytes()
    assert tiled[2] == whole[2]


def test_full_layer_peak_is_about_one_tiles_share(monkeypatch):
    """16 frames of 65 tokens at width 64, float32: the output buffer plus
    the temporaries of 4 frames, against those of all 16 at once."""
    t = 16
    params = ModelParams.init(config(t, 1, side=32, patch=4, d=64, d_ffn=256), seed=0)
    cfg = params.config.encoder
    z = np.random.default_rng(0).normal(size=(t, cfg.n_patches + 1, 64))
    z = Tensor(z.astype(np.float32))

    def layer_peak():
        with no_grad():
            return tracemalloc_peak(lambda: cct_layer(z, params, cfg, 0))

    share = videomodel.TILE_FRAMES / t
    out, tiled = layer_peak()
    monkeypatch.setattr(videomodel, "TILE_FRAMES", t)
    whole_out, whole = layer_peak()
    assert out.data.tobytes() == whole_out.data.tobytes()
    assert tiled <= 1.25 * share * whole + out.data.nbytes, (tiled, whole)
