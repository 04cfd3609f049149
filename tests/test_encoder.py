"""Video encoder against the independent float64 oracle, stage by stage.

Every block must agree with the straight-line reference to 1e-10; the
composed encoder must as well. Structural identities (zeroed output
projections turn residual blocks into the identity) guard the wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from conftest import plain_f64, toy_model_config
from fragreel.autodiff import Tensor, gelu
from fragreel.errors import ShapeMismatch
from fragreel.layers import ffn, layer_norm, linear, mhsa
from fragreel.params import ModelParams
from fragreel.videomodel import (
    cct_layer,
    embed_frames,
    encode_video,
    extract_patches,
    mit_pool,
)

TOL = 1e-10


@pytest.fixture()
def setup():
    cfg = toy_model_config()
    params = ModelParams.init(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(11)
    clip = rng.normal(size=(2, 4, 4, 3))
    return cfg, params, plain_f64(params), rng, clip


class TestBuildingBlocks:
    def test_linear_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        x = rng.normal(size=(3, 8))
        got = linear(Tensor(x), params, "video.cct.0.msg").data
        np.testing.assert_allclose(got, oracle.o_linear(x, p, "video.cct.0.msg"), atol=TOL)

    def test_layernorm_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        x = rng.normal(size=(4, 8)) * 3.0
        got = layer_norm(Tensor(x), params, "video.cct.0.ln_attn").data
        np.testing.assert_allclose(
            got, oracle.o_layernorm(x, p, "video.cct.0.ln_attn"), atol=TOL
        )

    def test_gelu_matches_oracle(self, setup):
        _, _, _, rng, _ = setup
        x = rng.normal(size=(5, 7)) * 2.0
        np.testing.assert_allclose(gelu(Tensor(x)).data, oracle.o_gelu(x), atol=TOL)

    def test_attention_matches_oracle_2d(self, setup):
        cfg, params, p, rng, _ = setup
        x = rng.normal(size=(5, 8))
        got = mhsa(Tensor(x), Tensor(x), params, "video.cct.0.cfa", 2).data
        np.testing.assert_allclose(
            got, oracle.o_attention(x, x, p, "video.cct.0.cfa", 2), atol=TOL
        )

    def test_attention_matches_oracle_batched(self, setup):
        cfg, params, p, rng, _ = setup
        x = rng.normal(size=(3, 5, 8))
        got = mhsa(Tensor(x), Tensor(x), params, "video.cct.0.ifa", 2).data
        for t in range(3):
            np.testing.assert_allclose(
                got[t], oracle.o_attention(x[t], x[t], p, "video.cct.0.ifa", 2), atol=TOL
            )

    def test_cross_attention_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        q = rng.normal(size=(2, 8))
        kv = rng.normal(size=(3, 8))
        got = mhsa(Tensor(q), Tensor(kv), params, "video.mit.0.attn", 2).data
        np.testing.assert_allclose(
            got, oracle.o_attention(q, kv, p, "video.mit.0.attn", 2), atol=TOL
        )

    def test_ffn_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        x = rng.normal(size=(6, 8))
        got = ffn(Tensor(x), params, "video.cct.0.ffn").data
        np.testing.assert_allclose(got, oracle.o_ffn(x, p, "video.cct.0.ffn"), atol=TOL)


class TestEncoderStages:
    def test_patch_extraction_matches_oracle(self, setup):
        *_, rng, clip = setup
        got = extract_patches(clip, 2)
        np.testing.assert_allclose(got, oracle.o_extract_patches(clip, 2), atol=TOL)

    def test_patch_extraction_grid_order(self):
        # Pixel values encode (row, col); patch i must cover the grid cell
        # at (i // grid, i % grid).
        side, patch = 4, 2
        frame = np.arange(side * side).reshape(1, side, side, 1)
        frame = np.repeat(frame, 3, axis=3).astype(np.float64)
        patches = extract_patches(frame, patch)
        assert patches.shape == (1, 4, 12)
        np.testing.assert_array_equal(patches[0, 0, :2], [0.0, 0.0])  # top-left pixel
        np.testing.assert_array_equal(patches[0, 1][::3], [2.0, 3.0, 6.0, 7.0])
        np.testing.assert_array_equal(patches[0, 2][::3], [8.0, 9.0, 12.0, 13.0])

    def test_embedding_matches_oracle(self, setup):
        cfg, params, p, rng, clip = setup
        patches = extract_patches(clip, cfg.encoder.patch)
        got = embed_frames(Tensor(patches), params, cfg.encoder).data
        np.testing.assert_allclose(got, oracle.o_embed_frames(patches, p), atol=TOL)

    def test_comm_layer_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        z = rng.normal(size=(2, 5, 8))
        got = cct_layer(Tensor(z), params, cfg.encoder, 0).data
        np.testing.assert_allclose(got, oracle.o_cct_layer(z, p, 0, 2), atol=TOL)

    def test_temporal_pool_matches_oracle(self, setup):
        cfg, params, p, rng, _ = setup
        h = rng.normal(size=(2, 8))
        got = mit_pool(Tensor(h), params, cfg.encoder).data
        np.testing.assert_allclose(got, oracle.o_mit_pool(h, p, 1, 2), atol=TOL)

    def test_composed_encoder_matches_oracle(self, setup):
        cfg, params, p, _, clip = setup
        got = encode_video(clip, params).data
        want = oracle.o_encode_video(clip, p, patch=2, n_cct=1, n_mit=1, n_heads=2)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_composed_encoder_deeper_config(self):
        """Two comm layers and two pooling layers also match the oracle."""
        from fragreel.params import EncoderConfig, HeadConfig, ModelConfig, TextConfig
        cfg = ModelConfig(
            encoder=EncoderConfig(
                t_frames=3, side=4, patch=2, d_model=8, n_heads=2,
                n_cct_layers=2, n_mit_layers=2, d_ffn=16,
            ),
            text=TextConfig(d_text=8, n_heads=2, n_layers=1, d_ffn=16, prompt_heads=2),
            head=HeadConfig(),
        )
        params = ModelParams.init(cfg, seed=2, dtype=np.float64)
        clip = np.random.default_rng(3).normal(size=(3, 4, 4, 3))
        got = encode_video(clip, params).data
        want = oracle.o_encode_video(
            clip, plain_f64(params), patch=2, n_cct=2, n_mit=2, n_heads=2
        )
        np.testing.assert_allclose(got, want, atol=TOL)


class TestStructuralIdentities:
    def zero_out(self, params, names):
        for name in names:
            params[name].data[:] = 0.0

    def test_comm_layer_identity_with_zeroed_projections(self, setup):
        cfg, params, _, rng, _ = setup
        self.zero_out(params, [
            "video.cct.0.ifa.out.w", "video.cct.0.ffn.out.w",
        ])
        z = rng.normal(size=(2, 5, 8))
        out = cct_layer(Tensor(z), params, cfg.encoder, 0).data
        np.testing.assert_allclose(out, z, atol=TOL)

    def test_temporal_pool_reduces_to_mean(self, setup):
        cfg, params, _, rng, _ = setup
        self.zero_out(params, [
            "video.mit.0.attn.out.w", "video.mit.0.ffn.out.w",
        ])
        h = rng.normal(size=(2, 8))
        out = mit_pool(Tensor(h), params, cfg.encoder).data
        np.testing.assert_allclose(out, h.mean(axis=0), atol=TOL)  # temp table is zero-init

    def test_message_token_not_returned(self, setup):
        cfg, params, _, rng, _ = setup
        z = rng.normal(size=(2, 5, 8))
        out = cct_layer(Tensor(z), params, cfg.encoder, 0)
        assert out.shape == z.shape  # the appended message column is dropped


class TestShapeGuards:
    def test_wrong_clip_shape_rejected(self, setup):
        _, params, *_ = setup
        with pytest.raises(ShapeMismatch):
            encode_video(np.zeros((2, 4, 6, 3)), params)

    def test_wrong_patch_count_rejected(self, setup):
        cfg, params, *_ = setup
        with pytest.raises(ShapeMismatch):
            embed_frames(Tensor(np.zeros((2, 3, 12))), params, cfg.encoder)

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ShapeMismatch):
            extract_patches(np.zeros((1, 5, 5, 3)), 2)

    def test_temporal_pool_wrong_length_rejected(self, setup):
        cfg, params, *_ = setup
        with pytest.raises(ShapeMismatch):
            mit_pool(Tensor(np.zeros((3, 8))), params, cfg.encoder)
