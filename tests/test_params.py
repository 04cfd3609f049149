"""Parameter naming, grouping, counting, and deterministic initialization."""

from __future__ import annotations

import numpy as np
import pytest

from fragreel.errors import ConfigError
from fragreel.params import (
    CONTEXT_LENGTH,
    VOCAB_SIZE,
    EncoderConfig,
    HeadConfig,
    ModelConfig,
    ModelParams,
    TextConfig,
    group_of,
    param_count,
    param_specs,
)

from conftest import toy_model_config


class TestConfigValidation:
    def test_side_must_divide_by_patch(self):
        with pytest.raises(ConfigError):
            EncoderConfig(side=225, patch=16)

    def test_width_must_divide_by_heads(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d_model=10, n_heads=3)

    def test_head_kind_restricted(self):
        with pytest.raises(ConfigError):
            HeadConfig(kind="mlp")

    def test_config_dict_round_trip(self):
        cfg = toy_model_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestParamSpecs:
    def test_every_name_maps_to_a_group(self):
        for spec in param_specs(toy_model_config()):
            assert group_of(spec.name) in {
                "video_encoder", "text_encoder", "prompting_module", "head",
            }

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ConfigError):
            group_of("adapter.w")

    def test_toy_counts_by_hand(self):
        cfg = toy_model_config()
        d = 8
        attn = 4 * (d * d + d)
        ln = 2 * d
        ffn = d * 16 + 16 + 16 * d + d
        video = (
            12 * d            # patch projection (2*2*3 inputs)
            + d               # class token
            + 5 * d           # positional table, 4 patches + class
            + (d * d + d) + ln + attn + ln + attn + ln + ffn  # one comm layer
            + 2 * d           # temporal position table
            + ln + attn + ln + ffn  # one pooling layer
        )
        text = (
            VOCAB_SIZE * d + CONTEXT_LENGTH * d
            + ln + attn + ln + ffn
            + d * d           # projection to shared width
        )
        prompt_attn = 2 * (d * d + d)  # value and output projections only
        prompt_ffn = d * 32 + 32 + 32 * d + d
        prompt = 2 * (prompt_attn + prompt_ffn)
        assert param_count(cfg, "video_encoder") == video
        assert param_count(cfg, "text_encoder") == text
        assert param_count(cfg, "prompting_module") == prompt
        assert param_count(cfg, "head") == 1
        assert param_count(cfg) == video + text + prompt + 1

    def test_linear_head_adds_tensors(self):
        cfg = toy_model_config(head_kind="linear")
        names = {s.name for s in param_specs(cfg)}
        assert "head.linear.w" in names and "head.linear.b" in names
        assert param_count(cfg, "head") == 1 + 8 * 8 + 8

    def test_full_scale_video_encoder_size(self):
        """The default video encoder lands near the published 131.5M figure."""
        count = param_count(ModelConfig(), "video_encoder")
        assert abs(count - 131.5e6) / 131.5e6 < 0.10


class TestInit:
    def test_init_is_deterministic(self):
        cfg = toy_model_config()
        a = ModelParams.init(cfg, seed=0)
        b = ModelParams.init(cfg, seed=0)
        for name in a.names():
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seed_changes_weights(self):
        cfg = toy_model_config()
        a = ModelParams.init(cfg, seed=0)
        b = ModelParams.init(cfg, seed=1)
        assert not np.array_equal(a["video.patch_proj"].data, b["video.patch_proj"].data)

    def test_per_name_streams_are_stable_across_configs(self):
        """Deepening the stack must not disturb existing tensors' values."""
        shallow = toy_model_config()
        deep = ModelConfig(
            encoder=EncoderConfig(
                t_frames=2, side=4, patch=2, d_model=8, n_heads=2,
                n_cct_layers=2, n_mit_layers=1, d_ffn=16,
            ),
            text=shallow.text,
            head=shallow.head,
        )
        a = ModelParams.init(shallow, seed=3)
        b = ModelParams.init(deep, seed=3)
        np.testing.assert_array_equal(
            a["video.cct.0.cfa.q.w"].data, b["video.cct.0.cfa.q.w"].data
        )

    def test_init_values_by_kind(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        assert np.all(params["video.pos"].data == 0.0)
        assert np.all(params["video.cct.0.ln_attn.g"].data == 1.0)
        assert np.all(params["video.cct.0.cfa.q.b"].data == 0.0)
        assert float(params["head.logit_scale"].data) == 100.0
        weights = params["text.tok_embed"].data
        assert abs(float(weights.std()) - 0.02) < 0.005

    def test_default_dtype_is_float32(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        assert all(params[n].dtype == np.float32 for n in params.names())

    def test_float64_init(self):
        params = ModelParams.init(toy_model_config(), seed=0, dtype=np.float64)
        assert params["video.patch_proj"].dtype == np.float64


class TestModelParams:
    def test_trainable_names_respects_freeze(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        names = params.trainable_names(frozenset({"text_encoder", "prompting_module"}))
        assert names
        assert all(n.startswith(("video.", "head.")) for n in names)

    def test_copy_is_independent(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        dup = params.copy()
        dup["video.class_token"].data[:] = 9.0
        assert not np.array_equal(params["video.class_token"].data, dup["video.class_token"].data)

    def test_astype_converts_everything(self):
        params = ModelParams.init(toy_model_config(), seed=0).astype(np.float64)
        assert all(params[n].dtype == np.float64 for n in params.names())

    def test_bump_text_version(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        assert params.text_version == 0
        params.bump_text_version()
        assert params.text_version == 1

    def test_zero_grads_clears(self):
        from fragreel.autodiff import sum_
        params = ModelParams.init(toy_model_config(), seed=0)
        sum_(params["video.class_token"] * 2.0).backward()
        assert params["video.class_token"].grad is not None
        params.zero_grads()
        assert params["video.class_token"].grad is None
