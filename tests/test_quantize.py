"""INT8 quantization: value mapping, bounds, calibration, end-to-end model."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import overfit_clips, toy_model_config
from fragreel.catalogue import GameId
from fragreel.checkpoint import (
    MAGIC_FP32,
    MAGIC_QUANT,
    payload_bytes,
    save_checkpoint,
)
from fragreel.errors import DataError, NonFiniteInput
from fragreel.params import ModelParams
from fragreel.quantize import (
    ActQuant,
    ActRecorder,
    QMAX,
    calibrate_activations,
    dequantize,
    fake_quant,
    load_quantized_model,
    quantize_model,
    quantize_tensor,
)
from fragreel.textmodel import PromptCache, classify, predict_label, prompt_set_for
from fragreel.videomodel import encode_video


class TestQuantizeTensor:
    def test_worked_example(self):
        """{-0.5, 0.25} maps to scale 0.5/127 and levels {-127, 64}."""
        q, qp = quantize_tensor(np.array([-0.5, 0.25]))
        assert qp.scale == 0.5 / 127
        assert qp.zero_point == 0
        np.testing.assert_array_equal(q, np.array([-127, 64], dtype=np.int8))

    def test_round_trip_bound(self):
        """|x - dq(q(x))| <= scale/2 everywhere, for many random tensors."""
        rng = np.random.default_rng(0)
        for trial in range(50):
            x = rng.normal(size=rng.integers(1, 200)) * rng.uniform(1e-3, 1e3)
            q, qp = quantize_tensor(x)
            back = q.astype(np.float64) * qp.scale
            assert np.max(np.abs(x - back)) <= qp.scale / 2 + 1e-15

    def test_extremes_hit_full_range(self):
        q, qp = quantize_tensor(np.array([-3.0, 3.0]))
        np.testing.assert_array_equal(q, [-127, 127])

    def test_all_zero_tensor_gets_unit_scale(self):
        q, qp = quantize_tensor(np.zeros(5))
        assert qp.scale == 1.0
        assert np.all(q == 0)

    def test_half_to_even_rounding(self):
        # With scale 1, values at exact halves round to the even level.
        x = np.array([0.5, 1.5, 2.5, -0.5, 127.0])
        q, qp = quantize_tensor(x)
        assert qp.scale == 1.0
        np.testing.assert_array_equal(q, [0, 2, 2, 0, 127])

    def test_quantization_is_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        q, qp = quantize_tensor(x)
        back = dequantize(q, qp)
        q2, qp2 = quantize_tensor(back)
        # Requantizing an already-quantized tensor changes nothing.
        np.testing.assert_array_equal(q, q2)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            quantize_tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteInput):
            quantize_tensor(np.array([np.inf]))

    def test_dequantize_dtype(self):
        q, qp = quantize_tensor(np.array([0.1, -0.2]))
        assert dequantize(q, qp).dtype == np.float32


class TestFakeQuant:
    def test_preserves_dtype_and_bounds(self):
        x = np.random.default_rng(2).normal(size=32).astype(np.float32)
        scale = float(np.max(np.abs(x))) / QMAX
        out = fake_quant(x, scale)
        assert out.dtype == np.float32
        assert np.max(np.abs(x - out)) <= scale / 2 + 1e-6

    def test_clamps_outliers(self):
        out = fake_quant(np.array([10.0]), scale=0.01)
        np.testing.assert_allclose(out, [1.27])


class TestActivationContexts:
    def test_recorder_takes_running_max(self):
        rec = ActRecorder()
        rec.process("s", np.array([1.0, -2.0]))
        rec.process("s", np.array([0.5]))
        rec.process("s", np.array([-4.0]))
        assert rec.max_abs["s"] == 4.0
        assert rec.scales()["s"] == 4.0 / QMAX

    def test_recorder_registers_silent_sites(self):
        rec = ActRecorder()
        rec.process("quiet", np.zeros(3))
        assert rec.scales()["quiet"] == 1.0

    def test_recorder_returns_data_unchanged(self):
        rec = ActRecorder()
        x = np.ones(3)
        assert rec.process("s", x) is x

    def test_actquant_fake_quantizes(self):
        ctx = ActQuant({"s": 0.1})
        out = ctx.process("s", np.array([0.26]))
        np.testing.assert_allclose(out, [0.3], atol=1e-12)

    def test_actquant_rejects_unknown_site(self):
        ctx = ActQuant({})
        with pytest.raises(DataError):
            ctx.process("never-seen", np.ones(2))


class TestCalibration:
    def test_sites_cover_all_matmul_inputs(self):
        params = ModelParams.init(toy_model_config(), seed=7)
        clip = overfit_clips()[0].clip
        ps = prompt_set_for(GameId.OW2)
        scales = calibrate_activations(params, [clip], [ps])
        sites = set(scales)
        assert "video.patch_proj:in" in sites
        attention = (".q:in", ".k:in", ".v:in", ".out:in", ".qk:a", ".qk:b", ".av:a", ".av:b")
        for prefix in ("video.cct.0.cfa", "video.cct.0.ifa", "video.mit.0.attn",
                       "text.layers.0.attn"):
            for suffix in attention:
                assert prefix + suffix in sites, prefix + suffix
        # the prompting attention has one key: only the value path reaches a matmul
        kept = (".v:in", ".av:b", ".out:in")
        for prefix in ("prompt.blocks.0.attn", "prompt.blocks.1.attn"):
            for suffix in attention:
                assert (prefix + suffix in sites) == (suffix in kept), prefix + suffix
        for prefix in ("video.cct.0.ffn", "video.mit.0.ffn", "text.layers.0.ffn",
                       "prompt.blocks.0.ffn"):
            assert prefix + ".in:in" in sites
            assert prefix + ".out:in" in sites
        assert "video.cct.0.msg:in" in sites
        assert all(scale > 0 for scale in scales.values())

    def test_empty_calibration_set_rejected(self):
        params = ModelParams.init(toy_model_config(), seed=7)
        with pytest.raises(DataError):
            calibrate_activations(params, [], [prompt_set_for(GameId.OW2)])


class TestQuantizedModel:
    @pytest.fixture()
    def quantized(self, tmp_path, overfit_run):
        # export the end-of-schedule weights, the artifact one would ship
        fp32_path = tmp_path / "model.xckp"
        quant_path = tmp_path / "model.xckq"
        save_checkpoint(fp32_path, overfit_run["final"], epoch=0, val_accuracy=None)
        clips = [ex.clip for ex in overfit_run["examples"]]
        quantize_model(fp32_path, quant_path, clips, [prompt_set_for(GameId.OW2)])
        return fp32_path, quant_path

    def test_payload_ratio_at_most_30_percent(self, quantized):
        fp32_path, quant_path = quantized
        ratio = payload_bytes(quant_path, MAGIC_QUANT) / payload_bytes(fp32_path, MAGIC_FP32)
        assert ratio <= 0.30

    def test_weight_reconstruction_error_bounded(self, quantized, overfit_run):
        _, quant_path = quantized
        loaded, _ = load_quantized_model(quant_path)
        final = overfit_run["final"]
        for name in final.names():
            original = final[name].data
            max_abs = float(np.max(np.abs(original)))
            scale = max_abs / QMAX if max_abs > 0 else 1.0
            err = float(np.max(np.abs(original - loaded[name].data)))
            assert err <= scale / 2 + 1e-6, name

    def test_text_version_bumped(self, quantized, overfit_run):
        _, quant_path = quantized
        loaded, _ = load_quantized_model(quant_path)
        assert loaded.text_version == overfit_run["final"].text_version + 1

    def test_argmax_agreement_on_training_clips(self, quantized, overfit_run):
        _, quant_path = quantized
        qparams, qctx = load_quantized_model(quant_path)
        fp32 = overfit_run["final"]
        ps = prompt_set_for(GameId.OW2)
        cache_fp, cache_q = PromptCache(), PromptCache()
        agree = 0
        examples = overfit_run["examples"]
        for ex in examples:
            v_fp = encode_video(ex.clip, fp32)
            v_q = encode_video(ex.clip, qparams, qctx=qctx)
            pred_fp = predict_label(classify(v_fp.data, ps, fp32, cache_fp))
            pred_q = predict_label(classify(v_q.data, ps, qparams, cache_q, qctx=qctx))
            agree += pred_fp[0] == pred_q[0]
        assert agree / len(examples) >= 0.9
