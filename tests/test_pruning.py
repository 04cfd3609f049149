"""The last layer of each encoder computes only the rows its output reads.

The video encoder keeps only the class tokens of its last CCT layer, and the
text encoder only each prompt's EOS row of its last layer. Those rows attend
over every row, so the pruned encoders must match the unpruned float64
oracle to 1e-10 at any depth, their gradients must match finite
differences, and calibration, which asks for every row, must record the
same per-site maxima as a full unpruned pass. Without a quantization context
the pruned rows attend without projecting the keys and values at all
(``layers._attend_absorbed``); under one, keys and values are materialized.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from conftest import plain_f64
from fragreel import layers
from fragreel.autodiff import Tensor, log_softmax, no_grad, reshape, sum_
from fragreel.catalogue import GameId
from fragreel.detection import classify_second
from fragreel.errors import ShapeMismatch
from fragreel.layers import ffn, layer_norm, mhsa
from fragreel.params import EncoderConfig, HeadConfig, ModelConfig, ModelParams, TextConfig
from fragreel.quantize import ActRecorder, calibrate_activations
from fragreel.textmodel import (
    EOS,
    classification_logits,
    encode_text,
    prompt_set_for,
    tokenize,
    video_prompt,
)
from fragreel.videomodel import cct_layer, embed_frames, encode_video, extract_patches, mit_pool

TOL = 1e-10
T_FRAMES, SIDE, PATCH = 3, 4, 2
N_TOKENS = (SIDE // PATCH) ** 2 + 1  # patches plus the class token


def deep_config(n_cct: int, n_text: int) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(
            t_frames=T_FRAMES, side=SIDE, patch=PATCH, d_model=8, n_heads=2,
            n_cct_layers=n_cct, n_mit_layers=1, d_ffn=16,
        ),
        text=TextConfig(d_text=8, n_heads=2, n_layers=n_text, d_ffn=16, prompt_heads=2),
        head=HeadConfig(),
    )


def deep_params(n_cct: int = 3, n_text: int = 2, seed: int = 4) -> ModelParams:
    return ModelParams.init(deep_config(n_cct, n_text), seed=seed, dtype=np.float64)


def random_clip(seed: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(T_FRAMES, SIDE, SIDE, 3))


PROMPTS = ("CSGO. kill.", "a", "OW2. power use. an ultimate ability lights up the screen")


class RowCounter:
    """A quantization context that records how many rows each site sees,
    summed over its calls: the video encoder's per-frame sites see one call
    per tile of frames."""

    def __init__(self):
        self.rows: dict[str, int] = {}

    def process(self, site: str, data: np.ndarray) -> np.ndarray:
        self.rows[site] = self.rows.get(site, 0) + int(np.prod(data.shape[:-1]))
        return data


class AllRowCounter(RowCounter):
    needs_all_rows = True


class TestPrunedMatchesOracle:
    @pytest.mark.parametrize("n_cct", [0, 1, 3])
    def test_video_encoder(self, n_cct):
        params = deep_params(n_cct=n_cct)
        clip = random_clip()
        got = encode_video(clip, params).data
        want = oracle.o_encode_video(
            clip, plain_f64(params), patch=PATCH, n_cct=n_cct, n_mit=1, n_heads=2
        )
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_class_only_layer_keeps_the_class_rows(self):
        params = deep_params()
        z = np.random.default_rng(2).normal(size=(T_FRAMES, N_TOKENS, 8))
        cfg = params.config.encoder
        got = cct_layer(Tensor(z), params, cfg, 1, cls_only=True).data
        assert got.shape == (T_FRAMES, 1, 8)
        np.testing.assert_allclose(got, oracle.o_cct_layer(z, plain_f64(params), 1, 2)[:, :1],
                                   atol=TOL)

    @pytest.mark.parametrize("n_text", [0, 1, 2])
    def test_batched_text_encoder(self, n_text):
        params = deep_params(n_text=n_text)
        ids = np.array([tokenize(text) for text in PROMPTS])
        got = encode_text(ids, params).data
        assert got.shape == (len(PROMPTS), 8)
        for row, tokens in zip(got, ids):
            want = oracle.o_encode_text(tokens, plain_f64(params), n_layers=n_text, n_heads=2)
            np.testing.assert_allclose(row, want, atol=TOL)

    def test_batch_rows_equal_single_prompt_calls(self):
        params = deep_params()
        ids = np.array([tokenize(text) for text in PROMPTS])
        batched = encode_text(ids, params).data
        for row, tokens in zip(batched, ids):
            np.testing.assert_allclose(row, encode_text(tokens, params).data, atol=1e-14)


def assert_rows_close(got: np.ndarray, want: np.ndarray, rel: float = 1e-5) -> None:
    """Each embedding within ``rel`` of the other, relative to its norm."""
    err = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
    assert err.max() < rel, err.max()


class TestKeyFreeAttention:
    """A ``RowCounter`` context changes no value but forces the materialized
    keys and values, so it serves as the reference form."""

    def test_pruned_last_layers_project_no_keys_or_values(self, monkeypatch):
        params = deep_params()
        prefixes = []

        def spy(x, params, prefix, qctx=None):
            prefixes.append(prefix)
            return linear(x, params, prefix, qctx)

        linear = layers.linear
        monkeypatch.setattr(layers, "linear", spy)
        encode_video(random_clip(), params)
        encode_text(np.array([tokenize(text) for text in PROMPTS]), params)
        for last in ("video.cct.2.ifa", "text.layers.1.attn"):
            assert f"{last}.q" in prefixes and f"{last}.out" in prefixes
            assert f"{last}.k" not in prefixes and f"{last}.v" not in prefixes
        for full in ("video.cct.1.ifa", "video.cct.2.cfa", "text.layers.0.attn"):
            assert f"{full}.k" in prefixes and f"{full}.v" in prefixes

    def test_float32_matches_the_materialized_form(self):
        # one layer per encoder: GELU returns float64, so a second layer's
        # attention would not run in float32
        cfg = ModelConfig(
            encoder=EncoderConfig(t_frames=4, side=16, patch=4, d_model=64, n_heads=4,
                                  n_cct_layers=1, n_mit_layers=1, d_ffn=128),
            text=TextConfig(d_text=64, n_heads=4, n_layers=1, d_ffn=128, prompt_heads=4),
            head=HeadConfig(),
        )
        params = ModelParams.init(cfg, seed=3, dtype=np.float32)
        ids = np.array([tokenize(text) for text in PROMPTS])
        prompt_set = prompt_set_for(GameId.CSGO)
        normed = Tensor(np.random.default_rng(9).normal(size=(4, 18, 64)).astype(np.float32))
        with no_grad():
            attended = mhsa(normed[:, :1], normed, params, "video.cct.0.ifa", 4)
            assert attended.dtype == np.float32
            assert_rows_close(attended.data, mhsa(normed[:, :1], normed, params,
                                                  "video.cct.0.ifa", 4, RowCounter()).data)
            text = encode_text(ids, params).data
            assert_rows_close(text, encode_text(ids, params, RowCounter()).data)
            for seed in range(4):
                clip = np.random.default_rng(seed).uniform(-2, 2, size=(4, 16, 16, 3))
                clip = clip.astype(np.float32)
                v = encode_video(clip, params).data
                assert_rows_close(v, encode_video(clip, params, RowCounter()).data)
                key_free = classify_second(clip, prompt_set, params)
                materialized = classify_second(clip, prompt_set, params, qctx=RowCounter())
                assert key_free.label == materialized.label

    @pytest.mark.parametrize("n_text", [1, 2])
    def test_eos_at_the_last_position_matches_the_oracle(self, n_text):
        text = "CSGO. kill. " + "x" * 63
        assert len(text.encode()) == 75
        tokens = np.array(tokenize(text))
        assert tokens[76] == EOS
        params = deep_params(n_text=n_text)
        got = encode_text(tokens, params).data
        want = oracle.o_encode_text(tokens, plain_f64(params), n_layers=n_text, n_heads=2)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_gradients_equal_the_materialized_form(self):
        params = deep_params()
        rng = np.random.default_rng(8)
        x = rng.normal(size=(T_FRAMES, N_TOKENS + 1, 8))
        prefix = "video.cct.0.ifa"
        names = [f"{prefix}.{p}.{w}" for p in ("q", "k", "v", "out") for w in ("w", "b")]

        def grads(qctx):
            params.zero_grads()
            normed = Tensor(x, requires_grad=True)
            out = mhsa(normed[:, :1], normed, params, prefix, 2, qctx)
            sum_(out * Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))).backward()
            return [normed.grad] + [params[name].grad for name in names]

        for got, want in zip(grads(None), grads(RowCounter())):
            np.testing.assert_allclose(got, want, atol=TOL)

    def test_key_value_width_mismatch_names_the_prefix(self):
        params = deep_params()
        query = Tensor(np.ones((T_FRAMES, 1, 8)))
        key_value = Tensor(np.ones((T_FRAMES, N_TOKENS, 6)))
        with pytest.raises(ShapeMismatch, match=r"video\.cct\.0\.ifa\.k: input width 6 != 8"):
            mhsa(query, key_value, params, "video.cct.0.ifa", 2)


class TestRowsComputed:
    def test_inference_runs_the_last_layers_on_the_read_rows_only(self):
        params = deep_params()
        ctx = RowCounter()
        encode_video(random_clip(), params, qctx=ctx)
        encode_text(np.array([tokenize(text) for text in PROMPTS]), params, qctx=ctx)
        k = len(PROMPTS)
        assert ctx.rows["video.cct.2.ffn.in:in"] == T_FRAMES
        assert ctx.rows["video.cct.2.ifa.q:in"] == T_FRAMES
        assert ctx.rows["video.cct.2.ifa.k:in"] == T_FRAMES * (N_TOKENS + 1)
        assert ctx.rows["video.cct.1.ffn.in:in"] == T_FRAMES * N_TOKENS
        assert ctx.rows["text.layers.1.ffn.in:in"] == k
        assert ctx.rows["text.layers.1.attn.v:in"] == k * 77
        assert ctx.rows["text.layers.0.ffn.in:in"] == k * 77

    def test_a_context_that_needs_all_rows_sees_every_row(self):
        params = deep_params()
        ctx = AllRowCounter()
        v = encode_video(random_clip(), params, qctx=ctx).data
        ids = np.array([tokenize(text) for text in PROMPTS])
        c = encode_text(ids, params, qctx=ctx).data
        assert ctx.rows["video.cct.2.ffn.in:in"] == T_FRAMES * N_TOKENS
        assert ctx.rows["video.cct.2.ifa.q:in"] == T_FRAMES * (N_TOKENS + 1)
        assert ctx.rows["text.layers.1.ffn.in:in"] == len(PROMPTS) * 77
        np.testing.assert_allclose(v, encode_video(random_clip(), params).data, atol=TOL)
        np.testing.assert_allclose(c, encode_text(ids, params).data, atol=TOL)

    def test_calibration_context_needs_all_rows(self):
        assert ActRecorder.needs_all_rows


def unpruned_scales(params: ModelParams, clips, prompt_sets) -> dict[str, float]:
    """Calibration over a full pass that computes every row of every layer,
    one prompt at a time."""
    rec = ActRecorder()
    enc, txt = params.config.encoder, params.config.text
    for clip in clips:
        z = embed_frames(extract_patches(clip, enc.patch), params, enc, rec)
        for i in range(enc.n_cct_layers):
            z = cct_layer(z, params, enc, i, rec)
        v = mit_pool(z[:, 0], params, enc, rec)
        for prompt_set in prompt_sets:
            rows = []
            for prompt in prompt_set.prompts:
                ids = tokenize(prompt.rendered)
                x = params["text.tok_embed"][np.asarray(ids)] + params["text.pos"]
                for i in range(txt.n_layers):
                    pf = f"text.layers.{i}"
                    normed = layer_norm(x, params, f"{pf}.ln_attn")
                    x = x + mhsa(normed, normed, params, f"{pf}.attn", txt.n_heads, rec)
                    x = x + ffn(layer_norm(x, params, f"{pf}.ln_ffn"), params, f"{pf}.ffn", rec)
                rows.append(x.data[ids.index(EOS)] @ params["text.proj"].data)
            video_prompt(Tensor(np.stack(rows)), v, params, rec)
    return rec.scales()


def test_calibration_scales_equal_a_full_unpruned_pass():
    params = deep_params()
    clips = [random_clip(1), random_clip(2)]
    prompt_sets = [prompt_set_for(GameId.OW2), prompt_set_for(GameId.CSGO)]
    with no_grad():
        got = calibrate_activations(params, clips, prompt_sets)
        want = unpruned_scales(params, clips, prompt_sets)
    assert got.keys() == want.keys()
    for site in want:
        assert got[site] == pytest.approx(want[site], rel=1e-12, abs=0.0), site


def test_gradients_through_pruned_last_layers_match_finite_differences():
    """The tolerances of acceptance gate C04, at 2 CCT and 2 text layers."""
    params = deep_params(n_cct=2, n_text=2)
    ps = prompt_set_for(GameId.OW2)
    clip = random_clip()
    target = 1
    h = 1e-5

    def loss_value() -> float:
        with no_grad():
            v = encode_video(clip, params)
            log_probs = log_softmax(classification_logits(v, ps, params, text_grad=True))
        return float(-log_probs.data[target])

    params.zero_grads()
    v = encode_video(clip, params)
    log_probs = log_softmax(classification_logits(v, ps, params, text_grad=True))
    reshape(-log_probs[target], (1,)).backward()

    picker = np.random.default_rng(17)
    checked = [name for name in params.trainable_names(frozenset())
               if name.startswith(("video.cct.", "text."))]
    for name in checked:
        tensor = params[name]
        assert tensor.grad is not None, f"{name} missing from the backward graph"
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for j in picker.choice(flat.size, size=min(3, flat.size), replace=False):
            original = flat[j]
            flat[j] = original + h
            up = loss_value()
            flat[j] = original - h
            down = loss_value()
            flat[j] = original
            fd = (up - down) / (2.0 * h)
            rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-4)
            assert rel < 1e-4, f"{name}[{j}]: analytic {grad[j]:.6e} vs finite-diff {fd:.6e}"
