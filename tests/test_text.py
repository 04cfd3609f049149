"""Tokenizer, prompt sets, text encoder oracle checks, and the prompt cache."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import oracle
from conftest import plain_f64, toy_model_config
from fragreel import textmodel
from fragreel.autodiff import Tensor
from fragreel.catalogue import GAME_EVENTS, EventLabel, GameId
from fragreel.detection import classify_session
from fragreel.errors import ConfigError, EmptyPromptSet, TooLong
from fragreel.params import CONTEXT_LENGTH, ModelParams
from fragreel.textmodel import (
    BOS,
    EOS,
    PAD,
    PromptCache,
    PromptSet,
    PromptTemplate,
    base_embeddings,
    classification_logits,
    classify,
    cosine,
    encode_text,
    load_catalogue,
    predict_label,
    prompt_set_for,
    tokenize,
    video_prompt,
)

TOL = 1e-10


class TestTokenizer:
    def test_simple_string(self):
        ids = tokenize("ab")
        assert ids[:4] == [BOS, 97, 98, EOS]
        assert ids[4:] == [PAD] * (CONTEXT_LENGTH - 4)
        assert len(ids) == CONTEXT_LENGTH

    def test_empty_string(self):
        ids = tokenize("")
        assert ids[:2] == [BOS, EOS]

    def test_utf8_bytes_not_codepoints(self):
        ids = tokenize("é")  # two UTF-8 bytes
        assert ids[:4] == [BOS, 0xC3, 0xA9, EOS]

    def test_longest_fitting_prompt(self):
        tokenize("x" * (CONTEXT_LENGTH - 2))  # exactly fills the context

    def test_one_byte_too_long_rejected(self):
        with pytest.raises(TooLong):
            tokenize("x" * (CONTEXT_LENGTH - 1))

    def test_eighty_character_prompt_rejected(self):
        with pytest.raises(TooLong):
            tokenize("y" * 80)


class TestPromptTemplates:
    def test_rendering_without_description(self):
        t = PromptTemplate(game="CSGO", event=EventLabel.KILL)
        assert t.rendered == "CSGO. kill."

    def test_rendering_with_description(self):
        t = PromptTemplate(game="OW2", event=EventLabel.POWER_USE,
                           description="an ability is activated")
        assert t.rendered == "OW2. power use. an ability is activated"

    def test_camel_case_labels_become_spaced_words(self):
        assert EventLabel.GRENADE_THROW.prompt_text == "grenade throw"
        assert EventLabel.KNOCKED_DOWN.prompt_text == "knocked down"
        assert EventLabel.BOMB_PLANTED.prompt_text == "bomb planted"

    def test_duplicate_labels_rejected(self):
        prompts = (
            PromptTemplate(game="CSGO", event=EventLabel.KILL),
            PromptTemplate(game="CSGO", event=EventLabel.KILL),
        )
        with pytest.raises(ConfigError):
            PromptSet(GameId.CSGO, prompts)

    def test_label_outside_game_rejected(self):
        prompts = (PromptTemplate(game="CSGO", event=EventLabel.POWER_USE),)
        with pytest.raises(ConfigError):
            PromptSet(GameId.CSGO, prompts)

    def test_index_of(self):
        ps = prompt_set_for(GameId.OW2)
        assert ps.labels[ps.index_of(EventLabel.DEATH)] is EventLabel.DEATH


class TestCatalogue:
    def test_packaged_catalogue_covers_all_games(self):
        catalogue = load_catalogue()
        assert set(catalogue) == set(GAME_EVENTS)
        for game, prompt_set in catalogue.items():
            assert set(prompt_set.labels) == set(GAME_EVENTS[game])

    def test_packaged_prompts_fit_context(self):
        for prompt_set in load_catalogue().values():
            for prompt in prompt_set.prompts:
                assert len(tokenize(prompt.rendered)) == CONTEXT_LENGTH

    def test_fallback_prompt_set_for_unknown_game(self):
        ps = prompt_set_for(GameId.UNKNOWN)
        assert set(ps.labels) == set(EventLabel)
        assert all(p.description == "" for p in ps.prompts)

    def test_catalogue_has_priority_over_fallback(self):
        catalogue = load_catalogue()
        assert prompt_set_for(GameId.OW2, catalogue) is catalogue[GameId.OW2]


@pytest.fixture()
def text_setup():
    cfg = toy_model_config()
    params = ModelParams.init(cfg, seed=7, dtype=np.float64)
    return cfg, params, plain_f64(params)


class TestTextEncoderOracle:
    def test_matches_oracle(self, text_setup):
        cfg, params, p = text_setup
        tokens = tokenize("CSGO. kill.")
        got = encode_text(tokens, params).data
        want = oracle.o_encode_text(tokens, p, n_layers=1, n_heads=2)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_eos_position_carries_the_sentence(self, text_setup):
        """Padding changes nothing upstream of the EOS hidden state only if
        attention ignores it; here attention is full, so two different
        sentences of equal length must still differ."""
        _, params, _ = text_setup
        a = encode_text(tokenize("aa"), params).data
        b = encode_text(tokenize("ab"), params).data
        assert not np.allclose(a, b)

    def test_rejects_bad_token_shapes(self, text_setup):
        _, params, _ = text_setup
        from fragreel.errors import ShapeMismatch
        with pytest.raises(ShapeMismatch):
            encode_text([BOS, 97, EOS], params)
        bad = tokenize("ok")
        bad[5] = 600
        with pytest.raises(ShapeMismatch):
            encode_text(bad, params)
        with pytest.raises(ShapeMismatch):
            encode_text(np.zeros((0, CONTEXT_LENGTH), dtype=int), params)
        with pytest.raises(ShapeMismatch):
            encode_text(np.zeros((2, 3, CONTEXT_LENGTH), dtype=int), params)
        no_eos = [PAD if t == EOS else t for t in tokenize("ok")]
        with pytest.raises(ShapeMismatch, match="EOS"):
            encode_text(np.array([tokenize("ok"), no_eos]), params)


class TestVideoPromptOracle:
    def test_matches_oracle(self, text_setup):
        cfg, params, p = text_setup
        rng = np.random.default_rng(5)
        c = rng.normal(size=8)
        v = rng.normal(size=8)
        got = video_prompt(Tensor(c), Tensor(v), params).data
        want = oracle.o_video_prompt(c, v, p, n_blocks=2, n_heads=2, alpha=0.1)
        np.testing.assert_allclose(got, want, atol=TOL)
        batch = rng.normal(size=(6, 8))  # K class rows conditioned at once
        got = video_prompt(Tensor(batch), Tensor(v), params).data
        assert got.shape == batch.shape
        for row, c_row in zip(got, batch):
            want = oracle.o_video_prompt(c_row, v, p, n_blocks=2, n_heads=2, alpha=0.1)
            np.testing.assert_allclose(row, want, atol=TOL)

    def test_blend_reduces_to_scaling_with_zeroed_blocks(self, text_setup):
        cfg, params, _ = text_setup
        for i in range(2):
            params[f"prompt.blocks.{i}.attn.out.w"].data[:] = 0.0
            params[f"prompt.blocks.{i}.ffn.out.w"].data[:] = 0.0
        c = np.arange(8.0)
        out = video_prompt(Tensor(c), Tensor(np.ones(8)), params).data
        np.testing.assert_allclose(out, 1.1 * c, atol=TOL)


class TestCosine:
    def test_bounds_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.normal(size=(2, 16)) * rng.uniform(0.01, 100)
            value = float(cosine(Tensor(a), Tensor(b)).data)
            assert -1.0 <= value <= 1.0

    def test_parallel_vectors_clamped_into_bounds(self):
        # the unclamped ratio lands one ulp past 1.0 for some of these
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=8) * rng.uniform(0.1, 10.0)
            up = float(cosine(Tensor(a), Tensor(a * 3.0)).data)
            down = float(cosine(Tensor(a), Tensor(a * -2.0)).data)
            assert -1.0 <= down <= up <= 1.0
            assert up == pytest.approx(1.0, abs=1e-12)
            assert down == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        value = float(cosine(Tensor(np.zeros(4)), Tensor(np.ones(4))).data)
        assert value == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 8))
        base = float(cosine(Tensor(a), Tensor(b)).data)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            scaled = float(cosine(Tensor(lam * a), Tensor(b)).data)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            float(cosine(Tensor(a), Tensor(b)).data), oracle.o_cosine(a, b), atol=TOL
        )


class TestClassification:
    def test_similarity_logits_match_oracle(self, text_setup):
        cfg, params, p = text_setup
        ps = prompt_set_for(GameId.OW2)
        v = np.random.default_rng(9).normal(size=8)
        got = classification_logits(Tensor(v), ps, params).data
        base = base_embeddings(ps, params)
        want = oracle.o_similarity_logits(v, base, p, n_blocks=2, n_heads=2, alpha=0.1)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_probabilities_sum_to_one(self, text_setup):
        _, params, _ = text_setup
        ps = prompt_set_for(GameId.CSGO)
        v = np.random.default_rng(3).normal(size=8)
        probs = classify(v, ps, params)
        assert [label for label, _ in probs] == list(ps.labels)
        np.testing.assert_allclose(sum(p for _, p in probs), 1.0, atol=1e-6)
        assert all(0.0 <= p <= 1.0 for _, p in probs)

    def test_empty_prompt_set_rejected(self, text_setup):
        _, params, _ = text_setup
        ps = PromptSet(GameId.OW2, ())
        with pytest.raises(EmptyPromptSet):
            classification_logits(Tensor(np.zeros(8)), ps, params)

    def test_predict_label_breaks_ties_by_first_index(self):
        probs = [(EventLabel.KILL, 0.4), (EventLabel.DEATH, 0.4), (EventLabel.BACKGROUND, 0.2)]
        assert predict_label(probs) == (EventLabel.KILL, 0.4)


class TestPromptCache:
    def test_encode_calls_independent_of_clip_count(self, text_setup):
        """10 clips and 100 clips cost the same number of text encodes."""
        _, params, _ = text_setup
        ps = prompt_set_for(GameId.OW2)
        rng = np.random.default_rng(0)
        counts = []
        for n_clips in (10, 100):
            cache = PromptCache()
            for _ in range(n_clips):
                classify(rng.normal(size=8), ps, params, cache)
            counts.append(cache.encode_calls)
        assert counts[0] == counts[1] == len(ps.prompts)

    def test_hit_and_miss_counters(self, text_setup):
        _, params, _ = text_setup
        ps = prompt_set_for(GameId.OW2)
        cache = PromptCache()
        base_embeddings(ps, params, cache)
        assert (cache.misses, cache.hits) == (1, 0)
        base_embeddings(ps, params, cache)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_keyed_by_prompt_set_content(self, text_setup):
        """Sets that differ only in a description are separate entries; an
        equal PromptSet built anew is a hit."""
        _, params, _ = text_setup
        a = PromptSet(GameId.OW2, (PromptTemplate("OW2", EventLabel.KILL),))
        b = PromptSet(GameId.OW2, (PromptTemplate("OW2", EventLabel.KILL, "desc"),))
        cache = PromptCache()
        rows_a = base_embeddings(a, params, cache)
        rows_b = base_embeddings(b, params, cache)
        assert (cache.misses, cache.hits) == (2, 0)
        assert not np.array_equal(rows_a, rows_b)
        again = PromptSet(GameId.OW2, (PromptTemplate("OW2", EventLabel.KILL),))
        assert again is not a
        assert base_embeddings(again, params, cache) is rows_a
        assert (cache.misses, cache.hits) == (2, 1)

    def test_cached_rows_are_read_only(self, text_setup):
        _, params, _ = text_setup
        ps = prompt_set_for(GameId.OW2)
        cache = PromptCache()
        rows = base_embeddings(ps, params, cache)
        again = base_embeddings(ps, params, cache)
        assert again is rows or again.base is rows
        with pytest.raises(ValueError):
            again[0, 0] = 1.0

    def test_concurrent_seconds_fill_once_then_drop_the_text_encoder(self, monkeypatch):
        """Many pool workers, with a short switch interval: the one fill
        runs once under the lock, its ``on_fill`` drops the text tensors
        while other workers read the video ones, and every second matches a
        serial run with the text encoder kept."""
        ps = prompt_set_for(GameId.OW2)
        rng = np.random.default_rng(3)
        clips = [rng.normal(size=(2, 4, 4, 3)).astype(np.float32) for _ in range(24)]
        expected = classify_session(clips, ps, ModelParams.init(toy_model_config(), seed=7),
                                    PromptCache())
        params = ModelParams.init(toy_model_config(), seed=7)
        fills = []
        cache = PromptCache(on_fill=lambda: fills.append(1) or params.drop("text_encoder"))
        start = threading.Barrier(8)

        class Together(list):
            """The first 8 seconds reach their workers at once."""

            def __getitem__(self, i):
                if i < 8:
                    start.wait(timeout=30)
                return super().__getitem__(i)

        encode = textmodel.encode_text

        def slow_encode(*args):  # the other workers reach the cache meanwhile
            time.sleep(0.05)
            return encode(*args)

        monkeypatch.setattr(textmodel, "encode_text", slow_encode)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = classify_session(Together(clips), ps, params, cache, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert fills == [1]
        assert cache.encode_calls == len(ps.prompts)
        assert params.names() and not [n for n in params.names() if n.startswith("text.")]
