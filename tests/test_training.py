"""Finetuning behavior: schedule shape, optimizer math, freezing, overfit run."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    OVERFIT_TRAIN,
    Example,
    overfit_clips,
    read_clip,
    toy_model_config,
    tracemalloc_peak,
)

from fragreel import seeds, training
from fragreel.autodiff import no_grad
from fragreel.catalogue import EventLabel, GameId
from fragreel.checkpoint import load_checkpoint, save_checkpoint
from fragreel.detection import classify_second
from fragreel.errors import ConfigError, NonFiniteGradient
from fragreel.frames import ClipStore, PreprocessConfig, RawClip, write_rgbc
from fragreel.annotations import ClipRef
from fragreel.params import EncoderConfig, ModelParams
from fragreel.textmodel import PromptCache, base_embeddings, classify, prompt_set_for
from fragreel.training import (
    DEFAULT_FREEZE,
    OptimizerState,
    TrainConfig,
    adamw_step,
    cosine_lr,
    eval_records,
    evaluate,
    train,
)
from fragreel.videomodel import encode_video

SCALAR = "head.logit_scale"


def scalar_params(value: float) -> ModelParams:
    params = ModelParams.init(toy_model_config(), seed=0, dtype=np.float64)
    params[SCALAR].data[...] = value
    return params


class TestCosineSchedule:
    """Per-epoch learning rate follows a half cosine from lr_max to lr_min."""

    def test_endpoints_are_exact(self):
        cfg = TrainConfig(epochs=10, lr_max=1e-3, lr_min=8e-7)
        assert cosine_lr(0, cfg) == 1e-3
        assert cosine_lr(9, cfg) == 8e-7

    def test_single_epoch_runs_at_peak_rate(self):
        cfg = TrainConfig(epochs=1, lr_max=3e-4, lr_min=1e-9)
        assert cosine_lr(0, cfg) == 3e-4

    def test_midpoint_is_halfway(self):
        cfg = TrainConfig(epochs=3, lr_max=1e-3, lr_min=8e-7)
        mid = cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min)
        np.testing.assert_allclose(cosine_lr(1, cfg), mid, rtol=1e-12)

    def test_sequence_strictly_decreases(self):
        cfg = TrainConfig(epochs=10, lr_max=1e-3, lr_min=8e-7)
        rates = [cosine_lr(e, cfg) for e in range(10)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_half_span_crossed_between_middle_epochs(self):
        # epochs=10 puts the schedule midpoint between indices 4 and 5
        cfg = TrainConfig(epochs=10, lr_max=1e-3, lr_min=8e-7)
        half = cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min)
        assert cosine_lr(4, cfg) > half > cosine_lr(5, cfg)

    def test_epoch_outside_schedule_rejected(self):
        cfg = TrainConfig(epochs=5)
        with pytest.raises(ConfigError):
            cosine_lr(-1, cfg)
        with pytest.raises(ConfigError):
            cosine_lr(5, cfg)

    def test_inverted_rate_bounds_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_max=1e-5, lr_min=1e-3)


class TestAdamW:
    """Decoupled weight decay plus bias-corrected moment updates."""

    def test_zero_gradient_leaves_only_weight_decay(self):
        params = scalar_params(1.0)
        cfg = TrainConfig(weight_decay=8e-5)
        adamw_step(params, {SCALAR: np.array(0.0)}, OptimizerState(), 0.1, cfg)
        assert float(params[SCALAR].data) == 1.0 - 0.1 * (8e-5 * 1.0)

    def test_first_step_moves_by_about_the_learning_rate(self):
        # bias correction makes the very first update m_hat/sqrt(v_hat) ~= sign(g)
        params = scalar_params(0.0)
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(params, {SCALAR: np.array(1.0)}, OptimizerState(), 0.1, cfg)
        np.testing.assert_allclose(float(params[SCALAR].data), -0.1, rtol=1e-7)

    def test_moments_match_hand_computation(self):
        params = scalar_params(0.0)
        cfg = TrainConfig(weight_decay=0.0)
        state = OptimizerState()
        adamw_step(params, {SCALAR: np.array(1.0)}, state, 0.01, cfg)
        adamw_step(params, {SCALAR: np.array(-0.5)}, state, 0.01, cfg)
        m1 = (1 - cfg.beta1) * 1.0
        v1 = (1 - cfg.beta2) * 1.0
        m2 = cfg.beta1 * m1 + (1 - cfg.beta1) * -0.5
        v2 = cfg.beta2 * v1 + (1 - cfg.beta2) * 0.25
        assert state.step == 2
        np.testing.assert_allclose(float(state.m[SCALAR]), m2, rtol=1e-15)
        np.testing.assert_allclose(float(state.v[SCALAR]), v2, rtol=1e-15)

    def test_update_trajectory_matches_reference_loop(self):
        params = scalar_params(0.3)
        cfg = TrainConfig(weight_decay=8e-5)
        state = OptimizerState()
        gradients = [0.7, -1.3, 0.05]
        for g in gradients:
            adamw_step(params, {SCALAR: np.array(g)}, state, 0.02, cfg)

        theta, m, v = 0.3, 0.0, 0.0
        for t, g in enumerate(gradients, start=1):
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            theta -= 0.02 * (m_hat / (math.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * theta)
        np.testing.assert_allclose(float(params[SCALAR].data), theta, rtol=1e-12)

    def test_non_finite_gradient_rejected(self):
        params = scalar_params(0.0)
        with pytest.raises(NonFiniteGradient):
            adamw_step(params, {SCALAR: np.array(np.nan)}, OptimizerState(), 0.1, TrainConfig())

    def test_names_without_gradients_do_not_move(self):
        params = scalar_params(0.0)
        before = {n: params[n].data.tobytes() for n in params.names() if n != SCALAR}
        adamw_step(params, {SCALAR: np.array(1.0)}, OptimizerState(), 0.1, TrainConfig())
        for name, blob in before.items():
            assert params[name].data.tobytes() == blob


class TestFreezing:
    """Default training leaves the text side untouched bit for bit."""

    def frozen_names(self, params):
        return [n for n in params.names() if not n.startswith(("video.", "head."))]

    def test_frozen_tensors_bit_identical(self, overfit_run):
        initial, final = overfit_run["initial"], overfit_run["final"]
        names = self.frozen_names(initial)
        assert names
        for name in names:
            assert initial[name].data.tobytes() == final[name].data.tobytes()

    def test_trainable_groups_moved(self, overfit_run):
        initial, final = overfit_run["initial"], overfit_run["final"]
        moved = {
            name.split(".")[0]
            for name in initial.names()
            if initial[name].data.tobytes() != final[name].data.tobytes()
        }
        assert "video" in moved and "head" in moved


class TestFrozenGradients:
    """Frozen tensors need no gradient, so a training step computes none."""

    def test_default_freeze_step_skips_frozen_and_keeps_trainable_grads(self):
        examples = overfit_clips()[:1]
        params = ModelParams.init(toy_model_config(), seed=7)
        train(examples, [], read_clip, params, TrainConfig(epochs=1, batch_size=1, seed=3))
        frozen = [n for n in params.names() if n.startswith(("text.", "prompt."))]
        assert frozen
        for name in frozen:
            assert params[name].grad is None, name

        # the same step with every tensor trainable, as init leaves them
        everything = ModelParams.init(toy_model_config(), seed=7)
        prompt_sets = {GameId.OW2: prompt_set_for(GameId.OW2)}
        loss, _ = training._batch_loss(examples, read_clip, everything, prompt_sets,
                                       PromptCache(), False)
        loss.backward()
        trainable = params.trainable_names(DEFAULT_FREEZE)
        assert all(everything[n].grad is not None for n in frozen if n.startswith("prompt."))
        for name in trainable:
            assert params[name].grad.tobytes() == everything[name].grad.tobytes(), name


class TestTrainingMemory:
    """A step's graph is freed by its backward, so step k + 1's forward does
    not run while step k's graph is still held."""

    def test_two_steps_peak_near_one_forward_graph(self):
        # 8 frames of 256 patches: the FFN hidden activations are 2 MB each
        cfg = replace(toy_model_config(), encoder=EncoderConfig(
            t_frames=8, side=64, patch=4, d_model=32, n_heads=2,
            n_cct_layers=2, n_mit_layers=1, d_ffn=128,
        ))
        rng = np.random.default_rng(0)
        examples = [
            Example(rng.normal(size=(8, 64, 64, 3)).astype(np.float32), GameId.OW2, label)
            for label in (EventLabel.KILL, EventLabel.DEATH)
        ]
        prompt_sets = {GameId.OW2: prompt_set_for(GameId.OW2)}

        params = ModelParams.init(cfg, seed=7)
        trainable = set(params.trainable_names(DEFAULT_FREEZE))
        for name in params.names():
            params[name].requires_grad = name in trainable
        cache = PromptCache()
        base_embeddings(prompt_sets[GameId.OW2], params, cache)
        tracemalloc.start()
        try:
            loss, _ = training._batch_loss(examples[:1], read_clip, params, prompt_sets, cache,
                                           False)
            graph = tracemalloc.get_traced_memory()[0]
            del loss
        finally:
            tracemalloc.stop()

        params = ModelParams.init(cfg, seed=7)
        _, peak = tracemalloc_peak(
            lambda: train(examples, [], read_clip, params, TrainConfig(epochs=1, batch_size=1)))
        assert graph > 10e6
        assert peak <= 1.3 * graph, f"peak {peak / 1e6:.1f} MB, graph {graph / 1e6:.1f} MB"


class TestPromptCacheLifetime:
    def test_epoch_end_cache_holds_current_text_weights(self, monkeypatch):
        """With the text encoder trainable, the cache read by every epoch-end
        evaluation gives what a fresh encode of the current weights gives."""
        examples = overfit_clips()
        params = ModelParams.init(toy_model_config(), seed=7)
        prompt_set = prompt_set_for(GameId.OW2)
        served_and_fresh = []
        real_evaluate = training.evaluate

        def checked_evaluate(refs, read, params, catalogue=None, cache=None, jobs=1):
            score = real_evaluate(refs, read, params, catalogue, cache, jobs)
            served_and_fresh.append(
                (base_embeddings(prompt_set, params, cache), base_embeddings(prompt_set, params))
            )
            return score

        monkeypatch.setattr(training, "evaluate", checked_evaluate)
        cfg = TrainConfig(epochs=3, batch_size=4, lr_max=2e-2, lr_min=2e-3, seed=3,
                          freeze={"prompting_module"})
        train(examples[:6], examples[6:], read_clip, params, cfg)
        assert len(served_and_fresh) == cfg.epochs
        for served, fresh in served_and_fresh:
            np.testing.assert_array_equal(served, fresh)
        # the text weights moved between epochs, so a stale entry would show
        assert not np.array_equal(served_and_fresh[0][1], served_and_fresh[-1][1])


class TestOverfitRun:
    """A toy model memorizes eight synthetic clips inside the epoch budget."""

    def test_reaches_perfect_train_accuracy(self, overfit_run):
        accs = [h["train_acc"] for h in overfit_run["history"]]
        assert max(accs) == 1.0

    def test_best_parameters_classify_every_example(self, overfit_run):
        score = evaluate(overfit_run["examples"], read_clip, overfit_run["best"])
        assert score == 1.0

    def test_history_follows_cosine_schedule(self, overfit_run):
        history = overfit_run["history"]
        assert len(history) == OVERFIT_TRAIN.epochs
        for i, record in enumerate(history):
            assert record["epoch"] == i
            assert record["lr"] == cosine_lr(i, OVERFIT_TRAIN)
            assert record["val_acc"] is None

    def test_history_file_mirrors_records(self, overfit_run):
        lines = overfit_run["history_path"].read_text().splitlines()
        assert [json.loads(line) for line in lines] == overfit_run["history"]

    def test_checkpoint_writes_strictly_improve(self, overfit_run):
        metrics = [h["train_acc"] for h in overfit_run["history"] if h["checkpoint_written"]]
        assert metrics
        assert all(a < b for a, b in zip(metrics, metrics[1:]))

    def test_checkpoint_file_holds_best_parameters(self, overfit_run):
        """The file holds the weights as the last improving epoch left them."""
        loaded, header = load_checkpoint(overfit_run["checkpoint"])
        written = [h for h in overfit_run["history"] if h["checkpoint_written"]]
        best_epoch = written[-1]["epoch"]
        assert best_epoch < OVERFIT_TRAIN.epochs - 1  # so the last epoch's weights differ
        snapshot = overfit_run["epoch_end"][best_epoch]
        assert sorted(snapshot) == loaded.names()
        for name in loaded.names():
            assert loaded[name].data.tobytes() == snapshot[name]
        assert header["epoch"] == best_epoch
        assert header["val_accuracy"] is None


class TestFirstEpochDescent:
    """Each early optimizer step lowers the loss on the batch it came from."""

    def test_steps_reduce_their_own_batch_loss(self):
        examples = overfit_clips()
        prompt_set = prompt_set_for(examples[0].game)
        params = ModelParams.init(toy_model_config(), seed=7)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_max=2e-2, lr_min=2e-2, seed=3)
        order = seeds.stream(cfg.seed, "train", "shuffle", "0").permutation(len(examples))
        batches = [[examples[i]] for i in order]

        def batch_loss(batch):
            with no_grad():
                total = 0.0
                for ex in batch:
                    probs = dict(classify(encode_video(ex.clip, params).data, prompt_set, params))
                    total += -math.log(probs[ex.label])
                return total / len(batch)

        outcomes = []

        def on_step(epoch, step, pre_loss):
            outcomes.append(batch_loss(batches[step]) < pre_loss)

        train(examples, [], read_clip, params, cfg, on_step=on_step)
        assert len(outcomes) == len(examples)
        assert sum(outcomes) / len(outcomes) >= 0.8


class TestRunDeterminism:
    """Identical seeds reproduce the trajectory; different seeds diverge."""

    def short_cfg(self, seed):
        return TrainConfig(epochs=3, batch_size=4, lr_max=5e-3, lr_min=5e-4, seed=seed)

    def test_same_seeds_reproduce_history_and_weights(self):
        examples = overfit_clips()
        runs = []
        for _ in range(2):
            params = ModelParams.init(toy_model_config(), seed=7)
            history = train(examples, [], read_clip, params, self.short_cfg(11))
            runs.append((params, history))
        (first, hist_a), (second, hist_b) = runs
        assert hist_a == hist_b
        for name in first.names():
            assert first[name].data.tobytes() == second[name].data.tobytes()

    def test_shuffle_seed_changes_trajectory(self):
        examples = overfit_clips()
        histories = []
        for seed in (11, 12):
            params = ModelParams.init(toy_model_config(), seed=7)
            history = train(examples, [], read_clip, params, self.short_cfg(seed))
            histories.append(history)
        assert histories[0] != histories[1]


class TestTrainFromLoadedCheckpoint:
    """A loaded checkpoint's read-only tensors train like in-memory ones."""

    def test_trains_copies_and_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "init.xckp"
        save_checkpoint(path, ModelParams.init(toy_model_config(), seed=7), 0, None)
        before = path.read_bytes()
        cfg = TrainConfig(epochs=2, batch_size=4, lr_max=5e-3, lr_min=5e-4, seed=11)
        loaded, _ = load_checkpoint(path)
        fresh = ModelParams.init(toy_model_config(), seed=7)
        assert (train(overfit_clips(), [], read_clip, loaded, cfg)
                == train(overfit_clips(), [], read_clip, fresh, cfg))
        assert path.read_bytes() == before
        trainable = set(loaded.trainable_names(cfg.freeze))
        for name in loaded.names():
            assert loaded[name].data.tobytes() == fresh[name].data.tobytes()
            # frozen tensors stay the mapped views; trained ones became copies
            assert loaded[name].data.flags.writeable == (name in trainable)


class TestValidationMetric:
    """Validation accuracy drives checkpointing when a split is provided."""

    def test_empty_evaluation_returns_none(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        assert evaluate([], read_clip, params) is None

    def test_validation_accuracy_recorded_and_checkpointed(self, tmp_path):
        examples = overfit_clips()
        params = ModelParams.init(toy_model_config(), seed=7)
        cfg = TrainConfig(epochs=3, batch_size=4, lr_max=5e-3, lr_min=5e-4, seed=3)
        ckpt = tmp_path / "model.xckp"
        history = train(examples, examples[:4], read_clip, params, cfg, checkpoint_path=ckpt)
        assert all(record["val_acc"] is not None for record in history)
        written = [h for h in history if h["checkpoint_written"]]
        assert written
        _, header = load_checkpoint(ckpt)
        assert header["epoch"] == written[-1]["epoch"]
        assert header["val_accuracy"] == written[-1]["val_acc"]

    def test_empty_training_set_rejected(self):
        params = ModelParams.init(toy_model_config(), seed=0)
        with pytest.raises(ConfigError):
            train([], [], read_clip, params, TrainConfig())


class TestEvalRecords:
    """Manifest entries are read where they are classified, on a thread
    pool, into one record each in entry order."""

    def make_store(self, tmp_path, count=5):
        rng = np.random.default_rng(42)
        folder = tmp_path / GameId.CSGO.value
        folder.mkdir(parents=True)
        from fractions import Fraction

        for i in range(count):
            frames = rng.integers(0, 256, size=(8, 6, 6, 3), dtype=np.uint8)
            clip = RawClip(frames=frames, fps=Fraction(4))
            (folder / f"clip{i}.rgbc").write_bytes(write_rgbc(clip))
        return ClipStore(data_root=tmp_path, preprocess=PreprocessConfig(t_frames=2, side=4))

    def test_output_matches_entry_order(self, tmp_path):
        store = self.make_store(tmp_path)
        labels = [
            EventLabel.KILL,
            EventLabel.DEATH,
            EventLabel.BACKGROUND,
            EventLabel.KILL,
            EventLabel.RELOAD,
        ]
        entries = [
            ClipRef(f"clip{i}.rgbc", 0.5 + i * 0.25, labels[i], GameId.CSGO, "train")
            for i in range(5)
        ]
        params = ModelParams.init(toy_model_config(), seed=7)
        out = eval_records(entries, store.clip, params, jobs=4)
        assert len(out) == 5
        prompt_set = prompt_set_for(GameId.CSGO)
        for entry, record in zip(entries, out):
            assert record.true_label == entry.label
            assert record.game == entry.game
            expected = classify_second(store.clip(entry), prompt_set, params)
            assert record.probabilities == expected.probabilities

    def test_jobs_1_and_2_agree(self, tmp_path):
        store = self.make_store(tmp_path, count=3)
        entries = [
            ClipRef(f"clip{i}.rgbc", 1.0, EventLabel.KILL, GameId.CSGO, "train") for i in range(3)
        ]
        params = ModelParams.init(toy_model_config(), seed=7)
        pooled = eval_records(entries, store.clip, params, jobs=2)
        assert pooled == eval_records(entries, store.clip, params, jobs=1)
