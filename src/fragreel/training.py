"""Finetuning: cross-entropy over classification outputs, AdamW, cosine LR.

The text encoder and prompting blocks are frozen by default; their tensors
still participate in the forward graph, but their gradients are discarded
and the optimizer never touches them. The learning rate decays per epoch on
a cosine from lr_max to lr_min. After every epoch the test split is scored
and a checkpoint is written whenever validation accuracy strictly improves
(train accuracy stands in when the validation split is empty).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .autodiff import concat, log_softmax, mean, no_grad, reshape
from .catalogue import EventLabel, GameId
from .errors import ConfigError, NonFiniteGradient
from .checkpoint import save_checkpoint
from .metrics import EvalRecord, accuracy
from .params import ModelParams
from .textmodel import PromptCache, classification_logits, classify, prompt_set_for
from .videomodel import encode_video

DEFAULT_FREEZE = frozenset({"text_encoder", "prompting_module"})


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 4
    lr_max: float = 1e-3
    lr_min: float = 8e-7
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 8e-5
    seed: int = 0
    freeze: frozenset = field(default_factory=lambda: DEFAULT_FREEZE)
    workers: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr_min > self.lr_max:
            raise ConfigError("lr_min must not exceed lr_max")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        object.__setattr__(self, "freeze", frozenset(self.freeze))


@dataclass(frozen=True)
class TrainExample:
    """One preprocessed clip with its game and event label."""

    clip: np.ndarray
    game: GameId
    label: EventLabel


def cosine_lr(epoch: int, cfg: TrainConfig) -> float:
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if cfg.epochs == 1:
        return cfg.lr_max
    span = cfg.lr_max - cfg.lr_min
    return cfg.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * epoch / (cfg.epochs - 1)))


class OptimizerState:
    """AdamW moments per parameter name plus the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One decoupled-weight-decay Adam update over the given gradients.

    Only names present in ``grads`` move; frozen tensors are untouched
    because the caller never collects gradients for them.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name in sorted(grads):
        g = np.asarray(grads[name])
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        theta = params[name].data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(theta)
            state.m[name] = m
            state.v[name] = np.zeros_like(theta)
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        theta -= (lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * theta)).astype(
            theta.dtype, copy=False
        )


def _prompt_sets_for(examples, catalogue):
    games = sorted({ex.game for ex in examples}, key=lambda g: g.value)
    return {game: prompt_set_for(game, catalogue) for game in games}


def _batch_loss(batch, params, prompt_sets, cache, text_grad):
    """Mean cross-entropy over a batch; also counts argmax hits."""
    losses = []
    correct = 0
    for ex in batch:
        v = encode_video(ex.clip, params)
        prompt_set = prompt_sets[ex.game]
        logits = classification_logits(
            v, prompt_set, params, cache=None if text_grad else cache, text_grad=text_grad
        )
        log_probs = log_softmax(logits)
        idx = prompt_set.index_of(ex.label)
        losses.append(reshape(-log_probs[idx], (1,)))
        if int(np.argmax(log_probs.data)) == idx:
            correct += 1
    return mean(concat(losses, axis=0)), correct


def eval_records(examples, params: ModelParams, catalogue=None, cache=None,
                 qctx=None) -> list[EvalRecord]:
    """Classify every example; one record of its probabilities each."""
    prompt_sets = _prompt_sets_for(examples, catalogue)
    records = []
    with no_grad():
        for ex in examples:
            v = encode_video(ex.clip, params, qctx)
            probs = classify(v, prompt_sets[ex.game], params, cache, qctx)
            records.append(
                EvalRecord(true_label=ex.label, probabilities=tuple(probs), game=ex.game)
            )
    return records


def evaluate(examples, params: ModelParams, catalogue=None, cache=None) -> float | None:
    """Argmax accuracy over examples; None when the list is empty."""
    if not examples:
        return None
    return accuracy(eval_records(examples, params, catalogue, cache))


def train(
    train_set: list[TrainExample],
    val_set: list[TrainExample],
    params: ModelParams,
    cfg: TrainConfig,
    catalogue=None,
    checkpoint_path=None,
    history_path=None,
    on_step=None,
) -> tuple[ModelParams, list[dict]]:
    """Finetune in place; return the best parameters and per-epoch history.

    Checkpoints are written to ``checkpoint_path`` when the monitored
    accuracy strictly improves, so the saved accuracy sequence is strictly
    increasing. ``on_step(epoch, step, loss)`` observes per-batch losses.
    """
    if not train_set:
        raise ConfigError("training set is empty")
    text_grad = "text_encoder" not in cfg.freeze
    prompt_sets = _prompt_sets_for([*train_set, *val_set], catalogue)
    cache = PromptCache()
    trainable = set(params.trainable_names(cfg.freeze))
    state = OptimizerState()
    best_metric = -math.inf
    best_params = None
    history: list[dict] = []

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg)
        order = seeds.stream(cfg.seed, "train", "shuffle", str(epoch)).permutation(len(train_set))
        loss_sum = 0.0
        seen = 0
        correct = 0
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            params.zero_grads()
            loss, hits = _batch_loss(batch, params, prompt_sets, cache, text_grad)
            loss.backward()
            grads = {}
            for name in trainable:
                tensor = params[name]
                grads[name] = (
                    tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
                )
            adamw_step(params, grads, state, lr, cfg)
            batch_loss = float(loss.data)
            if on_step is not None:
                on_step(epoch, step, batch_loss)
            loss_sum += batch_loss * len(batch)
            seen += len(batch)
            correct += hits
        if text_grad:
            # text weights moved this epoch: cached embeddings are stale
            params.bump_text_version()
        train_loss = loss_sum / seen
        train_acc = correct / seen
        val_acc = evaluate(val_set, params, catalogue, cache)
        metric = val_acc if val_acc is not None else train_acc
        wrote = False
        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, params, epoch, val_acc)
            wrote = checkpoint_path is not None
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": train_loss,
            "train_acc": train_acc,
            "val_acc": val_acc,
            "checkpoint_written": wrote,
        }
        history.append(record)
        if history_path is not None:
            with open(history_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return best_params if best_params is not None else params, history


def materialize_examples(manifest_entries, store, cfg: TrainConfig) -> list[TrainExample]:
    """Resolve manifest entries to preprocessed clip tensors.

    Decoding runs on a small thread pool (cfg.workers); output order matches
    the input entries regardless of completion order.
    """

    def load(entry):
        tensor = store.clip_tensor(entry)
        return TrainExample(clip=tensor.data, game=entry.game, label=entry.label)

    with ThreadPoolExecutor(max_workers=max(1, cfg.workers)) as pool:
        return list(pool.map(load, manifest_entries))
