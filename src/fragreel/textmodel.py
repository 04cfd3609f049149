"""Text side: byte tokenizer, text encoder, prompting blocks, classifier.

Prompts render as "Game. event. description" and are tokenized at the byte
level (ids 0..255), wrapped in BOS/EOS and padded to a fixed context of 77.
The encoder is a small pre-norm transformer over the token sequence; the
hidden state at the EOS position, projected to the shared width d, is the
base class embedding c.

Per clip, two residual blocks condition each c on the video embedding v,
x += a_i then x += ffn_i(x) from x = c, and c_bar = c + alpha * x. X-CLIP
makes a_i cross-attention from c to v; v is the only key, and a softmax over
one key is exactly 1, so a_i is the closed form out_i(V_i(v)): no query or
key projections, computed once per clip for all K classes. Class
probabilities are the softmax of logit_scale * cos(v, c_bar_i) in prompt
order. Base embeddings are cached per prompt set, not recomputed per clip.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Tensor, clip, matmul, no_grad, power, reshape, softmax, sum_
from .catalogue import EventLabel, GameId, events_for, parse_game, parse_label
from .errors import (
    ConfigError,
    EmptyPromptSet,
    MalformedJson,
    ShapeMismatch,
    TooLong,
)
from .layers import block, ffn, linear, prunes_rows, qpass
from .params import CONTEXT_LENGTH, VOCAB_SIZE, ModelParams

BOS = 256
EOS = 257
PAD = 258

COSINE_EPS = 1e-30


def tokenize(text: str) -> list[int]:
    """Byte-level ids wrapped in BOS/EOS, PAD-filled to the context length."""
    raw = text.encode("utf-8")
    if len(raw) + 2 > CONTEXT_LENGTH:
        raise TooLong(f"prompt needs {len(raw) + 2} tokens, limit {CONTEXT_LENGTH}")
    ids = [BOS, *raw, EOS]
    ids.extend([PAD] * (CONTEXT_LENGTH - len(ids)))
    return ids


@dataclass(frozen=True)
class PromptTemplate:
    game: str
    event: EventLabel
    description: str = ""

    @property
    def rendered(self) -> str:
        base = f"{self.game}. {self.event.prompt_text}."
        if self.description:
            return f"{base} {self.description}"
        return base


@dataclass(frozen=True)
class PromptSet:
    """Ordered prompts for one game; the order defines class indices."""

    game: GameId
    prompts: tuple[PromptTemplate, ...]

    def __post_init__(self):
        labels = [p.event for p in self.prompts]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate labels in prompt set for {self.game.value}")
        allowed = events_for(self.game)
        for label in labels:
            if label not in allowed:
                raise ConfigError(f"label {label.value} not valid for game {self.game.value}")

    @property
    def labels(self) -> tuple[EventLabel, ...]:
        return tuple(p.event for p in self.prompts)

    def index_of(self, label: EventLabel) -> int:
        return self.labels.index(label)


def load_catalogue(path=None) -> dict[GameId, PromptSet]:
    """Load {game, event, description} records into per-game prompt sets.

    Without a path the built-in catalogue ships with the package. Record
    order within a game is preserved and defines class indices.
    """
    if path is None:
        text = resources.files("fragreel").joinpath("data/prompt_catalogue.json").read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"prompt catalogue: {exc}") from exc
    if not isinstance(records, list):
        raise MalformedJson("prompt catalogue must be a JSON list")
    by_game: dict[GameId, list[PromptTemplate]] = {}
    for rec in records:
        try:
            game = parse_game(rec["game"])
            event = parse_label(rec["event"], game)
            desc = rec.get("description", "")
        except (KeyError, TypeError) as exc:
            raise MalformedJson(f"bad prompt record {rec!r}") from exc
        template = PromptTemplate(game=game.value, event=event, description=desc)
        tokenize(template.rendered)  # enforce the context cap at load time
        by_game.setdefault(game, []).append(template)
    return {game: PromptSet(game, tuple(items)) for game, items in by_game.items()}


def prompt_set_for(game: GameId, catalogue: dict[GameId, PromptSet] | None = None) -> PromptSet:
    """The prompt set to classify with for a game.

    Unknown games (or games absent from the catalogue) get description-free
    prompts generated from the template, one per label of the game.
    """
    if catalogue is not None and game in catalogue:
        return catalogue[game]
    prompts = tuple(PromptTemplate(game=game.value, event=label) for label in events_for(game))
    return PromptSet(game, prompts)


def encode_text(tokens, params: ModelParams, qctx=None) -> Tensor:
    """Token ids (77,) or (K, 77) -> base embeddings c, (d,) or (K, d).

    The K prompts run as one batch. Only each prompt's EOS row of the last
    layer is read, so that layer computes only those rows (unless the
    quantization context needs every row). Those rows still attend over the
    whole context, so the result is exact; without a context they do so
    without projecting the keys and values (``layers.mhsa``).
    """
    cfg = params.config.text
    ids = np.asarray(tokens)
    if ids.ndim not in (1, 2) or ids.shape[-1] != CONTEXT_LENGTH or ids.size == 0:
        raise ShapeMismatch(f"token ids shape {ids.shape} is not (77,) or (K, 77), K > 0")
    if ids.min() < 0 or ids.max() >= VOCAB_SIZE:
        raise ShapeMismatch("token id out of range")
    batch = ids.reshape(-1, CONTEXT_LENGTH)
    is_eos = batch == EOS
    if not is_eos.any(axis=1).all():
        raise ShapeMismatch("token sequence has no EOS")
    k = batch.shape[0]
    eos_rows = (np.arange(k)[:, None], is_eos.argmax(axis=1)[:, None])  # first EOS, (K, 1)

    x = params["text.tok_embed"][batch] + params["text.pos"]  # (K, 77, d_text)
    pruned = cfg.n_layers - 1 if prunes_rows(qctx) else -1  # -1: no layer is pruned
    for i in range(cfg.n_layers):
        x = block(x, params, f"text.layers.{i}", cfg.n_heads, qctx,
                  rows=eos_rows if i == pruned else None)
    if pruned < 0:
        x = x[eos_rows]
    c = matmul(reshape(x, (k, cfg.d_text)), params["text.proj"])
    return c if ids.ndim == 2 else reshape(c, (params.config.encoder.d_model,))


def prompt_ids(prompt_set: PromptSet) -> np.ndarray:
    """Token ids (K, 77) of a prompt set's rendered prompts, in prompt order."""
    return np.array([tokenize(p.rendered) for p in prompt_set.prompts])


def video_prompt(c: Tensor, v: Tensor, params: ModelParams, qctx=None) -> Tensor:
    """c_bar = c + alpha*x for one class row c (d,) or a batch (K, d)."""
    cfg = params.config.text
    d = params.config.encoder.d_model
    if c.data.ndim not in (1, 2) or c.shape[-1] != d or v.shape != (d,):
        raise ShapeMismatch(f"prompting expects width {d}, got {c.shape} and {v.shape}")
    x = reshape(c, (-1, d))
    kv = reshape(v, (1, d))
    for i in range(cfg.prompt_blocks):
        pf = f"prompt.blocks.{i}"
        values = qpass(qctx, f"{pf}.attn.av:b", linear(kv, params, f"{pf}.attn.v", qctx))
        x = x + linear(values, params, f"{pf}.attn.out", qctx)
        x = x + ffn(x, params, f"{pf}.ffn", qctx)
    return c + reshape(x, c.shape) * cfg.alpha


class PromptCache:
    """Base prompt embeddings of one set of text weights, keyed by PromptSet.

    A cache stands for the text weights it was filled from: a caller that
    changes them starts a new cache. It may outlive them by design:
    ``on_fill``, when given, runs after each fill, and ``detect`` and
    ``bench``, which classify with one prompt set, pass one that drops the
    text encoder, so every later read of the text side is a hit. ``fetch``
    holds the lock across a miss, its fill, the insert and ``on_fill``, so
    each key is filled once. Hits return the stored array, so they are
    bit-identical.
    """

    def __init__(self, on_fill=None):
        self._store: dict[PromptSet, np.ndarray] = {}
        self._lock = threading.RLock()  # reentrant: fetch calls lookup under it
        self._on_fill = on_fill
        self.hits = 0
        self.misses = 0
        self.encode_calls = 0  # prompt rows encoded to fill the cache

    def lookup(self, key: PromptSet) -> np.ndarray | None:
        with self._lock:
            found = self._store.get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    def fetch(self, key: PromptSet, fill) -> np.ndarray:
        """The entry for ``key``, made by ``fill()`` on a miss and stored read-only."""
        with self._lock:
            found = self.lookup(key)
            if found is None:
                found = fill()
                found.setflags(write=False)
                self._store[key] = found
                self.encode_calls += len(found)
                if self._on_fill is not None:
                    self._on_fill()
            return found


def base_embeddings(
    prompt_set: PromptSet,
    params: ModelParams,
    cache: PromptCache | None = None,
    qctx=None,
) -> np.ndarray:
    """Stacked base embeddings (K, d) for a prompt set, cache-aware."""
    if not prompt_set.prompts:
        raise EmptyPromptSet(f"no prompts for game {prompt_set.game.value}")

    def encode() -> np.ndarray:
        with no_grad():
            return encode_text(prompt_ids(prompt_set), params, qctx).data

    if cache is None:
        return encode()
    return cache.fetch(prompt_set, encode)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """cos(a, b) over the last axis, with a tiny additive floor so zero vectors yield 0.

    Clamped to [-1, 1]: rounding can push parallel vectors one ulp past 1.
    """
    dot = sum_(a * b, axis=-1)
    na2 = sum_(a * a, axis=-1) + COSINE_EPS
    nb2 = sum_(b * b, axis=-1) + COSINE_EPS
    return clip(dot * power(na2 * nb2, -0.5), -1.0, 1.0)


def classification_logits(
    v: Tensor,
    prompt_set: PromptSet,
    params: ModelParams,
    cache: PromptCache | None = None,
    qctx=None,
    text_grad: bool = False,
) -> Tensor:
    """Per-class logits (K,) in prompt order for one video embedding."""
    if not prompt_set.prompts:
        raise EmptyPromptSet(f"no prompts for game {prompt_set.game.value}")
    if text_grad:
        c = encode_text(prompt_ids(prompt_set), params, qctx)
    else:
        c = Tensor(base_embeddings(prompt_set, params, cache, qctx))
    c_bar = video_prompt(c, v, params, qctx)
    return cosine(v, c_bar) * params["head.logit_scale"]


def classify(
    v,
    prompt_set: PromptSet,
    params: ModelParams,
    cache: PromptCache | None = None,
    qctx=None,
) -> list[tuple[EventLabel, float]]:
    """Class probabilities for one clip embedding, in prompt-set order."""
    if not isinstance(v, Tensor):
        v = Tensor(np.asarray(v))
    with no_grad():
        logits = classification_logits(v, prompt_set, params, cache, qctx)
        probs = softmax(logits).data
    return [(label, float(p)) for label, p in zip(prompt_set.labels, probs)]


def first_highest(items, key):
    """The first of the items with the highest ``key``: the one selection
    rule, for labels, windows and cuts alike. (``max`` keeps the first.)"""
    return max(items, key=key)


def predict_label(probs: list[tuple[EventLabel, float]]) -> tuple[EventLabel, float]:
    """Argmax over a classify() result; first index wins ties."""
    return first_highest(probs, key=lambda item: item[1])
