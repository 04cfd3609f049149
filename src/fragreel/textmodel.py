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

import hashlib
import json
import threading
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Tensor, clip, concat, matmul, no_grad, power, reshape, softmax, sum_
from .catalogue import EventLabel, GameId, events_for, parse_game, parse_label
from .errors import (
    ConfigError,
    EmptyPromptSet,
    MalformedJson,
    ShapeMismatch,
    TooLong,
)
from .layers import ffn, layer_norm, linear, mhsa, qpass
from .params import CONTEXT_LENGTH, VOCAB_SIZE, ModelParams

BOS = 256
EOS = 257
PAD = 258

COSINE_EPS = 1e-30

# Column assignment for the optional linear head, stable across games.
GLOBAL_LABEL_INDEX = {label: i for i, label in enumerate(EventLabel)}


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


def prompt_set_for(
    game: GameId,
    catalogue: dict[GameId, PromptSet] | None = None,
    targets: tuple[EventLabel, ...] | None = None,
) -> PromptSet:
    """The prompt set to classify with for a game.

    Unknown games (or games absent from the catalogue) get description-free
    prompts generated from the template, covering ``targets`` plus
    Background (default: every label).
    """
    if catalogue is not None and game in catalogue:
        return catalogue[game]
    if targets is None:
        labels = tuple(events_for(game))
    else:
        labels = tuple(dict.fromkeys([*targets, EventLabel.BACKGROUND]))
    prompts = tuple(PromptTemplate(game=game.value, event=label) for label in labels)
    return PromptSet(game, prompts)


def encode_text(tokens, params: ModelParams, qctx=None) -> Tensor:
    """Token ids (length 77) -> base embedding c of width d."""
    cfg = params.config.text
    ids = np.asarray(tokens)
    if ids.shape != (CONTEXT_LENGTH,):
        raise ShapeMismatch(f"token sequence shape {ids.shape} != ({CONTEXT_LENGTH},)")
    if ids.min() < 0 or ids.max() >= VOCAB_SIZE:
        raise ShapeMismatch("token id out of range")
    x = params["text.tok_embed"][ids] + params["text.pos"]
    for i in range(cfg.n_layers):
        pf = f"text.layers.{i}"
        normed = layer_norm(x, params, f"{pf}.ln_attn")
        x = x + mhsa(normed, normed, params, f"{pf}.attn", cfg.n_heads, qctx)
        x = x + ffn(layer_norm(x, params, f"{pf}.ln_ffn"), params, f"{pf}.ffn", qctx)
    eos_pos = int(np.nonzero(ids == EOS)[0][0])
    state = reshape(x[eos_pos], (1, cfg.d_text))
    c = matmul(state, params["text.proj"])
    return reshape(c, (params.config.encoder.d_model,))


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
    """Base prompt embeddings keyed by prompt content and text version.

    ``fetch`` holds the lock across a miss, its fill and the insert, so each
    key is filled once. Hits return the stored array, so they are bit-identical.
    """

    def __init__(self):
        self._store: dict[str, np.ndarray] = {}
        self._lock = threading.RLock()  # reentrant: fetch calls lookup under it
        self.hits = 0
        self.misses = 0
        self.encode_calls = 0  # encode_text invocations made to fill the cache

    @staticmethod
    def fingerprint(prompt_set: PromptSet, text_version: int) -> str:
        digest = hashlib.sha256()
        digest.update(str(text_version).encode("ascii"))
        for prompt in prompt_set.prompts:
            digest.update(b"\x00")
            digest.update(prompt.rendered.encode("utf-8"))
        return digest.hexdigest()

    def lookup(self, key: str) -> np.ndarray | None:
        with self._lock:
            found = self._store.get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    def fetch(self, key: str, fill) -> np.ndarray:
        """The entry for ``key``, made by ``fill()`` on a miss and stored read-only."""
        with self._lock:
            found = self.lookup(key)
            if found is None:
                found = fill()
                found.setflags(write=False)
                self._store[key] = found
                self.encode_calls += len(found)  # one encode per prompt row
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
            return np.stack([encode_text(tokenize(p.rendered), params, qctx).data
                             for p in prompt_set.prompts])

    if cache is None:
        return encode()
    return cache.fetch(PromptCache.fingerprint(prompt_set, params.text_version), encode)


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
    head = params.config.head
    if head.kind == "linear":
        d = params.config.encoder.d_model
        row = matmul(reshape(v, (1, d)), params["head.linear.w"]) + params["head.linear.b"]
        full = reshape(row, (head.width,))
        cols = [GLOBAL_LABEL_INDEX[label] for label in prompt_set.labels]
        if max(cols) >= head.width:
            raise ConfigError(f"linear head width {head.width} too small for label set")
        return full[np.asarray(cols)]

    if text_grad:
        rows = [encode_text(tokenize(p.rendered), params, qctx) for p in prompt_set.prompts]
        c = concat([reshape(row, (1, row.shape[0])) for row in rows], axis=0)
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


def predict_label(probs: list[tuple[EventLabel, float]]) -> tuple[EventLabel, float]:
    """Argmax over a classify() result; first index wins ties."""
    best = max(range(len(probs)), key=lambda i: (probs[i][1], -i))
    return probs[best]
