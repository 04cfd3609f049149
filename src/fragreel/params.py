"""Model configuration, parameter naming, initialization, and grouping.

Every learnable tensor has a dotted name whose first segment selects its
parameter group: ``video`` (the video encoder), ``text`` (the text encoder),
``prompt`` (the video-conditioned prompting blocks) and ``head`` (the
similarity temperature and the optional linear head). Freezing and
checkpointing address tensors by these names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import seeds
from .autodiff import Tensor
from .errors import ConfigError

INIT_STD = 0.02

VOCAB_SIZE = 259  # 256 byte values + BOS + EOS + PAD
CONTEXT_LENGTH = 77

GROUP_OF_PREFIX = {
    "video": "video_encoder",
    "text": "text_encoder",
    "prompt": "prompting_module",
    "head": "head",
}


@dataclass(frozen=True)
class EncoderConfig:
    t_frames: int = 32
    side: int = 224
    patch: int = 16
    d_model: int = 768
    n_heads: int = 12
    n_cct_layers: int = 12
    n_mit_layers: int = 1
    d_ffn: int = 3072

    def __post_init__(self):
        if self.side % self.patch != 0:
            raise ConfigError(f"side {self.side} not divisible by patch {self.patch}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def n_patches(self) -> int:
        return (self.side // self.patch) ** 2

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch * self.patch


@dataclass(frozen=True)
class TextConfig:
    d_text: int = 512
    n_heads: int = 8
    n_layers: int = 12
    d_ffn: int = 2048
    # Affects no output: the prompting blocks attend to a single key, so
    # there are no heads to split. Kept only because existing run configs
    # set it (perfbench's among them) and the loader rejects unknown keys;
    # its removal waits for a change to perfbench.
    prompt_heads: int = 8
    prompt_blocks: int = 2
    alpha: float = 0.1  # blend weight of the prompting residual

    def __post_init__(self):
        if self.d_text % self.n_heads != 0:
            raise ConfigError(f"d_text {self.d_text} not divisible by n_heads {self.n_heads}")


@dataclass(frozen=True)
class HeadConfig:
    kind: str = "similarity"  # "similarity" | "linear"
    width: int = 8
    logit_scale_init: float = 100.0

    def __post_init__(self):
        if self.kind not in ("similarity", "linear"):
            raise ConfigError(f"unknown head kind {self.kind!r}")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text: TextConfig = field(default_factory=TextConfig)
    head: HeadConfig = field(default_factory=HeadConfig)

    def to_dict(self) -> dict:
        return {
            "encoder": vars(self.encoder).copy(),
            "text": vars(self.text).copy(),
            "head": vars(self.head).copy(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(
            encoder=EncoderConfig(**payload["encoder"]),
            text=TextConfig(**payload["text"]),
            head=HeadConfig(**payload["head"]),
        )


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple[int, ...]
    init: str  # "gauss" | "zeros" | "ones" | "const:<value>"


def _attention_specs(prefix: str, d: int, parts=("q", "k", "v", "out")) -> Iterator[ParamSpec]:
    for part in parts:
        yield ParamSpec(f"{prefix}.{part}.w", (d, d), "gauss")
        yield ParamSpec(f"{prefix}.{part}.b", (d,), "zeros")


def _ffn_specs(prefix: str, d: int, hidden: int) -> Iterator[ParamSpec]:
    yield ParamSpec(f"{prefix}.in.w", (d, hidden), "gauss")
    yield ParamSpec(f"{prefix}.in.b", (hidden,), "zeros")
    yield ParamSpec(f"{prefix}.out.w", (hidden, d), "gauss")
    yield ParamSpec(f"{prefix}.out.b", (d,), "zeros")


def _ln_specs(prefix: str, d: int) -> Iterator[ParamSpec]:
    yield ParamSpec(f"{prefix}.g", (d,), "ones")
    yield ParamSpec(f"{prefix}.b", (d,), "zeros")


def param_specs(cfg: ModelConfig) -> list[ParamSpec]:
    enc, txt, head = cfg.encoder, cfg.text, cfg.head
    d = enc.d_model
    specs: list[ParamSpec] = []

    specs.append(ParamSpec("video.patch_proj", (enc.patch_dim, d), "gauss"))
    specs.append(ParamSpec("video.class_token", (d,), "gauss"))
    specs.append(ParamSpec("video.pos", (enc.n_patches + 1, d), "zeros"))
    for i in range(enc.n_cct_layers):
        pf = f"video.cct.{i}"
        specs.append(ParamSpec(f"{pf}.msg.w", (d, d), "gauss"))
        specs.append(ParamSpec(f"{pf}.msg.b", (d,), "zeros"))
        specs.extend(_ln_specs(f"{pf}.ln_msg", d))
        specs.extend(_attention_specs(f"{pf}.cfa", d))
        specs.extend(_ln_specs(f"{pf}.ln_attn", d))
        specs.extend(_attention_specs(f"{pf}.ifa", d))
        specs.extend(_ln_specs(f"{pf}.ln_ffn", d))
        specs.extend(_ffn_specs(f"{pf}.ffn", d, enc.d_ffn))
    specs.append(ParamSpec("video.mit.temp", (enc.t_frames, d), "zeros"))
    for i in range(enc.n_mit_layers):
        pf = f"video.mit.{i}"
        specs.extend(_ln_specs(f"{pf}.ln_attn", d))
        specs.extend(_attention_specs(f"{pf}.attn", d))
        specs.extend(_ln_specs(f"{pf}.ln_ffn", d))
        specs.extend(_ffn_specs(f"{pf}.ffn", d, enc.d_ffn))

    specs.append(ParamSpec("text.tok_embed", (VOCAB_SIZE, txt.d_text), "gauss"))
    specs.append(ParamSpec("text.pos", (CONTEXT_LENGTH, txt.d_text), "zeros"))
    for i in range(txt.n_layers):
        pf = f"text.layers.{i}"
        specs.extend(_ln_specs(f"{pf}.ln_attn", txt.d_text))
        specs.extend(_attention_specs(f"{pf}.attn", txt.d_text))
        specs.extend(_ln_specs(f"{pf}.ln_ffn", txt.d_text))
        specs.extend(_ffn_specs(f"{pf}.ffn", txt.d_text, txt.d_ffn))
    specs.append(ParamSpec("text.proj", (txt.d_text, d), "gauss"))

    for i in range(txt.prompt_blocks):
        pf = f"prompt.blocks.{i}"
        # a single key token: query and key projections cannot reach the output
        specs.extend(_attention_specs(f"{pf}.attn", d, parts=("v", "out")))
        specs.extend(_ffn_specs(f"{pf}.ffn", d, 4 * d))

    specs.append(ParamSpec("head.logit_scale", (), f"const:{head.logit_scale_init}"))
    if head.kind == "linear":
        specs.append(ParamSpec("head.linear.w", (d, head.width), "gauss"))
        specs.append(ParamSpec("head.linear.b", (head.width,), "zeros"))
    return specs


def group_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    try:
        return GROUP_OF_PREFIX[prefix]
    except KeyError:
        raise ConfigError(f"parameter {name!r} belongs to no known group") from None


def param_count(cfg: ModelConfig, group: str | None = None) -> int:
    total = 0
    for spec in param_specs(cfg):
        if group is None or group_of(spec.name) == group:
            total += int(np.prod(spec.shape)) if spec.shape else 1
    return total


class ModelParams:
    """All learnable tensors, addressable by dotted name.

    ``text_version`` stamps the text-side weights for prompt-cache keying;
    it changes only when text or prompting tensors are mutated (finetuning
    with those groups unfrozen, or quantization).
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor], text_version: int = 0):
        self.config = config
        self.tensors = tensors
        self.text_version = text_version

    @classmethod
    def init(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "ModelParams":
        """Fresh parameters: scaled-Gaussian weights (std 0.02), zero biases
        and positional tables, unit layernorm gains. Each tensor draws from
        its own named stream, so values do not depend on creation order."""
        tensors: dict[str, Tensor] = {}
        for spec in param_specs(config):
            if spec.init == "gauss":
                rng = seeds.stream(seed, "init", spec.name)
                data = rng.normal(0.0, INIT_STD, spec.shape)
            elif spec.init == "zeros":
                data = np.zeros(spec.shape)
            elif spec.init == "ones":
                data = np.ones(spec.shape)
            elif spec.init.startswith("const:"):
                data = np.full(spec.shape, float(spec.init.split(":", 1)[1]))
            else:  # pragma: no cover
                raise ConfigError(f"unknown init {spec.init!r}")
            tensors[spec.name] = Tensor(np.asarray(data, dtype=dtype), requires_grad=True)
        return cls(config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def trainable_names(self, freeze: frozenset[str] | set[str]) -> list[str]:
        return [n for n in self.names() if group_of(n) not in freeze]

    def astype(self, dtype) -> "ModelParams":
        tensors = {
            name: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
            for name, t in self.tensors.items()
        }
        return ModelParams(self.config, tensors, text_version=self.text_version)

    def copy(self) -> "ModelParams":
        return self.astype(next(iter(self.tensors.values())).dtype)

    def bump_text_version(self) -> None:
        self.text_version += 1

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()
