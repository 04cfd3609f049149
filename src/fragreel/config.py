"""Declarative run configuration for the command-line pipeline.

A run config is one JSON object with optional sections mirroring the module
configs (preprocess, encoder, text, head, train, sampler, quantizer) plus
top-level paths, the root seed, and parallelism. Unknown keys anywhere are
rejected. Command-line flags override file values; every stage derives its
randomness from the single root seed through named streams.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .frames import PreprocessConfig
from .params import GROUP_OF_PREFIX, EncoderConfig, HeadConfig, ModelConfig, TextConfig
from .training import TrainConfig

VALID_GROUPS = frozenset(GROUP_OF_PREFIX.values())


@dataclass(frozen=True)
class SamplerSettings:
    max_retries: int = 10
    buffer_secs: float = 3.0
    target_count: int | None = None


@dataclass(frozen=True)
class QuantizerSettings:
    calib_count: int = 1

    def __post_init__(self):
        if self.calib_count < 1:
            raise ConfigError("quantizer.calib_count must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    jobs: int = 2
    data_root: str = "."
    catalogue: str | None = None
    decoder: str | None = None
    cutter: str | None = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text: TextConfig = field(default_factory=TextConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    quantizer: QuantizerSettings = field(default_factory=QuantizerSettings)

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.preprocess.t_frames != self.encoder.t_frames:
            raise ConfigError(
                f"preprocess.t_frames {self.preprocess.t_frames} != encoder.t_frames {self.encoder.t_frames}"
            )
        if self.preprocess.side != self.encoder.side:
            raise ConfigError(
                f"preprocess.side {self.preprocess.side} != encoder.side {self.encoder.side}"
            )
        bad = self.train.freeze - VALID_GROUPS
        if bad:
            raise ConfigError(f"unknown parameter groups in train.freeze: {sorted(bad)}")

    @property
    def model_config(self) -> ModelConfig:
        return ModelConfig(encoder=self.encoder, text=self.text, head=self.head)


_SECTION_TYPES = {
    "preprocess": PreprocessConfig,
    "encoder": EncoderConfig,
    "text": TextConfig,
    "head": HeadConfig,
    "sampler": SamplerSettings,
    "quantizer": QuantizerSettings,
}


def _build_section(cls, payload, where: str, **defaults):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = dict(defaults)
    for key, value in payload.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    Overrides apply to top-level scalar fields only; None values mean "not
    given on the command line" and are skipped.
    """
    payload: dict = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
    payload = dict(payload)
    for key, value in (overrides or {}).items():
        if value is not None:
            payload[key] = value

    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    kwargs: dict = {}
    for name in ("seed", "jobs", "data_root", "catalogue", "decoder", "cutter"):
        if name in payload:
            kwargs[name] = payload[name]
    for name, cls in _SECTION_TYPES.items():
        if name in payload:
            kwargs[name] = _build_section(cls, payload[name], f"config.{name}")
    kwargs["train"] = _build_section(TrainConfig, payload.get("train", {}), "config.train", seed=seed)
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def describe(run: RunConfig) -> str:
    """Compact JSON of the resolved configuration, for run logs."""

    def plain(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, frozenset):
            return sorted(obj)
        if isinstance(obj, tuple):
            return list(obj)
        return obj

    return json.dumps(plain(run), sort_keys=True)
