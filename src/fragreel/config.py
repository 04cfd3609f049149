"""Declarative run configuration for the command-line pipeline.

A run config is one JSON object with optional sections mirroring the module
configs (encoder, text, head, train, sampler, quantizer) plus top-level
paths, the root seed, and parallelism. Unknown keys anywhere are rejected.
Command-line flags override file values. The clip shape, frames per clip
and frame side, is the model's: ``encoder`` sets it for a model that
``train`` builds, and a command that loads a checkpoint reads clips at the
checkpoint's. Every stage derives its randomness from the single root
seed: weight init, the train/test split and the epoch shuffle draw through
named streams (``seeds.stream``), while background sampling seeds its
generator with the root seed itself.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .background import SamplerConfig
from .errors import ConfigError
from .frames import PreprocessConfig, cutter, decoder
from .params import GROUP_OF_PREFIX, EncoderConfig, HeadConfig, ModelConfig, TextConfig
from .training import TrainConfig

VALID_GROUPS = frozenset(GROUP_OF_PREFIX.values())


@dataclass(frozen=True)
class SamplerSettings:
    max_retries: int = 10
    buffer_secs: float = 3.0
    target_count: int | None = None

    def __post_init__(self):
        # SamplerConfig owns the checks; a bad value fails here, at load time
        SamplerConfig(0, self.max_retries, self.buffer_secs, self.target_count)


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
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text: TextConfig = field(default_factory=TextConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    quantizer: QuantizerSettings = field(default_factory=QuantizerSettings)

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        bad = self.train.freeze - VALID_GROUPS
        if bad:
            raise ConfigError(f"unknown parameter groups in train.freeze: {sorted(bad)}")
        # built here only to check them, so a bad template fails before any command runs
        for template, command in ((self.decoder, decoder), (self.cutter, cutter)):
            if template is not None:
                command(template)

    @property
    def model_config(self) -> ModelConfig:
        return ModelConfig(encoder=self.encoder, text=self.text, head=self.head)


_SECTION_TYPES = {
    "encoder": EncoderConfig,
    "text": TextConfig,
    "head": HeadConfig,
    "sampler": SamplerSettings,
    "quantizer": QuantizerSettings,
}


_SIMPLE_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
    type(None): ("null", type(None)),
}


def _wanted(hint) -> str | None:
    """What a JSON value for a field declared ``hint`` must be, or None if
    it is a dataclass section (checked on its own)."""
    if isinstance(hint, types.UnionType):
        return " or ".join(_wanted(h) for h in typing.get_args(hint))
    if hint is frozenset:
        return "a list of strings"
    return _SIMPLE_TYPES[hint][0] if hint in _SIMPLE_TYPES else None


def _fits(hint, value) -> bool:
    """Whether a JSON value fits a field declared ``hint``. A bool is no
    number: JSON ``true`` is not 1."""
    if isinstance(hint, types.UnionType):
        return any(_fits(h, value) for h in typing.get_args(hint))
    if hint is frozenset:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, _SIMPLE_TYPES[hint][1]) and not isinstance(value, bool)


def _check_types(cls, payload: dict, prefix: str) -> None:
    """Each value of ``payload`` fits the declared type of its field of ``cls``."""
    hints = typing.get_type_hints(cls)
    for key, value in payload.items():
        wanted = _wanted(hints[key])
        if wanted is not None and not _fits(hints[key], value):
            raise ConfigError(f"{prefix}{key} must be {wanted}, got {value!r}")


def _build_section(cls, payload, where: str, **defaults):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    _check_types(cls, payload, f"{where}.")
    try:
        return cls(**{**defaults, **payload})
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
    # The clip shape again, as perfbench's run configs and the shared test
    # config still write it: checked, then dropped. It goes when those
    # configs stop writing it, as TextConfig.prompt_heads does.
    preprocess = payload.pop("preprocess", {})

    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")

    _check_types(RunConfig, payload, "")
    seed = payload.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    kwargs = {name: value for name, value in payload.items() if name not in _SECTION_TYPES}
    for name, cls in _SECTION_TYPES.items():
        if name in payload:
            kwargs[name] = _build_section(cls, payload[name], f"config.{name}")
    kwargs["train"] = _build_section(TrainConfig, payload.get("train", {}), "config.train", seed=seed)
    shape = _build_section(PreprocessConfig, preprocess, "config.preprocess")
    encoder = kwargs.get("encoder", EncoderConfig())
    for key in preprocess:
        if getattr(shape, key) != getattr(encoder, key):
            raise ConfigError(f"config.preprocess.{key} {getattr(shape, key)} "
                              f"!= encoder.{key} {getattr(encoder, key)}")
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
        return obj

    return json.dumps(plain(run), sort_keys=True)
