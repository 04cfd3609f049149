"""Frame acquisition and preprocessing: raw clips to normalized tensors.

Raw frames arrive either from ".rgbc" files (a trivial uncompressed RGB24
container used by tests and fixtures) or from an external decoder subprocess
that writes the same format to stdout. Preprocessing selects a fixed number
of frames by uniform striding, resizes them bilinearly to a square, and
normalizes each channel on the 0-255 scale.
"""

from __future__ import annotations

import shlex
import struct
import subprocess
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .annotations import ClipRef
from .catalogue import GameId
from .errors import (
    DataResolutionError,
    EmptyClip,
    MalformedJson,
    ZeroDimension,
)

RGBC_MAGIC = b"RGBC"

# Channel statistics on the 0-255 scale (the canonical ImageNet values).
DEFAULT_MEAN = (123.675, 116.28, 103.55)
DEFAULT_STD = (58.395, 57.12, 57.375)


@dataclass
class RawClip:
    """A stack of same-sized RGB24 frames with a rational frame rate."""

    frames: np.ndarray  # (F, H, W, 3) uint8
    fps: Fraction

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[-1] != 3:
            raise ZeroDimension(f"expected (F, H, W, 3) frames, got {self.frames.shape}")
        if self.frames.dtype != np.uint8:
            raise ValueError("frames must be uint8")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def duration_s(self) -> float:
        return float(self.frame_count / self.fps)


@dataclass(frozen=True)
class PreprocessConfig:
    t_frames: int = 32
    side: int = 224
    mean: tuple[float, float, float] = DEFAULT_MEAN
    std: tuple[float, float, float] = DEFAULT_STD

    def __post_init__(self):
        if self.t_frames < 1:
            raise ValueError("t_frames must be >= 1")
        if self.side < 1:
            raise ValueError("side must be >= 1")


@dataclass(frozen=True)
class ClipTensor:
    """Normalized (T, S, S, 3) float32 stack plus its provenance."""

    data: np.ndarray
    provenance: ClipRef | None = None


def write_rgbc(clip: RawClip) -> bytes:
    count, height, width, _ = clip.frames.shape
    header = RGBC_MAGIC + struct.pack(
        "<5I", width, height, count, clip.fps.numerator, clip.fps.denominator
    )
    return header + clip.frames.tobytes()


def read_rgbc(blob: bytes) -> RawClip:
    if len(blob) < 24 or blob[:4] != RGBC_MAGIC:
        raise MalformedJson("not an RGBC stream")
    width, height, count, fps_num, fps_den = struct.unpack("<5I", blob[4:24])
    if width == 0 or height == 0:
        raise ZeroDimension("RGBC header declares a zero dimension")
    if fps_den == 0 or fps_num == 0:
        raise MalformedJson("RGBC header declares a zero frame rate")
    expected = 24 + count * width * height * 3
    if len(blob) < expected:
        raise MalformedJson(
            f"RGBC stream truncated: {len(blob)} bytes, expected {expected}"
        )
    frames = np.frombuffer(blob[24:expected], dtype=np.uint8)
    frames = frames.reshape(count, height, width, 3).copy()
    return RawClip(frames=frames, fps=Fraction(fps_num, fps_den))


def read_rgbc_file(path: str | Path) -> RawClip:
    return read_rgbc(Path(path).read_bytes())


def extract_second(clip: RawClip, start_s: float) -> RawClip:
    """The one-second window of ``clip`` starting at ``start_s``."""
    if clip.frame_count == 0:
        raise EmptyClip("clip has no frames")
    per_second = max(1, int(round(float(clip.fps))))
    first = int(round(start_s * float(clip.fps)))
    first = min(max(first, 0), max(clip.frame_count - per_second, 0))
    window = clip.frames[first : first + per_second]
    return RawClip(frames=window, fps=clip.fps)


def select_frames(raw: RawClip, t: int) -> np.ndarray:
    """Pick ``t`` frames at uniformly strided indices.

    Index i maps to round(i * (F - 1) / (t - 1)); when the clip holds fewer
    frames than requested, indices repeat.
    """
    count = raw.frame_count
    if count == 0:
        raise EmptyClip("cannot select frames from an empty clip")
    if t == 1:
        indices = [0]
    else:
        indices = [int(round(i * (count - 1) / (t - 1))) for i in range(t)]
    return raw.frames[indices]


def resize_bilinear(frame: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize to side x side with half-pixel centers.

    Sampling uses the corner-aligned=false convention: output pixel j reads
    source coordinate (j + 0.5) * scale - 0.5, clamped to the frame. Values
    are rounded half-to-even back to uint8.
    """
    if side < 1:
        raise ZeroDimension("target side must be >= 1")
    height, width = frame.shape[:2]
    if height == 0 or width == 0:
        raise ZeroDimension("cannot resize an empty frame")
    if height == side and width == side:
        return frame.copy()

    def axis_coords(n_src: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coords = (np.arange(side, dtype=np.float64) + 0.5) * (n_src / side) - 0.5
        coords = np.clip(coords, 0.0, n_src - 1.0)
        lo = np.floor(coords).astype(np.intp)
        hi = np.minimum(lo + 1, n_src - 1)
        return lo, hi, coords - lo

    y0, y1, fy = axis_coords(height)
    x0, x1, fx = axis_coords(width)
    src = frame.astype(np.float64)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bottom = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    out = top * (1 - fy) + bottom * fy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def normalize(clip: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Per-channel (x - mean) / std on the raw 0-255 scale, as float32."""
    mean = np.asarray(cfg.mean, dtype=np.float64)
    std = np.asarray(cfg.std, dtype=np.float64)
    return ((clip.astype(np.float64) - mean) / std).astype(np.float32)


def preprocess_clip(raw: RawClip, cfg: PreprocessConfig, provenance: ClipRef | None = None) -> ClipTensor:
    """select -> resize -> normalize; output shape (t_frames, side, side, 3)."""
    frames = select_frames(raw, cfg.t_frames)
    resized = np.stack([resize_bilinear(f, cfg.side) for f in frames])
    return ClipTensor(data=normalize(resized, cfg), provenance=provenance)


class DecoderSource:
    """External decoder invoked per clip, bounded to ``max_procs`` at a time.

    The command template must contain {input} {start} {dur} placeholders and
    the process must write a valid RGBC stream to stdout, exiting 0.
    """

    def __init__(self, command_template: str, max_procs: int = 2):
        self._template = shlex.split(command_template)
        for placeholder in ("{input}", "{start}", "{dur}"):
            if not any(placeholder in part for part in self._template):
                raise ValueError(f"decoder template lacks {placeholder}")
        self._slots = threading.BoundedSemaphore(max_procs)

    def fetch(self, path: str | Path, start_s: float, duration_s: float) -> RawClip:
        argv = [
            part.format(input=str(path), start=repr(float(start_s)), dur=repr(float(duration_s)))
            for part in self._template
        ]
        with self._slots:
            proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            raise DataResolutionError(
                f"decoder exited {proc.returncode} for {path}: {proc.stderr[:200]!r}"
            )
        return read_rgbc(proc.stdout)


@dataclass
class ClipStore:
    """Resolves manifest clip references to preprocessed tensors.

    Videos live under ``data_root/<game>/<video>``; ".rgbc" files are read
    directly and anything else needs the external decoder. Whole-file reads
    are cached, keyed by path, since training revisits the same videos.
    """

    data_root: Path
    preprocess: PreprocessConfig
    decoder: DecoderSource | None = None
    cache_files: int = 8
    _cache: dict[Path, RawClip] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def resolve(self, game: GameId, video: str) -> Path:
        base = Path(self.data_root) / game.value
        candidates = [base / video, (base / video).with_suffix(".rgbc")]
        for path in candidates:
            if path.is_file():
                return path
        raise DataResolutionError(f"no video file for {game.value}/{video} under {self.data_root}")

    def _load(self, path: Path) -> RawClip:
        # held across miss, read and insert, so concurrent misses on one
        # path read it once
        with self._lock:
            cached = self._cache.get(path)
            if cached is not None:
                return cached
            if path.suffix == ".rgbc":
                clip = read_rgbc_file(path)
            elif self.decoder is not None:
                raise DataResolutionError(
                    f"{path} is not .rgbc; decode windows via raw_second instead"
                )
            else:
                raise DataResolutionError(f"{path} is not .rgbc and no decoder is configured")
            if len(self._cache) >= self.cache_files:
                self._cache.pop(next(iter(self._cache)))
            self._cache[path] = clip
            return clip

    def duration(self, game: GameId, video: str) -> float:
        return self._load(self.resolve(game, video)).duration_s

    def raw_second(self, game: GameId, video: str, start_s: float) -> RawClip:
        path = self.resolve(game, video)
        if path.suffix != ".rgbc" and self.decoder is not None:
            return self.decoder.fetch(path, start_s, 1.0)
        return extract_second(self._load(path), start_s)

    def clip_tensor(self, ref: ClipRef) -> ClipTensor:
        raw = self.raw_second(ref.game, ref.video, ref.clip_start_s)
        return preprocess_clip(raw, self.preprocess, provenance=ref)
