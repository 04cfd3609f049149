"""Frame acquisition and preprocessing: raw clips to normalized tensors.

Raw frames arrive either from ".rgbc" files (a trivial uncompressed RGB24
container used by tests and fixtures) or from an external decoder subprocess
that writes the same format to stdout. Preprocessing selects a fixed number
of frames by uniform striding, resizes them bilinearly to a square, and
normalizes each channel on the 0-255 scale. It reads only the source pixels
that the resize uses, straight from the (possibly mapped) frames, and its
output is byte-identical to the whole-frame float64 formula. ``Command``
runs the external programs, the decoder and the highlight cutter, from
checked templates.
"""

from __future__ import annotations

import math
import mmap
import os
import shlex
import string
import struct
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .annotations import ClipRef
from .catalogue import GameId
from .errors import (
    ConfigError,
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

    def __post_init__(self):
        if self.t_frames < 1:
            raise ValueError("t_frames must be >= 1")
        if self.side < 1:
            raise ValueError("side must be >= 1")


def write_rgbc(clip: RawClip) -> bytes:
    count, height, width, _ = clip.frames.shape
    header = RGBC_MAGIC + struct.pack(
        "<5I", width, height, count, clip.fps.numerator, clip.fps.denominator
    )
    return header + clip.frames.tobytes()


def _rgbc_header(head: bytes) -> tuple[tuple[int, int, int, int], Fraction]:
    """Frame shape (F, H, W, 3) and frame rate from the 24-byte header."""
    if len(head) < 24 or head[:4] != RGBC_MAGIC:
        raise MalformedJson("not an RGBC stream")
    width, height, count, fps_num, fps_den = struct.unpack("<5I", head[4:24])
    if width == 0 or height == 0:
        raise ZeroDimension("RGBC header declares a zero dimension")
    if fps_den == 0 or fps_num == 0:
        raise MalformedJson("RGBC header declares a zero frame rate")
    return (count, height, width, 3), Fraction(fps_num, fps_den)


def read_rgbc(blob: bytes) -> RawClip:
    """A clip over the frames of ``blob`` (read-only, no copy)."""
    shape, fps = _rgbc_header(blob)
    expected = 24 + math.prod(shape)
    if len(blob) != expected:
        raise MalformedJson(f"RGBC header implies {expected} bytes, stream has {len(blob)}")
    frames = np.frombuffer(blob, np.uint8, expected - 24, offset=24).reshape(shape)
    return RawClip(frames=frames, fps=fps)


def read_rgbc_file(path: str | Path) -> RawClip:
    """A clip over a read-only map of the file; frames are paged in when read."""
    with open(path, "rb") as fh:
        shape, fps = _rgbc_header(fh.read(24))
        size = os.fstat(fh.fileno()).st_size
        expected = 24 + math.prod(shape)
        if size != expected:
            raise MalformedJson(f"{path}: RGBC header implies {expected} bytes, file has {size}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    frames = np.frombuffer(mapped, np.uint8, expected - 24, offset=24).reshape(shape)
    return RawClip(frames=frames, fps=fps)


def extract_second(clip: RawClip, start_s: float) -> RawClip:
    """The one-second window of ``clip`` starting at ``start_s``."""
    if clip.frame_count == 0:
        raise EmptyClip("clip has no frames")
    per_second = max(1, int(round(float(clip.fps))))
    first = int(round(start_s * float(clip.fps)))
    first = min(max(first, 0), max(clip.frame_count - per_second, 0))
    window = clip.frames[first : first + per_second]
    return RawClip(frames=window, fps=clip.fps)


def frame_indices(count: int, t: int) -> list[int]:
    """The ``t`` uniformly strided frame indices of a clip of ``count`` frames.

    Index i maps to round(i * (count - 1) / (t - 1)); when the clip holds
    fewer frames than requested, indices repeat.
    """
    if count == 0:
        raise EmptyClip("cannot select frames from an empty clip")
    if t == 1:
        return [0]
    return [int(round(i * (count - 1) / (t - 1))) for i in range(t)]


def resize_bilinear(frame: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize to side x side with half-pixel centers.

    Sampling uses the corner-aligned=false convention: output pixel j reads
    source coordinate (j + 0.5) * scale - 0.5, clamped to the frame. Values
    are rounded half-to-even back to uint8. Only the source pixels that the
    output reads are gathered, on uint8, before the float64 arithmetic, so
    a large frame (or a mapped file) is never converted whole.
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
    # rows y0 then y1, then of those the bytes of columns x0 then x1, so the
    # block splits into the four corners; each pixel's weight covers its 3 bytes
    rows = np.take(frame, np.concatenate([y0, y1]), axis=0).reshape(2 * side, width * 3)
    columns = (np.concatenate([x0, x1])[:, None] * 3 + np.arange(3)).ravel()
    block = np.take(rows, columns, axis=1).astype(np.float64)
    a, b = block[:side, : 3 * side], block[:side, 3 * side :]
    c, d = block[side:, : 3 * side], block[side:, 3 * side :]
    fx = np.repeat(fx, 3)
    fy = fy[:, None]
    # the whole-frame formula's operation order, which the output bytes depend on:
    # top = a(1 - fx) + b fx, bottom = c(1 - fx) + d fx, out = top(1 - fy) + bottom fy
    top = a * (1 - fx)
    top += b * fx
    bottom = c * (1 - fx)
    bottom += d * fx
    top *= 1 - fy
    bottom *= fy
    top += bottom
    np.rint(top, out=top)
    np.clip(top, 0, 255, out=top)
    return top.astype(np.uint8).reshape(side, side, 3)


# (3, 256) float32, read-only: row c maps v to (v - DEFAULT_MEAN[c]) /
# DEFAULT_STD[c], computed in float64
_CHANNEL_TABLES = ((np.arange(256, dtype=np.float64)[:, None] - np.asarray(DEFAULT_MEAN))
                   / np.asarray(DEFAULT_STD)).astype(np.float32).T
_CHANNEL_TABLES.flags.writeable = False


def normalize(clip: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel (x - mean) / std of uint8 pixels on the 0-255 scale, as float32.

    Each value is looked up in a 256-entry table per channel, built once
    with the formula in float64, so the bytes are those of the formula
    applied to the whole clip. The result goes into ``out`` when it is given.
    """
    if clip.dtype != np.uint8:
        raise ValueError(f"normalize takes uint8 pixels, got {clip.dtype}")
    if out is None:
        out = np.empty(clip.shape, dtype=np.float32)
    for channel in range(3):
        np.take(_CHANNEL_TABLES[channel], clip[..., channel], out=out[..., channel])
    return out


def preprocess_clip(raw: RawClip, cfg: PreprocessConfig) -> np.ndarray:
    """select -> resize -> normalize; (t_frames, side, side, 3) float32.

    Each distinct frame index is resized once, straight from ``raw.frames``
    (a mapped file is not copied), and normalized into its slot of the one
    output array; a repeated index copies the slot already filled.
    """
    out = np.empty((cfg.t_frames, cfg.side, cfg.side, 3), dtype=np.float32)
    filled: dict[int, int] = {}
    for slot, index in enumerate(frame_indices(raw.frame_count, cfg.t_frames)):
        if index in filled:
            out[slot] = out[filled[index]]
        else:
            normalize(resize_bilinear(raw.frames[index], cfg.side), out=out[slot])
            filled[index] = slot
    return out


class Command:
    """An external command from a template split like a POSIX shell line.

    Its format fields must be exactly ``placeholders``, each bare as ``{name}``
    (a literal brace is ``{{``). All checks run here: a bad template is a
    ConfigError naming ``key`` before anything runs.
    """

    def __init__(self, key: str, template, placeholders: tuple[str, ...]):
        self.key = key
        if not isinstance(template, str):
            raise ConfigError(f"{key} must be a command string, got {template!r}")
        try:
            self.argv = shlex.split(template)
            fields = {(name, spec, conv) for part in self.argv
                      for _, name, spec, conv in string.Formatter().parse(part) if name is not None}
        except ValueError as exc:
            raise ConfigError(f"{key} template {template!r}: {exc}") from exc
        if fields != {(name, "", None) for name in placeholders}:
            wanted = " ".join(f"{{{name}}}" for name in placeholders)
            raise ConfigError(f"{key} template {template!r} must use exactly {wanted}")

    def run(self, **values: str) -> bytes:
        """Fill the placeholders, run the process and return its stdout."""
        argv = [part.format(**values) for part in self.argv]
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            raise DataResolutionError(f"{self.key} exited {proc.returncode}: {shlex.join(argv)}: "
                                      f"{proc.stderr[:200]!r}")
        return proc.stdout


def decoder(template) -> Command:
    """Writes the RGBC stream of ``{dur}`` seconds of ``{input}`` from ``{start}`` to stdout."""
    return Command("decoder", template, ("input", "start", "dur"))


def cutter(template) -> Command:
    """Cuts ``{dur}`` seconds of ``{input}`` from ``{start}`` into ``{output}``."""
    return Command("cutter", template, ("input", "start", "dur", "output"))


@dataclass
class ClipStore:
    """The one path from a video file to preprocessed clips.

    Videos live under ``data_root/<game>/<video>``; ".rgbc" files are mapped
    read-only and anything else needs the external decoder.
    """

    data_root: Path
    preprocess: PreprocessConfig
    decoder: Command | None = None

    def resolve(self, game: GameId, video: str) -> Path:
        base = Path(self.data_root) / game.value
        candidates = [base / video, (base / video).with_suffix(".rgbc")]
        for path in candidates:
            if path.is_file():
                return path
        raise DataResolutionError(f"no video file for {game.value}/{video} under {self.data_root}")

    def videos(self, game: GameId) -> list[Path]:
        """The ".rgbc" files of one game, sorted by name."""
        base = Path(self.data_root) / game.value
        videos = sorted(base.glob("*.rgbc"))
        if not videos:
            raise DataResolutionError(f"no .rgbc videos under {base}")
        return videos

    def duration(self, game: GameId, video: str) -> float:
        path = self.resolve(game, video)
        if path.suffix != ".rgbc":
            raise DataResolutionError(f"{path}: only an .rgbc file has a known duration")
        return read_rgbc_file(path).duration_s

    def clips(self, game: GameId, video: str) -> Callable[[float], np.ndarray]:
        """The preprocessed one-second clip at ``start_s`` of one video, as a function.

        An ".rgbc" file is mapped once, here, and the map lives as long as
        the returned function; any other file is decoded once per call.
        """
        path = self.resolve(game, video)
        if path.suffix == ".rgbc":
            second = partial(extract_second, read_rgbc_file(path))
        elif self.decoder is not None:
            # clips are fetched on the ``jobs`` workers of parallel.map_ordered,
            # which therefore also bound the decoder processes running at once
            def second(start_s: float) -> RawClip:
                return read_rgbc(self.decoder.run(input=str(path), start=repr(float(start_s)), dur="1.0"))
        else:
            raise DataResolutionError(f"{path} is not .rgbc and no decoder is configured")
        return lambda start_s: preprocess_clip(second(start_s), self.preprocess)

    def clip(self, ref: ClipRef) -> np.ndarray:
        """The clip a manifest entry names; it must start before an ".rgbc" video ends."""
        path = self.resolve(ref.game, ref.video)
        if path.suffix == ".rgbc" and ref.clip_start_s >= read_rgbc_file(path).duration_s:
            raise DataResolutionError(f"{path}: clip starts at {ref.clip_start_s}s, at or past the end")
        return self.clips(ref.game, ref.video)(ref.clip_start_s)
