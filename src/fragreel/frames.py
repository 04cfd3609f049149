"""Frame acquisition and preprocessing: raw clips to normalized tensors.

Raw frames arrive either from ".rgbc" files (a trivial uncompressed RGB24
container used by tests and fixtures) or from an external decoder subprocess
that writes the same format to stdout. Both go through one reader,
``FrameReader``. After the 24-byte header, preprocessing plans the second's
frames and pulls the selected ones from the reader one at a time into one
reused (H, W, 3) buffer. An ".rgbc" file is opened once per video and
shared by the worker threads, each selected frame read at its offset; a
decoder's stdout is read in order, each frame that is not selected read
into the same buffer and dropped. So a second holds one source frame at a
time, whatever the length or the resolution of the video.
Preprocessing selects a fixed number of frames by uniform striding, resizes
each bilinearly to a square, reading only the source pixels the resize
uses, and normalizes each channel on the 0-255 scale; the output is
byte-identical to the whole-frame float64 formula. ``Command`` runs the
external programs, the decoder and the highlight cutter, from checked
templates.
"""

from __future__ import annotations

import math
import os
import shlex
import string
import struct
import subprocess
import tempfile
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .annotations import ClipRef
from .catalogue import GameId
from .errors import (
    ConfigError,
    DataError,
    DataResolutionError,
    EmptyClip,
    MalformedJson,
    ZeroDimension,
)

RGBC_MAGIC = b"RGBC"
# The largest frame side an RGBC header may declare, in pixels; 8K video is
# 7680 x 4320. The frame buffer is allocated from the header, so a larger
# side is refused before any allocation.
MAX_SIDE = 16384

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

    def frame(self, index: int) -> np.ndarray:
        return self.frames[index]


@dataclass(frozen=True)
class PreprocessConfig:
    """The shape of a preprocessed clip, as the reading model's encoder sets it."""

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
    if width > MAX_SIDE or height > MAX_SIDE:
        raise DataError(f"RGBC header declares {width} x {height} pixels, "
                        f"over the limit of {MAX_SIDE} a side")
    if fps_den == 0 or fps_num == 0:
        raise MalformedJson("RGBC header declares a zero frame rate")
    return (count, height, width, 3), Fraction(fps_num, fps_den)


def rgbc_file_header(path: str | Path) -> tuple[tuple[int, int, int, int], Fraction]:
    """Frame shape and frame rate of an ".rgbc" file whose size is what its
    header declares; only the header is read."""
    with open(path, "rb") as fh:
        shape, fps = _rgbc_header(fh.read(24))
        size = os.fstat(fh.fileno()).st_size
    expected = 24 + math.prod(shape)
    if size != expected:
        raise MalformedJson(f"{path}: RGBC header implies {expected} bytes, file has {size}")
    return shape, fps


def second_window(count: int, fps: float, start_s: float) -> tuple[int, int]:
    """First frame and frame count of the one-second window at ``start_s`` of
    a clip of ``count`` frames at ``fps``; a window past either end is moved
    inside."""
    if count == 0:
        raise EmptyClip("clip has no frames")
    per_second = max(1, int(round(fps)))
    first = int(round(start_s * fps))
    first = min(max(first, 0), max(count - per_second, 0))
    return first, min(per_second, count - first)


def _read_into(fh, view: memoryview) -> int:
    """Fills ``view`` from ``fh`` until it is full or the stream ends; the bytes read."""
    got = fh.readinto(view) or 0
    while got < len(view):  # a pipe hands over what it holds
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _drain(fh) -> int:
    """Reads ``fh`` to its end; the bytes read."""
    count = 0
    while chunk := fh.read(1 << 16):
        count += len(chunk)
    return count


class FrameReader:
    """The frames of one RGBC stream, read one at a time into one reused buffer.

    Frame i of the clip is frame ``first + i`` of a stream of frames of
    ``shape``, for ``count`` frames (all from ``first`` by default). With a
    ``lock``, ``fh`` is an ".rgbc" file that threads share, and each frame
    is read at its offset under the lock. Without one, ``fh`` is a pipe, a
    decoder's stdout read just past its header: frames come in order, and
    each one skipped is read into the buffer and dropped, so i must not
    decrease. ``frame(i)`` returns the buffer, which the next call overwrites.
    """

    def __init__(self, fh, shape: tuple[int, int, int, int], first: int = 0,
                 count: int | None = None, lock: threading.Lock | None = None):
        self.frame_count = shape[0] - first if count is None else count
        self._fh = fh
        self._first = first
        self._lock = lock
        self._stream_frames = shape[0]
        self._buffer = np.empty(shape[1:], dtype=np.uint8)
        self._view = memoryview(self._buffer).cast("B")
        self._next = 0  # the stream's frame at the read position

    def _size_error(self, size: int) -> MalformedJson:
        expected = 24 + self._stream_frames * len(self._view)
        return MalformedJson(f"RGBC header implies {expected} bytes, stream has {size}")

    def _fill(self) -> None:
        """Reads the stream's next frame into the buffer."""
        got = _read_into(self._fh, self._view)
        if got < len(self._view):
            raise self._size_error(24 + self._next * len(self._view) + got)
        self._next += 1

    def frame(self, index: int) -> np.ndarray:
        target = self._first + index
        if self._lock is not None:
            with self._lock:
                self._fh.seek(24 + target * len(self._view))
                self._next = target
                self._fill()
            return self._buffer
        if target < self._next:
            raise ValueError(f"frame {index} is behind the read position")
        while self._next < target:
            self._fill()
        self._fill()
        return self._buffer

    def finish(self) -> None:
        """Reads the rest of the stream, which must end with its last frame."""
        while self._next < self._stream_frames:
            self._fill()
        trailing = _drain(self._fh)
        if trailing:
            raise self._size_error(24 + self._stream_frames * len(self._view) + trailing)


def read_stream(fh, cfg: PreprocessConfig) -> np.ndarray:
    """The preprocessed clip of a whole RGBC stream, read in order from ``fh``
    to its end, which must be the end of its last frame."""
    head = bytearray(24)
    shape, _ = _rgbc_header(head[: _read_into(fh, memoryview(head))])
    reader = FrameReader(fh, shape)
    clip = preprocess_clip(reader, cfg)
    reader.finish()
    return clip


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
    for channel in range(3):  # the method, not np.take: its wrapper costs more than a small frame
        _CHANNEL_TABLES[channel].take(clip[..., channel], out=out[..., channel])
    return out


def preprocess_clip(source: RawClip | FrameReader, cfg: PreprocessConfig) -> np.ndarray:
    """select -> resize -> normalize; (t_frames, side, side, 3) float32.

    Each distinct frame index, in increasing order, is taken once from
    ``source.frame``, resized and normalized into its slot of the one output
    array; a repeated index copies the slot already filled.
    """
    out = np.empty((cfg.t_frames, cfg.side, cfg.side, 3), dtype=np.float32)
    filled: dict[int, int] = {}
    for slot, index in enumerate(frame_indices(source.frame_count, cfg.t_frames)):
        if index in filled:
            out[slot] = out[filled[index]]
        else:
            normalize(resize_bilinear(source.frame(index), cfg.side), out=out[slot])
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

    def _exited(self, argv: list[str], code: int, stderr: bytes) -> DataResolutionError:
        return DataResolutionError(f"{self.key} exited {code}: {shlex.join(argv)}: {stderr[:200]!r}")

    @contextmanager
    def output(self, **values: str):
        """Fill the placeholders, run the process and yield its stdout, an
        unbuffered pipe that the body reads to its end.

        The process is then reaped and a nonzero exit is a
        DataResolutionError, also when the body failed with a DataError on
        the stream, whose end it drains first. A DataError with a zero exit
        is raised again naming the command. Any other error kills the process.
        """
        argv = [part.format(**values) for part in self.argv]
        # stderr goes to a file: a full stderr pipe would stall the process
        # while its stdout is read
        with tempfile.TemporaryFile() as stderr, \
                subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, bufsize=0) as proc:
            failure = None
            try:
                yield proc.stdout
            except DataError as exc:
                _drain(proc.stdout)
                if proc.wait() == 0:
                    raise type(exc)(f"{self.key} {shlex.join(argv)}: {exc}") from exc
                failure = exc
            except BaseException:
                proc.kill()
                raise
            if proc.wait() != 0:
                stderr.seek(0)
                raise self._exited(argv, proc.returncode, stderr.read(200)) from failure


def decoder(template) -> Command:
    """Writes the RGBC stream of ``{dur}`` seconds of ``{input}`` from ``{start}`` to stdout."""
    return Command("decoder", template, ("input", "start", "dur"))


def cutter(template) -> Command:
    """Cuts ``{dur}`` seconds of ``{input}`` from ``{start}`` into ``{output}``."""
    return Command("cutter", template, ("input", "start", "dur", "output"))


@dataclass
class ClipStore:
    """The one path from a video file to preprocessed clips.

    Videos live under ``data_root/<game>/<video>``; ".rgbc" files are read
    directly and anything else needs the external decoder. ``preprocess``
    is the clip shape of the model that reads the clips, taken from its
    encoder: the run config's for a new model, the checkpoint's otherwise.
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
        shape, fps = rgbc_file_header(path)
        return float(shape[0] / fps)

    def clips(self, game: GameId, video: str) -> Callable[[float], np.ndarray]:
        """The preprocessed one-second clip at ``start_s`` of one video, as a function.

        An ".rgbc" file is opened once, here, and closed when the function
        is dropped; each call reads only the second's selected frames. Any
        other file is decoded once per call. Either way a call holds one
        source frame.
        """
        path = self.resolve(game, video)
        if path.suffix == ".rgbc":
            shape, fps = rgbc_file_header(path)
            rate = float(fps)
            # one handle for all calls, on any thread: a call then makes no
            # system call to open the file, and small frames are mostly in
            # its buffer already; a frame larger than the buffer is read
            # straight into the reader's own
            fh = open(path, "rb", buffering=1 << 16)
            lock = threading.Lock()

            def clip_at(start_s: float) -> np.ndarray:
                first, count = second_window(shape[0], rate, start_s)
                return preprocess_clip(FrameReader(fh, shape, first, count, lock), self.preprocess)

            weakref.finalize(clip_at, fh.close)
        elif self.decoder is not None:
            # clips are fetched on the ``jobs`` workers of parallel.map_ordered,
            # which therefore also bound the decoder processes running at once
            def clip_at(start_s: float) -> np.ndarray:
                with self.decoder.output(input=str(path), start=repr(float(start_s)),
                                         dur="1.0") as stdout:
                    return read_stream(stdout, self.preprocess)
        else:
            raise DataResolutionError(f"{path} is not .rgbc and no decoder is configured")
        return clip_at

    def clip(self, ref: ClipRef) -> np.ndarray:
        """The clip a manifest entry names; it must start before an ".rgbc" video ends."""
        path = self.resolve(ref.game, ref.video)
        if path.suffix == ".rgbc" and ref.clip_start_s >= self.duration(ref.game, ref.video):
            raise DataResolutionError(f"{path}: clip starts at {ref.clip_start_s}s, at or past the end")
        return self.clips(ref.game, ref.video)(ref.clip_start_s)
