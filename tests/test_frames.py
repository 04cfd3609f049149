"""Raw clip container, frame selection, resizing, normalization, clip store."""

from __future__ import annotations

import io
import os
import struct
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import tracemalloc_peak
from fragreel import frames
from fragreel.annotations import ClipRef
from fragreel.catalogue import EventLabel, GameId
from fragreel.errors import (
    ConfigError,
    DataError,
    DataResolutionError,
    EmptyClip,
    MalformedJson,
    ZeroDimension,
)
from fragreel.frames import (
    ClipStore,
    Command,
    FrameReader,
    PreprocessConfig,
    RawClip,
    frame_indices,
    normalize,
    preprocess_clip,
    read_stream,
    resize_bilinear,
    rgbc_file_header,
    second_window,
    write_rgbc,
)


def random_clip(frames=8, height=6, width=6, fps=4, seed=0) -> RawClip:
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(frames, height, width, 3), dtype=np.uint8)
    return RawClip(frames=data, fps=Fraction(fps))


def whole_stream(clip: RawClip) -> PreprocessConfig:
    """The preprocessing that keeps every frame of ``clip`` at its size."""
    return PreprocessConfig(t_frames=clip.frame_count, side=clip.frames.shape[1])


class TestRgbcContainer:
    def test_stream_round_trip(self):
        clip = random_clip()
        got = read_stream(io.BytesIO(write_rgbc(clip)), whole_stream(clip))
        assert got.tobytes() == normalize(clip.frames).tobytes()

    def test_file_round_trip(self, tmp_path):
        clip = random_clip(seed=1)
        path = tmp_path / "v.rgbc"
        path.write_bytes(write_rgbc(clip))
        shape, fps = rgbc_file_header(path)
        assert shape == clip.frames.shape and fps == clip.fps
        with open(path, "rb") as fh:
            reader = FrameReader(fh, shape, lock=threading.Lock())
            back = np.stack([reader.frame(i).copy() for i in range(reader.frame_count)])
        np.testing.assert_array_equal(back, clip.frames)

    def test_file_reader_reads_the_frames_of_its_window_in_any_order(self, tmp_path):
        clip = random_clip(frames=12, seed=2)
        path = tmp_path / "v.rgbc"
        path.write_bytes(write_rgbc(clip))
        with open(path, "rb", buffering=0) as fh:
            reader = FrameReader(fh, clip.frames.shape, first=4, count=5, lock=threading.Lock())
            assert reader.frame_count == 5
            np.testing.assert_array_equal(reader.frame(4), clip.frames[8])
            assert fh.tell() == 24 + 9 * clip.frames[0].nbytes  # nothing past the frame
            np.testing.assert_array_equal(reader.frame(1), clip.frames[5])

    def test_pipe_reader_drops_the_frames_it_passes(self):
        clip = random_clip(frames=6, seed=3)
        fh = io.BytesIO(write_rgbc(clip)[24:])
        reader = FrameReader(fh, clip.frames.shape)
        np.testing.assert_array_equal(reader.frame(4), clip.frames[4])
        assert fh.tell() == 5 * clip.frames[0].nbytes
        with pytest.raises(ValueError, match="behind the read position"):
            reader.frame(3)
        reader.finish()
        assert fh.tell() == 6 * clip.frames[0].nbytes

    def test_duration(self):
        clip = random_clip(frames=10, fps=4)
        assert clip.duration_s == 2.5

    def test_bad_magic_raises(self):
        with pytest.raises(MalformedJson, match="not an RGBC stream"):
            read_stream(io.BytesIO(b"JUNK" + b"\x00" * 24), PreprocessConfig())

    def test_truncated_payload_raises(self):
        clip = random_clip()
        blob = write_rgbc(clip)
        expected = f"header implies {len(blob)} bytes, stream has {len(blob) - 1}"
        with pytest.raises(MalformedJson, match=expected):
            read_stream(io.BytesIO(blob[:-1]), whole_stream(clip))

    def test_trailing_bytes_raise(self):
        clip = random_clip()
        blob = write_rgbc(clip)
        expected = f"header implies {len(blob)} bytes, stream has {len(blob) + 40}"
        with pytest.raises(MalformedJson, match=expected):
            read_stream(io.BytesIO(blob + bytes(40)), PreprocessConfig(t_frames=2, side=4))

    def test_zero_dimension_raises(self):
        blob = b"RGBC" + struct.pack("<5I", 0, 4, 1, 4, 1)
        with pytest.raises(ZeroDimension):
            read_stream(io.BytesIO(blob), PreprocessConfig())

    @pytest.mark.parametrize("width, height", [(16385, 4), (4, 16385), (2**32 - 1, 2**32 - 1)],
                             ids=["wide", "tall", "u32_max"])
    def test_side_over_the_limit_raises_before_any_allocation(self, width, height):
        blob = b"RGBC" + struct.pack("<5I", width, height, 1, 4, 1)
        with pytest.raises(DataError, match=f"{width} x {height} pixels, over the limit of 16384"):
            read_stream(io.BytesIO(blob), PreprocessConfig())

    def test_side_at_the_limit_is_read(self):
        # one 16384 x 1 frame, resized to 4 x 4
        blob = b"RGBC" + struct.pack("<5I", frames.MAX_SIDE, 1, 1, 4, 1) + bytes(3 * frames.MAX_SIDE)
        assert read_stream(io.BytesIO(blob), PreprocessConfig(t_frames=1, side=4)).shape == (1, 4, 4, 3)

    def test_zero_fps_raises(self):
        blob = b"RGBC" + struct.pack("<5I", 2, 2, 0, 0, 1)
        with pytest.raises(MalformedJson):
            read_stream(io.BytesIO(blob), PreprocessConfig())

    def test_empty_stream_raises(self):
        blob = b"RGBC" + struct.pack("<5I", 2, 2, 0, 4, 1)
        with pytest.raises(EmptyClip):
            read_stream(io.BytesIO(blob), PreprocessConfig())

    @pytest.mark.parametrize("extra_frames", [1, -1])
    def test_file_header_must_match_file_size(self, tmp_path, extra_frames):
        blob = write_rgbc(random_clip(frames=8))
        path = tmp_path / "v.rgbc"
        path.write_bytes(blob[:12] + struct.pack("<I", 8 + extra_frames) + blob[16:])
        with pytest.raises(MalformedJson, match="v.rgbc: RGBC header implies"):
            rgbc_file_header(path)

    def test_non_uint8_frames_rejected(self):
        with pytest.raises(ValueError):
            RawClip(frames=np.zeros((1, 2, 2, 3), dtype=np.float32), fps=Fraction(1))


class TestSecondWindow:
    """First frame and frame count of the one-second window at a start."""

    def test_middle_window(self):
        assert second_window(12, 4.0, 1.0) == (4, 4)

    def test_clamped_at_end(self):
        assert second_window(12, 4.0, 99.0) == (8, 4)

    def test_clamped_at_start(self):
        assert second_window(12, 4.0, -5.0) == (0, 4)

    def test_clip_shorter_than_a_second_is_one_window(self):
        assert second_window(3, 4.0, 0.5) == (0, 3)

    def test_empty_clip_raises(self):
        with pytest.raises(EmptyClip):
            second_window(0, 1.0, 0.0)


class TestSelectFrames:
    """The uniform stride rule of ``frame_indices``."""

    def test_exact_count_is_identity(self):
        assert frame_indices(4, 4) == [0, 1, 2, 3]

    def test_downsample_indices(self):
        # round(i * 8 / 3) for i in 0..3 -> 0, 3, 5, 8
        assert frame_indices(9, 4) == [0, 3, 5, 8]

    def test_upsample_repeats(self):
        assert frame_indices(2, 4) == [0, 0, 1, 1]

    def test_single_frame_request(self):
        assert frame_indices(5, 1) == [0]

    def test_empty_clip_raises(self):
        with pytest.raises(EmptyClip):
            frame_indices(0, 4)


class TestResizeBilinear:
    def test_same_size_is_copy(self):
        frame = random_clip(frames=1, height=4, width=4).frames[0]
        out = resize_bilinear(frame, 4)
        np.testing.assert_array_equal(out, frame)
        assert out is not frame

    def test_constant_frame_stays_constant(self):
        frame = np.full((6, 6, 3), 77, dtype=np.uint8)
        out = resize_bilinear(frame, 4)
        assert out.shape == (4, 4, 3)
        assert np.all(out == 77)

    def test_downscale_by_two_averages_blocks(self):
        # With half-pixel centers, a 2x downscale samples exactly between
        # the four source pixels of each block.
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        frame[0::2, :, :] = 100
        frame[1::2, :, :] = 200
        out = resize_bilinear(frame, 2)
        assert np.all(out == 150)

    def test_zero_side_raises(self):
        with pytest.raises(ZeroDimension):
            resize_bilinear(np.zeros((4, 4, 3), dtype=np.uint8), 0)


class TestNormalize:
    def test_formula(self):
        # (40 - mean) / std with the ImageNet statistics on the 0-255 scale
        clip = np.full((1, 2, 2, 3), 40, dtype=np.uint8)
        out = normalize(clip)
        np.testing.assert_allclose(out[0, 0, 0], [-1.4329138, -1.3354342, -1.1076252], atol=1e-6)
        assert out.dtype == np.float32

    def test_preprocess_shape(self):
        cfg = PreprocessConfig(t_frames=3, side=4)
        out = preprocess_clip(random_clip(frames=8, height=6, width=6), cfg)
        assert out.shape == (3, 4, 4, 3)
        assert out.dtype == np.float32


class TestPreprocessExactness:
    """The pixel-gathering resize, the table normalize and the one-buffer
    clip assembly give the bytes of the whole-frame float64 formulas."""

    @pytest.mark.parametrize("height,width,side", [
        (1080, 1920, 224),  # the 1080p deployment input
        (36, 64, 224),  # the finetune source, upscaled
        (37, 50, 23),  # non-square, odd sides
        (224, 300, 224),  # one axis already at size
        (1, 1, 5),
        (1, 7, 3),
        (9, 1, 224),
        (17, 9, 1),
    ])
    def test_resize_matches_the_whole_frame_formula(self, height, width, side):
        rng = np.random.default_rng(height * 7919 + width * 31 + side)
        for _ in range(2):
            frame = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
            got = resize_bilinear(frame, side)
            assert got.dtype == np.uint8 and got.shape == (side, side, 3)
            np.testing.assert_array_equal(got, oracle.o_resize_bilinear(frame, side))

    def test_resize_rounds_exact_ties_half_to_even(self):
        # a 2x downscale averages each 2x2 block; blocks of v and v + 1 make
        # every output exactly v + 0.5
        rng = np.random.default_rng(5)
        v = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8)
        frame = np.repeat(np.stack([v, v + 1], axis=2).reshape(16, 32, 3), 2, axis=0)
        got = resize_bilinear(frame, 16)
        np.testing.assert_array_equal(got, v + v % 2)
        np.testing.assert_array_equal(got, oracle.o_resize_bilinear(frame, 16))

    def test_normalize_matches_the_formula_for_every_value(self):
        values = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)  # (256, 3)
        clip = np.stack([values, values[::-1]]).reshape(2, 16, 16, 3)
        got = normalize(clip)
        want = oracle.o_normalize(clip, frames.DEFAULT_MEAN, frames.DEFAULT_STD)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        slot = np.empty((16, 16, 3), dtype=np.float32)
        assert normalize(clip[1], out=slot) is slot
        assert slot.tobytes() == want[1].tobytes()

    def test_normalize_rejects_non_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            normalize(np.zeros((1, 2, 2, 3), dtype=np.int16))

    @pytest.mark.parametrize("count,fps", [(24, 24), (25, 25), (30, 30), (60, 60), (5, 30)],
                             ids=["24fps", "25fps", "30fps", "60fps", "fewer_than_t"])
    def test_clip_matches_select_resize_normalize(self, monkeypatch, count, fps):
        cfg = PreprocessConfig(t_frames=32, side=16)
        raw = random_clip(frames=count, height=27, width=48, fps=fps, seed=count)
        calls = []

        def counted(frame, side):
            calls.append(frame)
            return resize_bilinear(frame, side)

        monkeypatch.setattr(frames, "resize_bilinear", counted)
        got = preprocess_clip(raw, cfg)
        want = oracle.o_preprocess_clip(raw.frames, cfg.t_frames, cfg.side,
                                        frames.DEFAULT_MEAN, frames.DEFAULT_STD)
        assert got.shape == (32, 16, 16, 3) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert len(calls) == len(set(frame_indices(count, cfg.t_frames)))

    def test_sparse_1080p_second_peaks_under_twice_the_clip(self, tmp_path):
        # one second of 1080p30, all holes on disk, at the shipped preprocessing
        folder = tmp_path / "CSGO"
        folder.mkdir()
        with open(folder / "big.rgbc", "wb") as fh:
            fh.write(b"RGBC" + struct.pack("<5I", 1920, 1080, 30, 30, 1))
            fh.truncate(24 + 30 * 1080 * 1920 * 3)
        store = ClipStore(data_root=tmp_path, preprocess=PreprocessConfig())
        clip_at = store.clips(GameId.CSGO, "big")
        clip, peak = tracemalloc_peak(lambda: clip_at(0.0))
        assert clip.shape == (32, 224, 224, 3)
        zero = normalize(np.zeros((224, 224, 3), np.uint8))
        np.testing.assert_array_equal(clip, np.broadcast_to(zero, clip.shape))
        assert peak < 2 * clip.nbytes


class TestClipStore:
    def write_video(self, tmp_path, game=GameId.CSGO, name="v.rgbc", seed=0, frames=16):
        folder = tmp_path / game.value
        folder.mkdir(parents=True, exist_ok=True)
        clip = random_clip(frames=frames, seed=seed)
        (folder / name).write_bytes(write_rgbc(clip))
        return clip

    def store(self, tmp_path):
        return ClipStore(data_root=tmp_path, preprocess=PreprocessConfig(t_frames=2, side=4))

    def test_resolve_with_and_without_suffix(self, tmp_path):
        self.write_video(tmp_path)
        store = self.store(tmp_path)
        direct = store.resolve(GameId.CSGO, "v.rgbc")
        stemmed = store.resolve(GameId.CSGO, "v")
        assert direct == stemmed

    def test_resolve_missing_raises(self, tmp_path):
        store = self.store(tmp_path)
        with pytest.raises(DataResolutionError):
            store.resolve(GameId.CSGO, "nope")

    def test_duration_and_clip(self, tmp_path):
        clip = self.write_video(tmp_path)
        store = self.store(tmp_path)
        assert store.duration(GameId.CSGO, "v.rgbc") == clip.duration_s
        ref = ClipRef("v.rgbc", 1.0, EventLabel.KILL, GameId.CSGO, "train")
        out = store.clip(ref)
        assert out.shape == (2, 4, 4, 3)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, store.clips(GameId.CSGO, "v")(1.0))

    def test_seconds_match_the_frames_in_memory(self, tmp_path):
        clip = self.write_video(tmp_path, frames=18)  # 4.5 s at 4 fps
        store = self.store(tmp_path)
        clip_at = store.clips(GameId.CSGO, "v")
        for start_s in [-2.0, -0.5, *np.arange(0.0, 7.0, 0.5)]:  # both ends clamp
            first = min(max(round(start_s * 4), 0), 18 - 4)
            window = RawClip(frames=clip.frames[first : first + 4], fps=clip.fps)
            np.testing.assert_array_equal(clip_at(start_s), preprocess_clip(window, store.preprocess))

    def test_clip_starting_at_or_past_the_end_raises_naming_the_file(self, tmp_path):
        self.write_video(tmp_path, frames=18)  # 4.5 s at 4 fps
        store = self.store(tmp_path)
        for start_s in (4.5, 1e6):
            ref = ClipRef("v.rgbc", start_s, EventLabel.KILL, GameId.CSGO, "train")
            with pytest.raises(DataResolutionError, match=f"v.rgbc: clip starts at {start_s}s"):
                store.clip(ref)
        # a start inside the last second still clamps to the last whole second
        ref = ClipRef("v.rgbc", 4.0, EventLabel.KILL, GameId.CSGO, "train")
        np.testing.assert_array_equal(store.clip(ref), store.clips(GameId.CSGO, "v")(3.5))

    def test_videos_of_an_empty_game_folder_raise(self, tmp_path):
        (tmp_path / "CSGO").mkdir()
        with pytest.raises(DataResolutionError, match="no .rgbc videos"):
            self.store(tmp_path).videos(GameId.CSGO)

    def test_sparse_session_is_not_read_whole(self, tmp_path):
        # 1360 frames of 128x128 at 30 fps: about 64 MB, all holes on disk
        folder = tmp_path / "CSGO"
        folder.mkdir()
        with open(folder / "big.rgbc", "wb") as fh:
            fh.write(b"RGBC" + struct.pack("<5I", 128, 128, 1360, 30, 1))
            fh.truncate(24 + 1360 * 128 * 128 * 3)
        store = self.store(tmp_path)

        def read_both_ends():
            duration = store.duration(GameId.CSGO, "big")
            clip_at = store.clips(GameId.CSGO, "big")
            return duration, clip_at(0.0), clip_at(duration - 1.0)

        (duration, first, last), peak = tracemalloc_peak(read_both_ends)
        zeros = preprocess_clip(RawClip(np.zeros((30, 128, 128, 3), np.uint8), Fraction(30)),
                                store.preprocess)
        assert duration == 1360 / 30
        np.testing.assert_array_equal(first, zeros)
        np.testing.assert_array_equal(last, zeros)
        assert peak < 4 * 2**20

    def test_non_rgbc_without_decoder_raises(self, tmp_path):
        folder = tmp_path / "CSGO"
        folder.mkdir()
        (folder / "v.mp4").write_bytes(b"fakevideo")
        store = self.store(tmp_path)
        with pytest.raises(DataResolutionError):
            store.clips(GameId.CSGO, "v.mp4")

    def test_duration_of_a_non_rgbc_file_names_it(self, tmp_path):
        folder = tmp_path / "CSGO"
        folder.mkdir()
        (folder / "v.mp4").write_bytes(b"fakevideo")
        store = ClipStore(
            data_root=tmp_path,
            preprocess=PreprocessConfig(t_frames=2, side=4),
            decoder=frames.decoder("decode {input} {start} {dur}"),
        )
        with pytest.raises(DataResolutionError, match="only an .rgbc file") as info:
            store.duration(GameId.CSGO, "v.mp4")
        assert str(folder / "v.mp4") in str(info.value)
        assert "raw_second" not in str(info.value)


# the child imports the fragreel under test, installed or not
DECODER_SCRIPT = f"""
import sys
sys.path.insert(0, {str(Path(frames.__file__).resolve().parents[1])!r})
import numpy as np
from fractions import Fraction
from fragreel.frames import RawClip, write_rgbc

start = float(sys.argv[2])
frames = np.full((4, 4, 4, 3), int(start), dtype=np.uint8) + np.arange(4, dtype=np.uint8)[:, None, None, None]
sys.stdout.buffer.write(write_rgbc(RawClip(frames=frames, fps=Fraction(4))))
"""


def stream_script(pid_file: Path, frames: int, written: int | None, trailing: int = 0,
                  code: int = 0, stderr: bytes = b"", height: int = 4, width: int = 4,
                  fps: int = 4) -> str:
    """A decoder that records its pid, writes ``stderr``, then an RGBC header
    of ``frames`` zero frames, ``written`` of them (None: none, and then it
    sleeps without end), and ``trailing`` more bytes, and exits with ``code``."""
    return f"""
import os, struct, sys
with open({str(pid_file)!r}, "w") as fh:
    fh.write(str(os.getpid()))
sys.stderr.buffer.write({stderr!r})
sys.stderr.flush()
out = sys.stdout.buffer
out.write(b"RGBC" + struct.pack("<5I", {width}, {height}, {frames}, {fps}, 1))
frame = bytes({height * width * 3})
out.flush()
written = {written}
if written is None:
    import time
    time.sleep(3600)
for _ in range(written or 0):
    out.write(frame)
out.write(bytes({trailing}))
out.flush()
sys.exit({code})
"""


def assert_reaped(pid_file: Path) -> None:
    """The process whose pid the file holds has exited and been waited for."""
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


class TestDecoderSource:
    """The decoder `Command` as the source of a non-.rgbc video's clips."""

    def make(self, tmp_path, script=DECODER_SCRIPT):
        helper = tmp_path / "decode.py"
        helper.write_text(script)
        return frames.decoder(f"{sys.executable} {helper} {{input}} {{start}} {{dur}}")

    def store(self, tmp_path, script, cfg=PreprocessConfig(t_frames=2, side=4)):
        folder = tmp_path / "CSGO"
        folder.mkdir(exist_ok=True)
        (folder / "v.mp4").write_bytes(b"fakevideo")
        return ClipStore(data_root=tmp_path, preprocess=cfg, decoder=self.make(tmp_path, script))

    def test_fetch_decodes_stream(self, tmp_path):
        decoder = self.make(tmp_path)
        with decoder.output(input="ignored.mp4", start="7.0", dur="1.0") as stdout:
            clip = read_stream(stdout, PreprocessConfig(t_frames=4, side=4))
        want = np.full((4, 4, 4, 3), 7, dtype=np.uint8) + np.arange(4, dtype=np.uint8)[:, None, None, None]
        assert clip.tobytes() == normalize(want).tobytes()

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ConfigError, match="decoder template"):
            frames.decoder("decode {input} {start}")

    def test_nonzero_exit_raises(self, tmp_path):
        decoder = self.make(tmp_path, script="import sys; sys.exit(9)")
        with pytest.raises(DataResolutionError, match=r"decoder exited 9: .* x\.mp4 0\.0 1\.0"):
            with decoder.output(input="x.mp4", start="0.0", dur="1.0") as stdout:
                read_stream(stdout, PreprocessConfig())

    def test_store_routes_non_rgbc_through_decoder(self, tmp_path):
        store = self.store(tmp_path, DECODER_SCRIPT)
        got = store.clips(GameId.CSGO, "v.mp4")(3.0)
        # frames 0 and 3 of the four are selected; 1 and 2 are read and dropped
        frames = np.full((4, 4, 4, 3), 3, dtype=np.uint8) + np.arange(4, dtype=np.uint8)[:, None, None, None]
        want = preprocess_clip(RawClip(frames=frames, fps=Fraction(4)), store.preprocess)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("script, error, message", [
        (dict(frames=4, written=2, code=5, stderr=b"boom"), DataResolutionError,
         r"decoder exited 5: .*v\.mp4 0\.0 1\.0: b'boom'"),
        (dict(frames=4, written=3), MalformedJson,
         r"^decoder .*v\.mp4 0\.0 1\.0: RGBC header implies 216 bytes, stream has 168$"),
        (dict(frames=4, written=4, trailing=40), MalformedJson,
         r"^decoder .*v\.mp4 0\.0 1\.0: RGBC header implies 216 bytes, stream has 256$"),
    ], ids=["nonzero_exit", "short_stream", "trailing_bytes"])
    def test_a_failed_second_leaves_no_decoder_running(self, tmp_path, script, error, message):
        pid = tmp_path / "decoder.pid"
        store = self.store(tmp_path, stream_script(pid, **script))
        with pytest.raises(error, match=message):
            store.clips(GameId.CSGO, "v.mp4")(0.0)
        assert_reaped(pid)

    def test_an_error_while_reading_kills_the_decoder(self, tmp_path):
        # the decoder writes its header and then sleeps for an hour
        pid = tmp_path / "decoder.pid"
        decoder = self.make(tmp_path, stream_script(pid, frames=4, written=None))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="stop"):
            with decoder.output(input="x.mp4", start="0.0", dur="1.0") as stdout:
                stdout.read(24)
                raise RuntimeError("stop")
        assert time.monotonic() - started < 60
        assert_reaped(pid)

    def test_a_full_stderr_does_not_stall_the_decoder(self, tmp_path):
        pid = tmp_path / "decoder.pid"
        store = self.store(tmp_path, stream_script(pid, frames=4, written=4, stderr=bytes(2**20)))
        clip = store.clips(GameId.CSGO, "v.mp4")(0.0)
        assert clip.tobytes() == normalize(np.zeros((2, 4, 4, 3), np.uint8)).tobytes()
        assert_reaped(pid)

    def test_1080p_second_peaks_under_twice_the_clip(self, tmp_path):
        # one 1080p30 second through a decoder, at the shipped preprocessing
        pid = tmp_path / "decoder.pid"
        script = stream_script(pid, frames=30, written=30, height=1080, width=1920, fps=30)
        clip_at = self.store(tmp_path, script, PreprocessConfig()).clips(GameId.CSGO, "v.mp4")
        clip, peak = tracemalloc_peak(lambda: clip_at(0.0))
        assert clip.shape == (32, 224, 224, 3)
        zero = normalize(np.zeros((224, 224, 3), np.uint8))
        np.testing.assert_array_equal(clip, np.broadcast_to(zero, clip.shape))
        assert peak < 2 * clip.nbytes


class TestCommand:
    def test_literal_braces_reach_the_process(self):
        echo = Command("echo", f"{sys.executable} -c 'import sys; print(sys.argv[1:])' "
                               "{{x}} {word}", ("word",))
        assert echo.run(word="hi").decode().strip() == "['{x}', 'hi']"

    @pytest.mark.parametrize("template", [
        5,
        "echo {word!r}",
        "echo {word:>4}",
        "echo {word.upper}",
        "echo {}",
    ], ids=["not_a_string", "conversion", "format_spec", "attribute", "positional"])
    def test_anything_but_bare_placeholders_rejected(self, template):
        with pytest.raises(ConfigError, match="^echo"):
            Command("echo", template, ("word",))
